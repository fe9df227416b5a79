"""Closed-form engine for the postselected pointer statistics.

Every quantity here is assembled from two scalar kernels of the photon-added
coherent state |phi> = gamma * adag |alpha>,

    K0(mu) = <phi| D(mu) |phi>
    K1(mu) = <phi| D(mu) a |phi>,

derived by normal ordering the displaced ladder operators over the coherent
overlap <alpha|alpha + mu>.  No truncation is involved anywhere.  The
independent matrix engine lives in `fock` and shares no formulas with this
module, so agreement between the two is a real consistency check.

Identities the kernels satisfy (exercised by the test suite):
    K0(0) = 1
    K1(0) = <a> of the pointer state
    K0(mu)* = K0(-mu)
    |K0(mu)| <= 1
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .model import (
    Coupling,
    PointerMoments,
    PointerParams,
    SelectionParams,
    weak_value,
)

# exp(-|mu|^2 / 2) below 1e-300 is flushed to an exact zero so that
# Gaussian-suppressed kernels never turn into inf * 0 = nan.
_LOG_FLUSH = math.log(1e-300)


@dataclass(frozen=True)
class DisplacedKernels:
    """Scalar overlaps of the pointer state with its displaced image."""

    shift: complex
    overlap: complex          # <phi| D(shift) |phi>
    lowered_overlap: complex  # <phi| D(shift) a |phi>


@dataclass(frozen=True)
class ShiftResult:
    """Conditional pointer readout at one parameter point."""

    position_shift: float
    momentum_shift: float
    transition: complex
    inverse_norm_sq: float


def displaced_kernels(pointer: PointerParams, shift: complex) -> DisplacedKernels:
    """Closed-form K0 and K1 for an arbitrary complex displacement."""
    mu = complex(shift)
    alpha = pointer.alpha
    g2 = pointer.norm_factor_sq
    exponent = -abs(mu) ** 2 / 2.0
    if exponent < _LOG_FLUSH:
        return DisplacedKernels(shift=mu, overlap=0j, lowered_overlap=0j)
    # The remaining exponential factor is a pure phase: alpha* mu - mu* alpha.
    envelope = cmath.exp(exponent + alpha.conjugate() * mu - mu.conjugate() * alpha)
    mod2 = abs(alpha) ** 2
    k0 = g2 * (1.0 + (alpha.conjugate() - mu.conjugate()) * (alpha + mu)) * envelope
    k1 = g2 * ((alpha + mu) * (1.0 + mod2 - alpha * mu.conjugate()) + alpha) * envelope
    return DisplacedKernels(shift=mu, overlap=k0, lowered_overlap=k1)


def mean_lowering(pointer: PointerParams) -> complex:
    """<a> of the pointer state: gamma^2 * alpha * (2 + r^2)."""
    return pointer.norm_factor_sq * pointer.alpha * (2.0 + pointer.r * pointer.r)


def transcribed_shift_kernel(pointer: PointerParams, strength: float) -> complex:
    """Reference cross-term kernel, kept verbatim for the audit trail.

    This is an as-transcribed variant: it differs from the kernel-exact
    combination 2 (K1(G) + (G/2) K0(G)) / gamma^2 by a missing -G^3 term in
    the bracket.  The first-principles shift assembly never uses it; see
    `audit` for the side-by-side comparison.

    `strength` is a plain signed float because the audit evaluates the
    kernel at both +G and -G.
    """
    alpha = pointer.alpha
    mod2 = abs(alpha) ** 2
    g2inv = 1.0 + mod2
    g = float(strength)
    if -g * g / 2.0 < _LOG_FLUSH:
        return 0j
    bracket = (
        2.0 * alpha * (2.0 + mod2)
        + 3.0 * g * g2inv
        - 2.0 * alpha * alpha * g
        + g * g * (alpha.conjugate() - 3.0 * alpha)
    )
    return cmath.exp(-2.0j * g * alpha.imag) * bracket * math.exp(-g * g / 2.0)


def _cross_weight(sel: SelectionParams) -> tuple[complex, complex, float]:
    """(1+A), (1-A) and 1+|A|^2 for the branch superposition."""
    a = weak_value(sel)
    return 1.0 + a, 1.0 - a, 1.0 + abs(a) ** 2


def inverse_norm_sq(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> float:
    """Inverse squared normalization of the kept-outcome pointer state.

    Half the squared norm of (1+A) D(+G/2)|phi> + (1-A) D(-G/2)|phi>;
    evaluates to 2 at zero strength and to 1 + |A|^2 at large strength.
    """
    plus, minus, diag = _cross_weight(sel)
    k0 = displaced_kernels(pointer, -coupling.strength).overlap
    value = diag + (plus.conjugate() * minus * k0).real
    if not value > 0.0:
        raise ArithmeticError(f"nonpositive norm {value}; parameters out of range")
    return value


def transition_value(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> complex:
    """Conditional expectation of the measured observable at any strength.

    Interpolates from the weak value (strength -> 0) to the projective
    conditional value sin(phi) cos(delta) (strength -> infinity).
    """
    plus, minus, diag = _cross_weight(sel)
    k0 = displaced_kernels(pointer, -coupling.strength).overlap
    cross = plus.conjugate() * minus * k0
    norm = diag + cross.real
    return (2.0 * weak_value(sel).real - 1j * cross.imag) / norm


def pointer_shifts(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> ShiftResult:
    """First-principles conditional position and momentum shifts.

    <a> of the kept-outcome state is assembled from the diagonal branch
    terms (<a>_phi +- G/2) and the two displaced cross kernels; the shifts
    are then dx = 2 sigma Re[d<a>], dp = Im[d<a>] / sigma with hbar = 1.
    """
    g = coupling.strength
    a = weak_value(sel)
    plus, minus, diag = 1.0 + a, 1.0 - a, 1.0 + abs(a) ** 2
    a_mean = mean_lowering(pointer)
    back = displaced_kernels(pointer, -g)
    fore = displaced_kernels(pointer, g)
    raw = (
        2.0 * diag * a_mean
        + 2.0 * g * a.real
        + plus.conjugate() * minus * (back.lowered_overlap - 0.5 * g * back.overlap)
        + minus.conjugate() * plus * (fore.lowered_overlap + 0.5 * g * fore.overlap)
    )
    cross = plus.conjugate() * minus * back.overlap
    norm = diag + cross.real
    delta_a = raw / (2.0 * norm) - a_mean
    dx = 2.0 * pointer.sigma * delta_a.real
    dp = delta_a.imag / pointer.sigma
    if not (math.isfinite(dx) and math.isfinite(dp)):
        raise ArithmeticError(f"nonfinite shift ({dx}, {dp})")
    transition = (2.0 * a.real - 1j * cross.imag) / norm
    return ShiftResult(
        position_shift=dx,
        momentum_shift=dp,
        transition=transition,
        inverse_norm_sq=norm,
    )


def initial_moments(pointer: PointerParams) -> PointerMoments:
    """Quadrature statistics of the bare pointer state in closed form.

    Var X = sigma^2 gamma^4 (3 + 4 r^2 sin^2 theta + r^4) and the momentum
    variance mirrors it with cos^2 theta over 4 sigma^2; at r = 0 these are
    exactly (3 sigma^2, 3 / (4 sigma^2)).
    """
    sigma = pointer.sigma
    g2 = pointer.norm_factor_sq
    r2 = pointer.r * pointer.r
    a_mean = mean_lowering(pointer)
    sin2 = math.sin(pointer.theta) ** 2
    cos2 = math.cos(pointer.theta) ** 2
    common = 3.0 + r2 * r2
    var_x = sigma * sigma * g2 * g2 * (common + 4.0 * r2 * sin2)
    var_p = g2 * g2 * (common + 4.0 * r2 * cos2) / (4.0 * sigma * sigma)
    return PointerMoments(
        position_mean=2.0 * sigma * a_mean.real,
        momentum_mean=a_mean.imag / sigma,
        position_variance=var_x,
        momentum_variance=var_p,
        mean_excitation=g2 * (r2 * r2 + 3.0 * r2 + 1.0),
    )


def weak_limit_shifts(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> tuple[float, float]:
    """Leading-order shifts in the weak regime: (W_x, W_p).

    W_x couples the real part of the weak value to the coupling constant and
    its imaginary part to the theta-derivative of the position variance;
    W_p is 2 g Var(P) Im[A].  The exact shifts approach these as O(G^2).
    """
    a = weak_value(sel)
    g = coupling.coupling_constant(pointer)
    g2 = pointer.norm_factor_sq
    r2 = pointer.r * pointer.r
    # d(Var X)/d(theta) / (2 sigma^2) = 2 gamma^4 r^2 sin(2 theta)
    skew = 2.0 * g2 * g2 * r2 * math.sin(2.0 * pointer.theta)
    w_x = g * (a.real - skew * a.imag)
    w_p = 2.0 * g * initial_moments(pointer).momentum_variance * a.imag
    return w_x, w_p
