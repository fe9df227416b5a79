"""Closed-form engine for the postselected pointer statistics.

Every quantity here is read from one real-axis kernel of the photon-added
coherent state |phi> = gamma * adag |alpha> (`real_axis_kernel`),

    K0(nu) = <phi| D(nu) |phi>
    K1(nu) = <phi| D(nu) a |phi>,

derived by normal ordering the displaced ladder operators over the coherent
overlap <alpha|alpha + nu>, together with the slopes of K0 along real nu.
The strength is real, so the kernel is only ever needed at nu = 0 and
nu = +-strength; one branch sum (`_branch_sum`) turns it into the weak-value
weights, the norm, the transition value, the shifts and the Fisher
information.  No truncation is involved anywhere.  The independent matrix
engine lives in `fock` and shares no formulas with this module, so
agreement between the two is a real consistency check.

Identities the kernel satisfies (exercised by the test suite):
    K0(0) = 1
    K1(0) = <a> of the pointer state
    K0(nu)* = K0(-nu)
    |K0(nu)| <= 1
    K0'(nu) = <phi| G D(nu) |phi>, with G = adag - a, since d/dnu D(nu) = G D(nu)
    K0''(nu) = -<phi| G^dagger G D(nu) |phi>
    K0'(0) = <G> = -2i Im<a>
    -K0''(0) = <G^dagger G> = 4 sigma^2 <P^2>
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

# |nu| past this puts exp(-nu^2 / 2) below 1e-300; the kernels there are flushed
# to an exact zero so that Gaussian-suppressed terms never turn into inf * 0 = nan.
FLUSH_SHIFT = math.sqrt(-2.0 * math.log(1e-300))


@dataclass(frozen=True)
class ShiftResult:
    """Conditional pointer readout at one parameter point."""

    position_shift: float
    momentum_shift: float
    transition: complex
    inverse_norm_sq: float


def mean_lowering(pointer: PointerParams) -> complex:
    """<a> of the pointer state: gamma^2 * alpha * (2 + r^2)."""
    return pointer.norm_factor_sq * pointer.alpha * (2.0 + pointer.r * pointer.r)


def real_axis_kernel(
    pointer: PointerParams, nu: float
) -> tuple[complex, complex, complex, complex]:
    """K0(nu), K1(nu), K0'(nu) and K0''(nu) for a real displacement nu.

    K0 and K1 are the normal-ordered products over <alpha|alpha + nu>, with
    f = 1 + (alpha* - nu)(alpha + nu) and the envelope exp(-nu^2/2 + c nu),
    c = alpha* - alpha; the slopes differentiate gamma^2 f exp(-nu^2/2 + c nu).
    """
    if abs(nu) > FLUSH_SHIFT:
        return 0j, 0j, 0j, 0j
    alpha = pointer.alpha
    g2 = pointer.norm_factor_sq
    # The exponent past the Gaussian is a pure phase: alpha* nu - nu alpha.
    envelope = cmath.exp(-abs(nu) ** 2 / 2.0 + alpha.conjugate() * nu - nu * alpha)
    f = 1.0 + (alpha.conjugate() - nu) * (alpha + nu)
    k0 = g2 * f * envelope
    k1 = g2 * ((alpha + nu) * (1.0 + abs(alpha) ** 2 - alpha * nu) + alpha) * envelope
    c = alpha.conjugate() - alpha
    df, de = c - 2.0 * nu, c - nu
    slope = g2 * (df + f * de) * envelope
    curve = g2 * (2.0 * df * de - 2.0 - f + f * de * de) * envelope
    return k0, k1, slope, curve


@dataclass(frozen=True)
class _BranchSum:
    """The kept combination (1+A) D(+G/2)|phi> + (1-A) D(-G/2)|phi>, summed over branches."""

    weak: complex     # A
    diag: float       # 1 + |A|^2
    weight: complex   # (1+A)* (1-A); its conjugate weighs the forward cross term
    back: tuple[complex, complex, complex, complex]  # the kernel at -G
    cross: complex    # (1+A)* (1-A) K0(-G)
    half_norm: float  # N / 2 = 1 + |A|^2 + Re[cross]

    @property
    def transition(self) -> complex:
        return (2.0 * self.weak.real - 1j * self.cross.imag) / self.half_norm


def _branch_sum(sel: SelectionParams, pointer: PointerParams, coupling: Coupling) -> _BranchSum:
    a = weak_value(sel)
    diag = 1.0 + abs(a) ** 2
    weight = (1.0 + a).conjugate() * (1.0 - a)
    back = real_axis_kernel(pointer, -coupling.strength)
    cross = weight * back[0]
    half_norm = diag + cross.real
    if not half_norm > 0.0:
        raise ArithmeticError(f"nonpositive norm {half_norm}; parameters out of range")
    return _BranchSum(a, diag, weight, back, cross, half_norm)


def transition_value(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> complex:
    """Conditional expectation of the measured observable at any strength.

    Interpolates from the weak value (strength -> 0) to the projective
    conditional value sin(phi) cos(delta) (strength -> infinity).
    """
    return _branch_sum(sel, pointer, coupling).transition


def pointer_shifts(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> ShiftResult:
    """First-principles conditional position and momentum shifts.

    <a> of the kept-outcome state is assembled from the diagonal branch
    terms (<a>_phi +- G/2) and the two displaced cross kernels; the shifts
    are then dx = 2 sigma Re[d<a>], dp = Im[d<a>] / sigma with hbar = 1.
    """
    g = coupling.strength
    b = _branch_sum(sel, pointer, coupling)
    a_mean = mean_lowering(pointer)
    k0_back, k1_back, _, _ = b.back
    k0_fore, k1_fore, _, _ = real_axis_kernel(pointer, g)
    raw = (
        2.0 * b.diag * a_mean
        + 2.0 * g * b.weak.real
        + b.weight * (k1_back - 0.5 * g * k0_back)
        + b.weight.conjugate() * (k1_fore + 0.5 * g * k0_fore)
    )
    delta_a = raw / (2.0 * b.half_norm) - a_mean
    dx = 2.0 * pointer.sigma * delta_a.real
    dp = delta_a.imag / pointer.sigma
    if not (math.isfinite(dx) and math.isfinite(dp)):
        raise ArithmeticError(f"nonfinite shift ({dx}, {dp})")
    return ShiftResult(
        position_shift=dx,
        momentum_shift=dp,
        transition=b.transition,
        inverse_norm_sq=b.half_norm,
    )


def fisher_information(sel: SelectionParams, pointer: PointerParams, coupling: Coupling) -> float:
    """Fisher information of the normalized kept pointer state in the strength.

    The kept combination B has dB = G C / 2, C its sigma_x-weighted twin, so
    <B|dB>, <dB|dB> and N = <B|B> are sums of K0, K0' and K0'' at 0 and
    -strength, and F = 4 (<dB|dB> / N - |<B|dB>|^2 / N^2).
    """
    b = _branch_sum(sel, pointer, coupling)
    _, _, slope_g, curve_g = b.back
    _, _, slope_0, curve_0 = real_axis_kernel(pointer, 0.0)
    norm = 2.0 * b.half_norm
    overlap = 2.0 * b.weak.real * slope_0 - (b.weight * slope_g).real
    speed = 0.5 * ((b.weight * curve_g).real - b.diag * curve_0.real)
    return 4.0 * (speed / norm - abs(overlap) ** 2 / (norm * norm))


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
