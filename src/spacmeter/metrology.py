"""Readout quality metrics: signal-to-noise comparison and Fisher information.

Two figures of merit for estimating the interaction strength from the
pointer position:

* snr       -- ratio of the conditioned scheme's shift-to-spread SNR to the
               keep-everything scheme's, with the success probability priced
               in.  Trial count cancels in the ratio and that is asserted.
* qfi       -- quantum Fisher information of the kept pointer state with
               respect to the interaction strength, by symmetric finite
               difference of the state, cross-checked against a fidelity
               estimator and weighted by the selection probability.

All state vectors come from the matrix engine; the closed-form engine enters
only as an agreement check on the conditioned shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, fock
from .model import (
    Coupling,
    PointerParams,
    SelectionParams,
    postselection_probability,
    strong_conditional_value,
)

REFERENCE_GUARD = 1e-12

# |a - b| <= CROSS_REL * max(|a|, |b|) + CROSS_ABS, shared with the verifier
CROSS_REL = 1e-8
CROSS_ABS = 1e-12

ESTIMATOR_AGREEMENT = 1e-4

# Default finite-difference step of the Fisher estimators
FISHER_STEP = 1e-4


class DegenerateReference(ValueError):
    """The keep-everything scheme has no first-order shift at this point."""


class StepTooCoarse(RuntimeError):
    """Derivative and fidelity estimators still disagree after refinement."""


class EngineMismatch(RuntimeError):
    """Closed-form and matrix engines disagree beyond shared tolerance."""


@dataclass(frozen=True)
class SnrReport:
    postselected: float
    nonpostselected: float
    ratio: float
    trials: int
    success_probability: float


@dataclass(frozen=True)
class FisherReport:
    fisher: float
    weighted_fisher: float
    cramer_rao: float
    step: float


def _check_snr_inputs(sel: SelectionParams, coupling: Coupling, trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be a positive count")
    if coupling.strength <= 0.0:
        raise ValueError("snr needs a nonzero coupling strength")
    if abs(strong_conditional_value(sel)) <= REFERENCE_GUARD:
        raise DegenerateReference(
            "reference shift g*sin(phi)*cos(delta) vanishes at this selection"
        )


def snr(
    sel: SelectionParams,
    pointer: PointerParams,
    coupling: Coupling,
    trials: int = 1,
) -> SnrReport:
    """Shift-to-spread SNRs of both schemes and their trial-free ratio.

    The conditioned-route SNR carries a sqrt(trials * keep probability)
    factor, the reference carries sqrt(trials); the ratio is therefore
    independent of the trial count, which is asserted to one part in 1e12.
    """
    _check_snr_inputs(sel, coupling, trials)  # before paying for a ladder
    return snr_from_bundle(fock.branch_bundle(sel, pointer, coupling), trials)


def snr_from_bundle(bundle: fock.BranchBundle, trials: int = 1) -> SnrReport:
    """snr read off an already certified branch bundle."""
    sel, pointer, coupling = bundle.sel, bundle.pointer, bundle.coupling
    _check_snr_inputs(sel, coupling, trials)
    shift, _ = bundle.kept_shift()
    spread = math.sqrt(bundle.kept_moments.position_variance)

    closed = analytic.pointer_shifts(sel, pointer, coupling).position_shift
    if abs(shift - closed) > CROSS_REL * max(abs(shift), abs(closed)) + CROSS_ABS:
        raise EngineMismatch(
            f"conditioned position shift: matrix {shift!r} vs closed form {closed!r}"
        )

    shift_plain = bundle.unconditioned_shift()
    spread_plain = math.sqrt(bundle.unconditioned.position_variance)

    keep_prob = postselection_probability(sel)
    ratio = math.sqrt(keep_prob) * (shift * spread_plain) / (spread * shift_plain)
    conditioned = math.sqrt(trials * keep_prob) * shift / spread
    unconditioned = math.sqrt(trials) * shift_plain / spread_plain
    if abs(ratio - conditioned / unconditioned) > 1e-12 * abs(ratio):
        raise ArithmeticError("trial count failed to cancel in the SNR ratio")
    return SnrReport(
        postselected=conditioned,
        nonpostselected=unconditioned,
        ratio=ratio,
        trials=trials,
        success_probability=keep_prob,
    )


def fisher_from_states(center, plus, minus, step: float) -> tuple[float, float]:
    """Fisher information of a pure-state family from three normalized points.

    Global phases of the neighbors are gauged away against the center before
    differencing, so the answer is invariant under any injected phase drift.
    Returns the derivative-based value and the fidelity-based check
    8 (1 - |<center|plus>|) / step^2.
    """
    c = np.asarray(center, dtype=np.complex128)
    aligned = []
    for v in (plus, minus):
        w = np.array(v, dtype=np.complex128, copy=True)
        z = complex(np.vdot(c, w))
        if z != 0.0:
            w *= z.conjugate() / abs(z)
        aligned.append(w)
    p, m = aligned
    d = (p - m) / (2.0 * step)
    fisher = 4.0 * (float(np.vdot(d, d).real) - abs(complex(np.vdot(c, d))) ** 2)
    overlap = abs(complex(np.vdot(c, p)))
    fidelity_fisher = 8.0 * (1.0 - overlap) / (step * step)
    return fisher, fidelity_fisher


def _check_qfi_inputs(coupling: Coupling, trials: int, step: float) -> None:
    if trials < 1:
        raise ValueError("trials must be a positive count")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if coupling.strength < step:
        raise ValueError("strength must be at least the finite-difference step")


def qfi(
    sel: SelectionParams,
    pointer: PointerParams,
    coupling: Coupling,
    trials: int = 1,
    step: float = FISHER_STEP,
) -> FisherReport:
    """Fisher information of the kept pointer state in the coupling strength.

    The center point is assembled with certified truncation; all strength
    neighbors displace the center's certified pointer state at its cutoff,
    so the vectors live on one grid.  The derivative value is cross-checked
    against the fidelity estimator with one Richardson refinement (the
    half-step evaluation cancels the fidelity form's linear-in-step bias,
    which otherwise dominates wherever the information is small but
    strength-sensitive).  If the two disagree by more than
    ESTIMATOR_AGREEMENT relative, the step is halved once; persistent
    disagreement raises StepTooCoarse.
    """
    _check_qfi_inputs(coupling, trials, step)  # before paying for a ladder
    return qfi_from_bundle(fock.branch_bundle(sel, pointer, coupling), trials, step)


def qfi_from_bundle(
    bundle: fock.BranchBundle, trials: int = 1, step: float = FISHER_STEP
) -> FisherReport:
    """qfi read off an already certified branch bundle, the center point."""
    strength = bundle.coupling.strength
    _check_qfi_inputs(bundle.coupling, trials, step)
    center = bundle.kept.state.amplitudes

    def estimate(eps: float) -> tuple[float, float]:
        plus, _ = fock.assemble_at_cutoff(bundle, strength + eps)
        minus, _ = fock.assemble_at_cutoff(bundle, strength - eps)
        fisher, fid_full = fisher_from_states(center, plus, minus, eps)
        half, _ = fock.assemble_at_cutoff(bundle, strength + eps / 2.0)
        overlap = abs(complex(np.vdot(center, half)))
        fid_half = 8.0 * (1.0 - overlap) / (eps / 2.0) ** 2
        return fisher, 2.0 * fid_half - fid_full

    def agree(a: float, b: float) -> bool:
        return abs(a - b) <= ESTIMATOR_AGREEMENT * max(abs(a), abs(b))

    used = step
    fisher, check = estimate(used)
    if not agree(fisher, check):
        used = step / 2.0
        fisher, check = estimate(used)
        if not agree(fisher, check):
            raise StepTooCoarse(
                f"estimators disagree at step {step!r} and {used!r}: "
                f"derivative {fisher!r} vs fidelity {check!r}"
            )

    weighted = postselection_probability(bundle.sel) * fisher
    bound = 1.0 / (trials * weighted)
    if not (fisher >= 0.0 and weighted <= fisher and bound > 0.0 and math.isfinite(bound)):
        raise ArithmeticError("Fisher information left its admissible range")
    return FisherReport(fisher=fisher, weighted_fisher=weighted, cramer_rao=bound, step=used)
