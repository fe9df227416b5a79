"""Readout quality metrics: signal-to-noise comparison and Fisher information.

Two figures of merit for estimating the interaction strength from the
pointer position:

* snr       -- ratio of the conditioned scheme's shift-to-spread SNR to the
               keep-everything scheme's, with the success probability priced
               in.  Trial count cancels in the ratio and that is asserted.
* qfi       -- quantum Fisher information of the kept pointer state with
               respect to the interaction strength, from the exact strength
               derivative of the state, weighted by the selection probability.

All reported values come from the matrix engine; the closed-form engine
checks the conditioned shift and the Fisher information (EngineMismatch).
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


class DegenerateReference(ValueError):
    """The keep-everything scheme has no first-order shift at this point."""


# Raised by nothing in the package; kept because perfbench/workloads.py imports it.
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


def _check_engines(name: str, oracle: float, closed: float) -> None:
    if abs(oracle - closed) > CROSS_REL * max(abs(oracle), abs(closed)) + CROSS_ABS:
        raise EngineMismatch(f"{name}: matrix {oracle!r} vs closed form {closed!r}")


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
    _check_engines("conditioned position shift", shift, closed)

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


def fisher_from_states(center, near, step: float) -> float:
    """Fidelity estimate of the Fisher information, 8 (1 - |<center|near>|) / step^2.

    center and near are normalized states a parameter step apart; the
    estimate uses no derivative identity and no global phase.
    """
    overlap = abs(complex(np.vdot(center, near)))
    return 8.0 * (1.0 - overlap) / (step * step)


def qfi(
    sel: SelectionParams,
    pointer: PointerParams,
    coupling: Coupling,
    trials: int = 1,
) -> FisherReport:
    """Fisher information of the kept pointer state in the coupling strength.

    An exact-derivative read of the certified bundle (BranchBundle.fisher), checked
    against analytic.fisher_information; there is no step, so strength 0 is valid.
    """
    if trials < 1:  # before paying for a ladder
        raise ValueError("trials must be a positive count")
    return qfi_from_bundle(fock.branch_bundle(sel, pointer, coupling), trials)


def qfi_from_bundle(bundle: fock.BranchBundle, trials: int = 1) -> FisherReport:
    """qfi read off an already certified branch bundle."""
    if trials < 1:
        raise ValueError("trials must be a positive count")
    fisher = bundle.fisher()
    closed = analytic.fisher_information(bundle.sel, bundle.pointer, bundle.coupling)
    _check_engines("Fisher information", fisher, closed)
    weighted = postselection_probability(bundle.sel) * fisher
    bound = 1.0 / (trials * weighted) if weighted > 0.0 else math.inf
    if not (fisher >= 0.0 and weighted <= fisher and bound > 0.0 and math.isfinite(bound)):
        raise ArithmeticError(f"Fisher information {fisher!r} left its admissible range")
    return FisherReport(fisher=fisher, weighted_fisher=weighted, cramer_rao=bound)
