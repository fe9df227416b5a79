"""One two-engine record per parameter point, and the readout metrics read from it.

A Reading holds a point's one certified branch bundle (fock) and one closed-form
evaluation (analytic); every two-engine number of the point is a read of it, a
Pair of both engines' values and their gap over the shared budget.  `snr` (the
conditioned over the keep-everything shift-to-spread SNR, success probability
priced in) and `qfi` (the kept state's Fisher information in the strength) report
the matrix engine's values, checked against the closed forms (EngineMismatch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analytic, fock
from .model import (
    Coupling,
    PointerParams,
    SelectionParams,
    _once,
    postselection_probability,
    strong_conditional_value,
)

REFERENCE_GUARD = 1e-12

# the budget of cross_ratio, shared with the verifier
CROSS_REL = 1e-8
CROSS_ABS = 1e-12

# g sin(phi) cos(delta) is the unconditioned shift exactly, so its budget is absolute
UNCONDITIONED_ABS = 1e-10


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


def cross_ratio(a: float, b: float) -> float:
    """|a - b| over the shared budget CROSS_REL max(|a|, |b|) + CROSS_ABS: the engines agree where it is <= 1."""
    return abs(a - b) / (CROSS_REL * max(abs(a), abs(b)) + CROSS_ABS)


class Pair(NamedTuple):
    """One quantity from both engines; they agree where ratio, their gap over its budget, is <= 1."""

    closed: float | complex
    oracle: float | complex
    ratio: float

    def agreed(self, name: str) -> float:
        """The oracle value, or EngineMismatch unless ratio <= 1 (so a NaN raises)."""
        if not self.ratio <= 1.0:
            raise EngineMismatch(f"{name}: matrix {self.oracle!r} vs closed form {self.closed!r}")
        return self.oracle


def _pair(closed: float, oracle: float) -> Pair:
    return Pair(closed, oracle, cross_ratio(oracle, closed))


@dataclass(frozen=True, eq=False)
class Reading:
    """A parameter point's two-engine record.

    `bundle`, the point's one cutoff ladder, whose one pass holds every
    oracle value, and `closed`, its one analytic.pointer_shifts, run on first
    access and are kept.  A pair is made from them, or from the closed form
    it names, on each read; the closed forms at the point share its one
    branch sum.  A pair reads the closed form first, except the Fisher pair,
    as their callers always did: an input that fails in both engines raises
    what it did.
    """

    sel: SelectionParams
    pointer: PointerParams
    coupling: Coupling

    @_once
    def bundle(self) -> fock.BranchBundle:
        return fock.branch_bundle(self.sel, self.pointer, self.coupling)

    @_once
    def closed(self) -> analytic.ShiftResult:
        return analytic.pointer_shifts(self.sel, self.pointer, self.coupling)

    @property
    def position_shift(self) -> Pair:
        return _pair(self.closed.position_shift, self.bundle.kept_shift[0])

    @property
    def momentum_shift(self) -> Pair:
        return _pair(self.closed.momentum_shift, self.bundle.kept_shift[1])

    @property
    def transition(self) -> Pair:
        """From analytic.transition_value, which is sigma-free, not from `closed`."""
        closed = analytic.transition_value(self.sel, self.pointer, self.coupling)
        oracle = self.bundle.transition()
        return Pair(closed, oracle, max(cross_ratio(oracle.real, closed.real), cross_ratio(oracle.imag, closed.imag)))

    @property
    def half_norm(self) -> Pair:
        """N / 2, the closed form's ShiftResult.inverse_norm_sq."""
        return _pair(self.closed.inverse_norm_sq, self.bundle.norm_sq / 2.0)

    @property
    def fisher(self) -> Pair:
        oracle = self.bundle.fisher()
        return _pair(analytic.fisher_information(self.sel, self.pointer, self.coupling), oracle)

    @property
    def unconditioned_shift(self) -> Pair:
        """Against g sin(phi) cos(delta), on the absolute budget UNCONDITIONED_ABS."""
        closed = self.coupling.coupling_constant(self.pointer) * strong_conditional_value(self.sel)
        oracle = self.bundle.unconditioned_shift()
        return Pair(closed, oracle, abs(oracle - closed) / UNCONDITIONED_ABS)

    def pairs(self) -> dict[str, Pair]:
        """Every two-engine quantity of the point, by name."""
        return {
            "position shift": self.position_shift,
            "momentum shift": self.momentum_shift,
            "transition value": self.transition,
            "inverse norm": self.half_norm,
            "Fisher information": self.fisher,
            "unconditioned shift": self.unconditioned_shift,
        }

    def snr(self, trials: int = 1) -> SnrReport:
        """Shift-to-spread SNRs of both schemes and their trial-free ratio.

        The conditioned-route SNR carries a sqrt(trials * keep probability)
        factor, the reference carries sqrt(trials); the ratio is therefore
        independent of the trial count, which is asserted to one part in 1e12.
        A non-finite ratio or SNR raises ArithmeticError.  The inputs are
        checked before the bundle is read.
        """
        if trials < 1:
            raise ValueError("trials must be a positive count")
        if self.coupling.strength <= 0.0:
            raise ValueError("snr needs a nonzero coupling strength")
        if abs(strong_conditional_value(self.sel)) <= REFERENCE_GUARD:
            raise DegenerateReference("reference shift g*sin(phi)*cos(delta) vanishes at this selection")
        bundle = self.bundle
        spread = math.sqrt(bundle.kept_moments.position_variance)
        shift = self.position_shift.agreed("conditioned position shift")

        shift_plain = bundle.unconditioned_shift()
        spread_plain = math.sqrt(bundle.unconditioned.position_variance)

        keep_prob = postselection_probability(self.sel)
        ratio = math.sqrt(keep_prob) * (shift * spread_plain) / (spread * shift_plain)
        conditioned = math.sqrt(trials * keep_prob) * shift / spread
        unconditioned = math.sqrt(trials) * shift_plain / spread_plain
        if not all(math.isfinite(v) for v in (ratio, conditioned, unconditioned)):
            raise ArithmeticError(
                f"non-finite SNR: ratio {ratio!r}, conditioned {conditioned!r}, unconditioned {unconditioned!r}"
            )
        if abs(ratio - conditioned / unconditioned) > 1e-12 * abs(ratio):
            raise ArithmeticError("trial count failed to cancel in the SNR ratio")
        return SnrReport(conditioned, unconditioned, ratio, trials, keep_prob)

    def qfi(self, trials: int = 1) -> FisherReport:
        """Fisher information of the kept pointer state in the coupling strength.

        An exact read of the bundle (BranchBundle.fisher), with no step, so
        strength 0 is valid; trials is checked before the bundle is read.
        """
        if trials < 1:
            raise ValueError("trials must be a positive count")
        fisher = self.fisher.agreed("Fisher information")
        weighted = postselection_probability(self.sel) * fisher
        bound = 1.0 / (trials * weighted) if weighted > 0.0 else math.inf
        if not (fisher >= 0.0 and weighted <= fisher and bound > 0.0 and math.isfinite(bound)):
            raise ArithmeticError(f"Fisher information {fisher!r} left its admissible range")
        return FisherReport(fisher=fisher, weighted_fisher=weighted, cramer_rao=bound)


def snr(sel: SelectionParams, pointer: PointerParams, coupling: Coupling, trials: int = 1) -> SnrReport:
    """Reading.snr of a fresh record."""
    return Reading(sel, pointer, coupling).snr(trials)


def qfi(sel: SelectionParams, pointer: PointerParams, coupling: Coupling, trials: int = 1) -> FisherReport:
    """Reading.qfi of a fresh record."""
    return Reading(sel, pointer, coupling).qfi(trials)


def fisher_from_states(center, near, step: float) -> float:
    """Fidelity estimate of the Fisher information, 8 (1 - |<center|near>|) / step^2.

    center and near are normalized states a parameter step apart; the
    estimate uses no derivative identity and no global phase.
    """
    overlap = abs(complex(np.vdot(center, near)))
    return 8.0 * (1.0 - overlap) / (step * step)
