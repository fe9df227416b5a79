"""Cross-engine verification suites and the formula audit report.

run_verify drives every authoritative consistency check the package makes:
closed forms against the matrix oracle over a parameter grid, the weak and
strong coupling limits, truncation health (cutoff doubling, unitarity,
norms, canonical commutator), and Fisher estimator agreement.  It also
emits the transcription audit table; by policy those discrepancies are
reported but never counted as failures, since they document the source
text rather than this package.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import analytic, audit, fock, metrology
from .metrology import CROSS_ABS, CROSS_REL
from .model import (
    Coupling,
    PointerParams,
    SelectionParams,
    strong_conditional_value,
    weak_value,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float     # largest tolerance-normalized deviation seen (<= 1 passes)
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    level: str
    checks: list[CheckResult]
    records: list[audit.AuditRecord]
    elapsed: float

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = [f"verify level={self.level}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            out.append(f"  [{mark}] {c.name:<46} worst/budget {c.worst:10.3e}")
        out.append("")
        out.append("transcription audit (informational, never fatal):")
        out.extend("  " + line for line in audit.format_table(self.records))
        out.append("")
        out.append(
            f"{self.failures} failure(s) in {len(self.checks)} checks, {self.elapsed:.1f}s"
        )
        return out


def _ratio(diff: float, budget: float) -> float:
    return diff / budget if budget > 0.0 else math.inf


def _cross_ratio(closed: float, oracle: float) -> float:
    return _ratio(abs(closed - oracle), CROSS_REL * max(abs(closed), abs(oracle)) + CROSS_ABS)


def _grid(strengths, phis, deltas, radii) -> list[tuple[SelectionParams, PointerParams, Coupling]]:
    return [
        (
            SelectionParams(phi=float(phi), delta=delta),
            PointerParams(r=r, theta=math.pi / 6),
            Coupling(strength=strength),
        )
        for strength in strengths
        for phi in phis
        for delta in deltas
        for r in radii
    ]


def standard_grid() -> list[tuple[SelectionParams, PointerParams, Coupling]]:
    """The dense comparison grid: 31 strengths x 10 phi x 3 delta x 4 r."""
    return _grid(
        [round(0.1 * k, 10) for k in range(31)],
        np.linspace(0.05 * math.pi, 0.95 * math.pi, 10),
        (0.0, math.pi / 6, 5 * math.pi / 12),
        (0.0, 1.0, 2.0, 5.0),
    )


def fast_grid() -> list[tuple[SelectionParams, PointerParams, Coupling]]:
    return _grid(
        (0.0, 0.3, 1.0, 2.5),
        (math.pi / 12, math.pi / 3, 0.6 * math.pi),
        (0.0, 5 * math.pi / 12),
        (0.0, 2.0),
    )


def _cross_engine_checks(points) -> list[CheckResult]:
    worst: dict[str, float] = {}
    for sel, pointer, coupling in points:
        closed = analytic.pointer_shifts(sel, pointer, coupling)
        bundle = fock.branch_bundle(sel, pointer, coupling)
        o_dx, o_dp = bundle.kept_shift()
        o_t, c_t = bundle.transition(), closed.transition
        expected = coupling.coupling_constant(pointer) * strong_conditional_value(sel)
        ratios = {
            "position shift": _cross_ratio(closed.position_shift, o_dx),
            "momentum shift": _cross_ratio(closed.momentum_shift, o_dp),
            "transition value": max(
                _cross_ratio(c_t.real, o_t.real), _cross_ratio(c_t.imag, o_t.imag)
            ),
            "inverse norm": _cross_ratio(closed.inverse_norm_sq, bundle.kept.norm_sq / 2.0),
            "unconditioned shift": _ratio(abs(bundle.unconditioned_shift() - expected), 1e-10),
        }
        for name, value in ratios.items():
            worst[name] = max(worst.get(name, 0.0), value)
    return [
        CheckResult(f"cross-engine {name} on grid", value, value <= 1.0)
        for name, value in worst.items()
    ]


def _limit_checks() -> list[CheckResult]:
    angle_grid = [
        (phi, delta)
        for phi in (math.pi / 12, math.pi / 6, math.pi / 3, math.pi / 2)
        for delta in (0.0, math.pi / 6, math.pi / 2)
    ]
    radii = (0.0, 2.0)
    worst_weak = 0.0
    worst_strong_t = 0.0
    worst_strong_x = 0.0
    worst_strong_p = 0.0
    weak_coupling = Coupling(strength=1e-4)
    strong_coupling = Coupling(strength=20.0)
    for phi, delta in angle_grid:
        sel = SelectionParams(phi=phi, delta=delta)
        for r in radii:
            pointer = PointerParams(r=r, theta=math.pi / 6)
            t_weak = analytic.transition_value(sel, pointer, weak_coupling)
            worst_weak = max(worst_weak, _ratio(abs(t_weak - weak_value(sel)), 1e-3))

            t_strong = analytic.transition_value(sel, pointer, strong_coupling)
            target = strong_conditional_value(sel)
            worst_strong_t = max(worst_strong_t, _ratio(abs(t_strong - target), 1e-8))
            shifts = analytic.pointer_shifts(sel, pointer, strong_coupling)
            g = strong_coupling.coupling_constant(pointer)
            worst_strong_x = max(
                worst_strong_x, _ratio(abs(shifts.position_shift - g * target), 1e-6 * g)
            )
            worst_strong_p = max(worst_strong_p, _ratio(abs(shifts.momentum_shift), 1e-6))
    return [
        CheckResult("weak limit: transition -> weak value", worst_weak, worst_weak <= 1.0),
        CheckResult("strong limit: transition -> sin(phi)cos(delta)", worst_strong_t, worst_strong_t <= 1.0),
        CheckResult("strong limit: position shift -> g sin(phi)cos(delta)", worst_strong_x, worst_strong_x <= 1.0),
        CheckResult("strong limit: momentum shift -> 0", worst_strong_p, worst_strong_p <= 1.0),
    ]


def _truncation_checks() -> list[CheckResult]:
    sel = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
    pointer = PointerParams(r=2.0, theta=math.pi / 6)
    coupling = Coupling(strength=1.0)
    out = []

    bundle = fock.branch_bundle(sel, pointer, coupling)
    dx, _ = bundle.kept_shift()
    doubled_pol = fock.TruncationPolicy(initial_dim=2 * bundle.n_max)
    dx2, _ = fock.branch_bundle(sel, pointer, coupling, doubled_pol).kept_shift()
    q = _ratio(abs(dx - dx2), 1e-10 * max(1.0, abs(dx)))
    out.append(CheckResult("truncation: cutoff doubling leaves shift fixed", q, q <= 1.0))

    op = fock.displacement_operator(coupling.strength / 2.0, bundle.n_max)
    defect = op.unitarity_defect()
    q = _ratio(defect, 1e-10)
    out.append(CheckResult("truncation: displacement unitary on safe block", q, q <= 1.0))

    kept = bundle.kept.state.amplitudes
    norm_err = max(
        abs(float(np.vdot(bundle.psi, bundle.psi).real) - 1.0),
        abs(float(np.vdot(kept, kept).real) - 1.0),
    )
    q = _ratio(norm_err, 1e-10)
    out.append(CheckResult("truncation: state norms hold", q, q <= 1.0))

    resid = max(
        fock.commutator_residual(bundle.psi, pointer),
        fock.commutator_residual(kept, pointer),
    )
    q = _ratio(resid, 1e-8)
    out.append(CheckResult("truncation: canonical commutator", q, q <= 1.0))
    return out


def _estimator_check() -> CheckResult:
    sel = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
    pointer = PointerParams(r=2.0, theta=math.pi / 6)
    try:
        report = metrology.qfi(sel, pointer, Coupling(strength=1.0))
    except (metrology.StepTooCoarse, ArithmeticError, fock.TruncationInsufficient):
        return CheckResult("fisher estimators agree at default step", math.inf, False)
    refined = report.step < metrology.FISHER_STEP
    return CheckResult(
        "fisher estimators agree at default step", 1.0 if refined else 0.0, True
    )


def run_verify(level: str = "fast") -> VerifyReport:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    start = time.perf_counter()
    points = standard_grid() if level == "full" else fast_grid()
    checks = []
    checks.extend(_cross_engine_checks(points))
    checks.extend(_limit_checks())
    checks.extend(_truncation_checks())
    checks.append(_estimator_check())
    records = audit.run_audit()
    return VerifyReport(
        level=level,
        checks=checks,
        records=records,
        elapsed=time.perf_counter() - start,
    )
