"""Cross-engine verification suites and the formula audit report.

run_verify drives every authoritative consistency check the package makes:
each two-engine quantity of a grid point's metrology.Reading, by the
record's own ratio, the weak and strong coupling limits, truncation health
(cutoff doubling, for the shift and for the displaced branches, unitarity,
norms, canonical commutator), and the fidelity estimator of the Fisher
information against its exact value.  The grid's points run in the order
fock.warmed yields them, so each rung's forms are built once.  Each check
keeps its worst tolerance-normalized ratio and the first parameter point in
that order where it was seen, and the report prints both.  It also emits
the transcription audit table, whose discrepancies document the source text
and so are reported but never counted as failures.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import analytic, audit, fock, metrology
from .model import (
    Coupling,
    PointerParams,
    SelectionParams,
    strong_conditional_value,
    weak_value,
)

ESTIMATOR_AGREEMENT = 1e-4  # relative gap, fidelity estimator vs exact Fisher information

FAST_STRENGTHS = (0.0, 0.3, 1.0, 2.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float     # largest tolerance-normalized deviation seen (<= 1 passes)
    passed: bool
    point: str = ""  # audit label of the parameter point where `worst` was seen


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
            at = f" at {c.point}" if c.point else ""
            out.append(f"  [{mark}] {c.name:<46} worst/budget {c.worst:10.3e}{at}")
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


def _grid(strengths, phis, deltas, radii) -> list[tuple[SelectionParams, PointerParams, Coupling]]:
    """Every (strength, phi, delta, r) point, each distinct parameter built once, so caches match by identity."""
    couplings = [Coupling(strength=strength) for strength in strengths]
    sels = [SelectionParams(phi=float(phi), delta=delta) for phi in phis for delta in deltas]
    pointers = [PointerParams(r=r, theta=math.pi / 6) for r in radii]
    return [(sel, pointer, coupling) for coupling, sel, pointer in itertools.product(couplings, sels, pointers)]


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
        FAST_STRENGTHS,
        (math.pi / 12, math.pi / 3, 0.6 * math.pi),
        (0.0, 5 * math.pi / 12),
        (0.0, 2.0),
    )


def _label(sel: SelectionParams, pointer: PointerParams, coupling: Coupling) -> str:
    return audit.AuditPoint(
        sel.phi, sel.delta, pointer.r, pointer.theta, pointer.sigma, coupling.strength
    ).label()


def _worst_of(rows, label: str = "{}", where=str) -> list[CheckResult]:
    """One check per name in the rows' ratio dicts, holding its largest ratio and where it was.

    rows are (point, ratio dict) pairs, and where(point) is the label of a
    held point, so only those are formatted.  A NaN ratio is the worst there
    is: the first one is held, and its check fails.
    """
    worst: dict[str, tuple] = {}
    for point, ratios in rows:
        for name, value in ratios.items():
            held = worst.setdefault(name, (0.0, point))
            if not math.isnan(held[0]) and not value <= held[0]:
                worst[name] = (value, point)
    return [
        CheckResult(label.format(name), value, value <= 1.0, where(point))
        for name, (value, point) in worst.items()
    ]


def _cross_engine_checks(points) -> list[CheckResult]:
    order = fock.warmed((pointer, coupling.strength) for _, pointer, coupling in points)
    rows = ((i, {name: pair.ratio for name, pair in metrology.Reading(*points[i]).pairs().items()}) for i in order)
    return _worst_of(rows, "cross-engine {} on grid", lambda i: _label(*points[i]))


def _limit_checks() -> list[CheckResult]:
    weak_coupling = Coupling(strength=1e-4)
    strong_coupling = Coupling(strength=20.0)
    rows = []
    for phi in (math.pi / 12, math.pi / 6, math.pi / 3, math.pi / 2):
        for delta in (0.0, math.pi / 6, math.pi / 2):
            sel = SelectionParams(phi=phi, delta=delta)
            target = strong_conditional_value(sel)
            for r in (0.0, 2.0):
                pointer = PointerParams(r=r, theta=math.pi / 6)
                t_weak = analytic.transition_value(sel, pointer, weak_coupling)
                shifts = analytic.pointer_shifts(sel, pointer, strong_coupling)
                g = strong_coupling.coupling_constant(pointer)
                rows.append((_label(sel, pointer, weak_coupling), {
                    "weak limit: transition -> weak value":
                        _ratio(abs(t_weak - weak_value(sel)), 1e-3),
                }))
                rows.append((_label(sel, pointer, strong_coupling), {
                    "strong limit: transition -> sin(phi)cos(delta)":
                        _ratio(abs(shifts.transition - target), 1e-8),
                    "strong limit: position shift -> g sin(phi)cos(delta)":
                        _ratio(abs(shifts.position_shift - g * target), 1e-6 * g),
                    "strong limit: momentum shift -> 0": _ratio(abs(shifts.momentum_shift), 1e-6),
                }))
    return _worst_of(rows)


def _truncation_checks() -> list[CheckResult]:
    sel = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
    pointer = PointerParams(r=2.0, theta=math.pi / 6)
    coupling = Coupling(strength=1.0)
    bundle = fock.branch_bundle(sel, pointer, coupling)
    dx, _ = bundle.kept_shift
    doubled_pol = fock.TruncationPolicy(initial_dim=2 * bundle.n_max)
    doubled = fock.branch_bundle(sel, pointer, coupling, doubled_pol)
    dx2, _ = doubled.kept_shift
    # every gate lets at most TAIL_TOL of mass past the cutoff, so no
    # amplitude below it may move by more than sqrt(TAIL_TOL) when it doubles
    moved = max(
        float(np.linalg.norm(v - w[: bundle.n_max]))
        for v, w in ((bundle.up, doubled.up), (bundle.down, doubled.down))
    )
    op = fock.displacement_operator(coupling.strength / 2.0, bundle.n_max)
    kept = bundle.kept.state.amplitudes
    norm_err = max(abs(float(np.vdot(v, v).real) - 1.0) for v in (bundle.psi, kept))
    resid = max(fock.commutator_residual(v) for v in (bundle.psi, kept))
    return _worst_of([(_label(sel, pointer, coupling), {
        "cutoff doubling leaves shift fixed": _ratio(abs(dx - dx2), 1e-10 * max(1.0, abs(dx))),
        "cutoff doubling leaves D(+-g/2) psi fixed": _ratio(moved, math.sqrt(fock.TAIL_TOL)),
        "displacement unitary on safe block": _ratio(op.unitarity_defect(), 1e-10),
        "state norms hold": _ratio(norm_err, 1e-10),
        "canonical commutator": _ratio(resid, 1e-8),
    })], "truncation: {}")


def _estimator_check() -> list[CheckResult]:
    """The fidelity estimator of the Fisher information against its exact value.

    8 (1 - |<B(g)|B(g + eps)>|) / eps^2 uses no derivative identity; the
    Richardson combination of eps and eps / 2 cancels its linear-in-eps bias.
    """
    sel = SelectionParams(phi=math.pi / 6, delta=math.pi / 6)
    pointer = PointerParams(r=2.0, theta=math.pi / 6)
    step, rows = 1e-4, []
    for strength in FAST_STRENGTHS[1:]:
        coupling = Coupling(strength=strength)
        bundle = fock.branch_bundle(sel, pointer, coupling)
        center, fidelity = bundle.kept.state.amplitudes, []
        for eps in (step, step / 2.0):
            near, _ = fock.assemble_at_cutoff(bundle, strength + eps)
            fidelity.append(metrology.fisher_from_states(center, near, eps))
        exact = bundle.fisher()
        gap = abs(2.0 * fidelity[1] - fidelity[0] - exact)
        rows.append((_label(sel, pointer, coupling), {
            "fisher fidelity estimator vs exact derivative": _ratio(gap, ESTIMATOR_AGREEMENT * exact),
        }))
    return _worst_of(rows)


def run_verify(level: str = "fast") -> VerifyReport:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    start = time.perf_counter()
    points = standard_grid() if level == "full" else fast_grid()
    checks = []
    checks.extend(_cross_engine_checks(points))
    checks.extend(_limit_checks())
    checks.extend(_truncation_checks())
    checks.extend(_estimator_check())
    records = audit.run_audit()
    return VerifyReport(
        level=level,
        checks=checks,
        records=records,
        elapsed=time.perf_counter() - start,
    )
