"""The benchmark's workloads: seeded inputs, one timed round, and its checks.

Each workload has three steps, all run inside one fresh interpreter:

* `prepare(seed, tiny)` makes the round's inputs; the same seed gives the
  same inputs.
* `run(inputs)` is the timed span.  It calls spacmeter's public functions
  the way a user would and returns an `Outcome`.
* `check(inputs, outcome, seed)` runs after the timed span.  It compares a
  seeded sample of the outputs with the independent reference in
  `reference.py` and tests properties the method must have.  It returns one
  message per failed check.

`tiny` shrinks every workload to a few points for the self-test.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import astuple, dataclass, field, replace

from spacmeter import analytic, fock, metrology, sweep, verify
from spacmeter.audit import AuditRecord
from spacmeter.fock import TruncationInsufficient
from spacmeter.metrology import DegenerateReference, EngineMismatch, StepTooCoarse
from spacmeter.model import Coupling, OrthogonalSelection, PointerParams, SelectionParams

# The package's shared cross-engine budget: |a - b| <= REL max(|a|, |b|) + ABS.
CROSS_REL = 1e-8
CROSS_ABS = 1e-12
# qfi certifies its value only to the 1e-4 relative agreement it demands of
# its derivative and fidelity estimators, so it is held to that here.
FISHER_REL = 1e-4
# Exact algebraic identities, broken only by roundoff.
IDENTITY_REL = 1e-12
# The weak limit is extrapolated to O(1e-8); the package must land on it.
WEAK_LIMIT_REL = 1e-6

TYPED_ERRORS = (
    OrthogonalSelection,
    DegenerateReference,
    TruncationInsufficient,
    StepTooCoarse,
    EngineMismatch,
)
# What a single call may raise on a bad point; anything else is a crash.
CALL_ERRORS = (ValueError, ArithmeticError, RuntimeError)


@dataclass(frozen=True)
class Point:
    phi: float
    delta: float
    r: float
    theta: float
    sigma: float
    strength: float


@dataclass
class Outcome:
    points: int
    attempted: int
    failed: int
    latencies_ms: list[float]
    results: list = field(default_factory=list)
    # what the checks need beyond the outputs; not part of the digest
    state: object = None

    def digest(self) -> str:
        """Fingerprint of every output, to compare rounds of one run."""
        return hashlib.sha256(repr(self.results).encode()).hexdigest()[:16]


def _agree(a: float, b: float, rel: float = CROSS_REL, abs_: float = CROSS_ABS) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _args(p: Point) -> tuple[SelectionParams, PointerParams, Coupling]:
    return (
        SelectionParams(phi=p.phi, delta=p.delta),
        PointerParams(r=p.r, theta=p.theta, sigma=p.sigma),
        Coupling(strength=p.strength),
    )


def _n_max(p: Point) -> int:
    return fock.assemble_final_state(*_args(p)).state.n_max


def _reference(p: Point, n_max: int | None = None):
    # imported here so that scipy, and its own BLAS, stay out of the timed span
    import reference

    return reference.Reference(*astuple(p), (n_max or _n_max(p)) + reference.MARGIN)


def _check_point(
    label: str,
    p: Point,
    n_max: int,
    chi: float | None = None,
    fisher: metrology.FisherReport | None = None,
    shifts: analytic.ShiftResult | None = None,
    transition: complex | None = None,
) -> list[str]:
    """Compare the outputs given for one point with the reference."""
    ref = _reference(p, n_max)
    bad = []
    if chi is not None and not _agree(chi, ref.chi()):
        bad.append(f"{label}: chi {chi!r} vs reference {ref.chi()!r}")
    if fisher is not None and not _agree(fisher.fisher, ref.fisher(), FISHER_REL, 0.0):
        bad.append(f"{label}: fisher {fisher.fisher!r} vs reference {ref.fisher()!r}")
    if shifts is not None:
        dx, dp = ref.shifts()
        if not (_agree(shifts.position_shift, dx) and _agree(shifts.momentum_shift, dp)):
            bad.append(f"{label}: shifts ({shifts.position_shift!r}, {shifts.momentum_shift!r}) vs reference ({dx!r}, {dp!r})")
        transition = shifts.transition if transition is None else transition
    if transition is not None:
        t = ref.transition()
        if not (_agree(transition.real, t.real) and _agree(transition.imag, t.imag)):
            bad.append(f"{label}: transition {transition!r} vs reference {t!r}")
    return bad


def _check_properties(label: str, p: Point, trials: int, chi: float | None) -> list[str]:
    """Trial-free chi and the keep-everything shift g sin(phi) cos(delta)."""
    sel, pointer, coupling = _args(p)
    bad = []
    if chi is not None:
        other = metrology.snr(sel, pointer, coupling, trials + 6).ratio
        if not _agree(chi, other, IDENTITY_REL, 0.0):
            bad.append(f"{label}: chi {chi!r} at {trials} trials vs {other!r} at {trials + 6}")
    base = fock.moments(fock.spac_state(pointer), pointer).position_mean
    plain = fock.nonpostselected_moments(sel, pointer, coupling).position_mean - base
    expected = coupling.coupling_constant(pointer) * math.sin(p.phi) * math.cos(p.delta)
    if not _agree(plain, expected):
        bad.append(f"{label}: keep-everything shift {plain!r} vs g sin(phi) cos(delta) {expected!r}")
    return bad


def _check_fisher_identities(label: str, p: Point, report: metrology.FisherReport, trials: int) -> list[str]:
    bad = []
    keep = math.cos(p.phi / 2.0) ** 2
    if not _agree(report.cramer_rao * report.weighted_fisher * trials, 1.0, IDENTITY_REL, 0.0):
        bad.append(f"{label}: crb * qfi * trials = {report.cramer_rao * report.weighted_fisher * trials!r}")
    if not (_agree(report.weighted_fisher, keep * report.fisher, IDENTITY_REL, 0.0)
            and report.weighted_fisher <= report.fisher):
        bad.append(f"{label}: weighted fisher {report.weighted_fisher!r} vs cos^2(phi/2) fisher {keep * report.fisher!r}")
    return bad


class StrengthSweeps:
    """The fig3a and fig4 presets through sweep.run_sweep with its default pool."""

    PRESETS = ("fig3a", "fig4")
    SAMPLE_PER_PRESET = 2

    def prepare(self, seed: int, tiny: bool):
        specs = [sweep.preset(name) for name in self.PRESETS]
        if tiny:
            specs = [replace(spec, count=3) for spec in specs]
        return specs

    def run(self, specs) -> Outcome:
        start = time.perf_counter()
        results = [sweep.run_sweep(spec)[1] for spec in specs]
        points = sum(len(rows) for rows in results)
        latency = 1e3 * (time.perf_counter() - start) / points
        failed = sum(1 for rows in results for row in rows if row["flag"])
        return Outcome(points, points, failed, [latency], results)

    def check(self, specs, outcome: Outcome, seed: int) -> list[str]:
        rng = random.Random(f"check:{seed}")
        bad = []
        for spec, rows in zip(specs, outcome.results):
            for row in rows:
                if row["flag"]:
                    continue
                if "crb" in spec.outputs:
                    product = float(row["crb[1]"]) * float(row["qfi[1]"]) * spec.trials
                    if not _agree(product, 1.0, IDENTITY_REL, 0.0):
                        bad.append(f"row {row['index']}: crb * qfi * trials = {product!r}")
                if "chi" in spec.outputs and not math.isfinite(float(row["chi[1]"])):
                    bad.append(f"row {row['index']}: chi {row['chi[1]']}")
            kept = [row for row in rows if not row["flag"]]
            for row in rng.sample(kept, min(self.SAMPLE_PER_PRESET, len(kept))):
                p = Point(*(float(row[c]) for c in (
                    "phi[rad]", "delta[rad]", "r[1]", "theta[rad]", "sigma[length]", "strength[1]")))
                label = f"{spec.axis} sweep row {row['index']}"
                n_max = int(row["n_max[1]"])
                sel, pointer, coupling = _args(p)
                chi = float(row["chi[1]"]) if "chi" in spec.outputs else None
                fisher = None
                if "qfi" in spec.outputs:
                    fisher = metrology.qfi(sel, pointer, coupling, spec.trials)
                    if fisher.weighted_fisher != float(row["qfi[1]"]):
                        bad.append(f"{label}: qfi {row['qfi[1]']} vs a fresh call {fisher.weighted_fisher!r}")
                    bad += _check_fisher_identities(label, p, fisher, spec.trials)
                bad += _check_point(label, p, n_max, chi=chi, fisher=fisher,
                                    shifts=analytic.pointer_shifts(sel, pointer, coupling))
                bad += _check_properties(label, p, spec.trials, chi)
        return bad


class VerifyFull:
    """verify.run_verify("full"): the 3,720-point grid plus limit, truncation and audit checks."""

    SAMPLE = 3

    def prepare(self, seed: int, tiny: bool):
        return ("fast", verify.fast_grid()) if tiny else ("full", verify.standard_grid())

    def run(self, inputs) -> Outcome:
        level, grid = inputs
        start = time.perf_counter()
        report = verify.run_verify(level)
        latency = 1e3 * (time.perf_counter() - start) / len(grid)
        results = [(c.name, c.worst, c.passed) for c in report.checks]
        results += [(r.quantity, r.point, r.first_principles, r.oracle) for r in report.records]
        return Outcome(len(grid), len(report.checks), report.failures, [latency], results, report)

    def check(self, inputs, outcome: Outcome, seed: int) -> list[str]:
        level, grid = inputs
        report = outcome.state
        bad = [f"verify check failed: {c.name} (worst/budget {c.worst!r})" for c in report.checks if not c.passed]
        if level == "full" and len(grid) != 3720:
            bad.append(f"verify full grid has {len(grid)} points, not 3720")
        by_point: dict = {}
        for rec in report.records:
            by_point.setdefault(rec.point, []).append(rec)
        for pt, recs in by_point.items():
            bad += self._check_audit(pt, recs)
        rng = random.Random(f"check:{seed}")
        for index in rng.sample(range(len(grid)), self.SAMPLE):
            sel, pointer, coupling = grid[index]
            p = Point(sel.phi, sel.delta, pointer.r, pointer.theta, pointer.sigma, coupling.strength)
            label = f"verify grid point {index}"
            bad += _check_point(label, p, _n_max(p),
                                shifts=analytic.pointer_shifts(sel, pointer, coupling),
                                transition=fock.transition_moment(sel, pointer, coupling))
            bad += _check_properties(label, p, 1, None)
        return bad

    @staticmethod
    def _check_audit(pt, recs: list[AuditRecord]) -> list[str]:
        p = Point(pt.phi, pt.delta, pt.r, pt.theta, pt.sigma, pt.strength)
        ref = _reference(p)
        dx, dp = ref.shifts()
        expected = {"position_shift": dx, "momentum_shift": dp, "inverse_norm_sq": ref.inverse_norm_sq()}
        bad = []
        for rec in recs:
            want = expected[rec.quantity]
            for engine, value in (("closed form", rec.first_principles), ("oracle", rec.oracle)):
                if not _agree(value, want):
                    bad.append(f"audit {rec.quantity} {engine} {value!r} vs reference {want!r} at {pt.label()}")
        return bad


@dataclass(frozen=True)
class Query:
    point: Point
    trials: int


class PointQueries:
    """Seeded single calls, one at a time, at scattered parameter points.

    Each point gets three calls: metrology.snr, metrology.qfi, and
    fock.transition_moment paired with analytic.pointer_shifts.  A point's
    latency is the time of its three calls together.  Their own latencies
    lie an order of magnitude apart, so a median over single calls falls
    in the gap between them and jumps from seed to seed; the traced run
    gives each function's own median.  phi stays away from 0 and pi and delta
    away from pi/2, where the keep-everything reference shift vanishes.
    Strengths are distinct, so no two points share a displacement matrix.

    r and the strength set each call's cutoff, about (r + strength/2 + 6)^2,
    hence its cost and the size of the matrices the displacement cache
    keeps.  So every seed gets the same (r, strength) pairs: r takes the
    midpoints of POINTS equal strata of [0, 21], and the point with the
    k-th r takes the midpoint of strength stratum (STRENGTH_STRIDE k) mod
    POINTS, a fixed scramble that spreads the pairs over the plane.  The
    latency percentiles, the total cost and peak memory then depend on the
    program, not on the draw.  The seed orders the pairs along a
    golden-ratio sequence from a seeded start, so consecutive points jump
    across the r range, and it draws phi, delta and theta by Latin
    hypercube (one value per stratum, strata shuffled) and the trial counts.
    """

    POINTS = 200
    TINY_POINTS = 4
    R_MAX = 21.0
    RANGES = {
        "phi": (math.pi / 12, 3 * math.pi / 4),
        "delta": (0.0, 5 * math.pi / 12),
        "theta": (0.0, 2 * math.pi),
    }
    STRENGTH = (0.02, 3.0)
    STRENGTH_STRIDE = 37
    GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
    MAX_TRIALS = 16
    SAMPLE = 3

    def prepare(self, seed: int, tiny: bool) -> list[Query]:
        rng = random.Random(seed)
        count = self.TINY_POINTS if tiny else self.POINTS
        columns = {}
        for name, (lo, hi) in self.RANGES.items():
            strata = list(range(count))
            rng.shuffle(strata)
            columns[name] = [lo + (hi - lo) * (k + rng.random()) / count for k in strata]
        start = rng.random()
        order = sorted(range(count), key=lambda i: (start + i * self.GOLDEN) % 1.0)
        rank = {i: k for k, i in enumerate(order)}
        lo, hi = self.STRENGTH
        columns["r"] = [self.R_MAX * (rank[i] + 0.5) / count for i in range(count)]
        columns["strength"] = [lo + (hi - lo) * ((self.STRENGTH_STRIDE * rank[i]) % count + 0.5) / count
                               for i in range(count)]
        return [
            Query(
                Point(
                    phi=columns["phi"][i],
                    delta=columns["delta"][i],
                    r=columns["r"][i],
                    theta=columns["theta"][i],
                    sigma=1.0,
                    strength=columns["strength"][i],
                ),
                trials=rng.randint(1, self.MAX_TRIALS),
            )
            for i in range(count)
        ]

    def run(self, queries: list[Query]) -> Outcome:
        latencies, results, failed = [], [], 0
        for q in queries:
            sel, pointer, coupling = _args(q.point)
            calls = (
                lambda: metrology.snr(sel, pointer, coupling, q.trials),
                lambda: metrology.qfi(sel, pointer, coupling, q.trials),
                lambda: (
                    fock.transition_moment(sel, pointer, coupling),
                    analytic.pointer_shifts(sel, pointer, coupling),
                ),
            )
            answers = []
            start = time.perf_counter()
            for call in calls:
                try:
                    answers.append(call())
                except CALL_ERRORS as err:
                    answers.append(err)
            elapsed = time.perf_counter() - start
            errors = sum(isinstance(a, Exception) for a in answers)
            failed += errors
            if not errors:
                latencies.append(1e3 * elapsed)
            results.append(answers)
        return Outcome(len(queries), 3 * len(queries), failed, latencies, results)

    def faults(self) -> tuple[int, int, list[str]]:
        """Inputs that fail today because of program faults: (attempted, failed, names).

        Each tests a property of the method.  A typed package error also
        passes, since it is an honest refusal rather than a wrong number.
        """
        base = Point(phi=1.0, delta=0.0, r=2.0, theta=0.0, sigma=1.0, strength=1.0)
        ref = _reference(base)
        one_photon = _reference(replace(base, r=0.0))
        import reference

        weak = reference.weak_limit_chi(1.0, 0.0, 2.0, 0.0, ref.psi.size)

        def ratio(**change):
            return metrology.snr(*_args(replace(base, **change))).ratio

        cases = (
            ("snr sigma=1e200: sigma cancels from chi",
             lambda: ratio(sigma=1e200), ref.chi(), CROSS_REL),
            ("snr sigma=1e-200: sigma cancels from chi",
             lambda: ratio(sigma=1e-200), ref.chi(), CROSS_REL),
            ("transition_moment r=1e-300: r -> 0 gives the one-photon result",
             lambda: fock.transition_moment(*_args(replace(base, r=1e-300))),
             one_photon.transition(), CROSS_REL),
            ("snr strength=1e-300: chi tends to its weak limit",
             lambda: ratio(strength=1e-300), weak, WEAK_LIMIT_REL),
        )
        names = []
        for name, call, want, rel in cases:
            try:
                got = call()
            except TYPED_ERRORS:
                continue
            except CALL_ERRORS as err:
                names.append(f"{name}: {type(err).__name__}: {err}")
                continue
            got, want = complex(got), complex(want)
            if not (_agree(got.real, want.real, rel) and _agree(got.imag, want.imag, rel)):
                names.append(f"{name}: got {got!r}, want {want!r}")
        return len(cases), len(names), names

    def check(self, queries: list[Query], outcome: Outcome, seed: int) -> list[str]:
        bad = []
        for i, (q, answers) in enumerate(zip(queries, outcome.results)):
            if any(isinstance(a, Exception) for a in answers):
                continue
            snr_report, fisher, (oracle_t, shifts) = answers
            label = f"point {i}"
            if not math.isfinite(snr_report.ratio):
                bad.append(f"{label}: chi {snr_report.ratio!r}")
            bad += _check_fisher_identities(label, q.point, fisher, q.trials)
            closed_t = shifts.transition
            if not (_agree(oracle_t.real, closed_t.real) and _agree(oracle_t.imag, closed_t.imag)):
                bad.append(f"{label}: transition oracle {oracle_t!r} vs closed form {closed_t!r}")
        rng = random.Random(f"check:{seed}")
        for i in rng.sample(range(len(queries)), min(self.SAMPLE, len(queries))):
            answers = outcome.results[i]
            if any(isinstance(a, Exception) for a in answers):
                continue
            q = queries[i]
            snr_report, fisher, (oracle_t, shifts) = answers
            label = f"point {i}"
            bad += _check_point(label, q.point, _n_max(q.point), chi=snr_report.ratio,
                                fisher=fisher, shifts=shifts, transition=oracle_t)
            bad += _check_properties(label, q.point, q.trials, snr_report.ratio)
        return bad


WORKLOADS = {
    "strength-sweeps": StrengthSweeps(),
    "verify-full": VerifyFull(),
    "point-queries": PointQueries(),
}
