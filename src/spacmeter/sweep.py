"""Parameter sweep runner: grids, figure presets, CSV rows, SVG curves.

A sweep varies one axis parameter over a linear range, optionally crossed
with a family of values for a second parameter (one curve per family value).
Each grid point becomes one CSV row: its requested outputs, its truncation
certificate (cutoff and tail mass) and an error flag.  A row's point is a
model.Point, so rows share each distinct selection, pointer and coupling.
Every number in a row is a read of the point's metrology.Reading: the shift
and transition cells both engines' values and their residual, chi, qfi and
crb the record's snr and qfi, so the point's cutoff ladder and each closed
form run once.  Rows are emitted in grid order but evaluated in the order
fock.warmed yields them, one (pointer, strength) key per row, so rows that
share a rung run back to back, not a family apart, bit for bit what single
calls compute.  Floats are written via repr, so identical configs give
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import fock, metrology, svg
from .model import ANGLE_SLACK, Point

AXES = ("phi", "strength", "r")
FAMILY_PARAMS = ("phi", "delta", "r", "theta", "strength")
OUTPUTS = ("dx", "dp", "transition", "chi", "qfi", "crb")

# columns contributed by each requested output, in emission order
_OUTPUT_COLUMNS = {
    "dx": ("dx_closed[length]", "dx_oracle[length]", "dx_residual[length]", "dx_over_g[1]"),
    "dp": ("dp_closed[1/length]", "dp_oracle[1/length]", "dp_residual[1/length]", "dp_over_g[1]"),
    "transition": (
        "transition_closed.re[1]",
        "transition_closed.im[1]",
        "transition_oracle.re[1]",
        "transition_oracle.im[1]",
        "transition_residual[1]",
    ),
    "chi": ("chi[1]",),
    "qfi": ("qfi[1]",),
    "crb": ("crb[1]",),
}

# a point's parameters, in Point's field order, each with its column
_PARAM_COLUMNS = {"phi": "phi[rad]", "delta": "delta[rad]", "r": "r[1]", "theta": "theta[rad]",
                  "sigma": "sigma[length]", "strength": "strength[1]"}

_TAIL_COLUMNS = ("n_max[1]", "tail_mass[1]", "flag")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: axis range, optional curve family, fixed point, outputs."""

    axis: str
    start: float
    stop: float
    count: int
    phi: float = math.pi / 6
    delta: float = math.pi / 6
    r: float = 2.0
    theta: float = math.pi / 6
    sigma: float = 1.0
    strength: float = 1.0
    family: str | None = None
    family_values: tuple[float, ...] = ()
    outputs: tuple[str, ...] = ("dx", "dp")
    trials: int = 1

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}")
        if self.count < 2:
            raise ValueError("count must be at least 2")
        if not self.outputs:
            raise ValueError("at least one output is required")
        for name in self.outputs:
            if name not in OUTPUTS:
                raise ValueError(f"unknown output {name!r}; choose from {OUTPUTS}")
        if self.family is not None:
            if self.family not in FAMILY_PARAMS:
                raise ValueError(f"family must be one of {FAMILY_PARAMS}")
            if self.family == self.axis:
                raise ValueError("family parameter must differ from the sweep axis")
            if not self.family_values:
                raise ValueError("family requires at least one value")
        elif self.family_values:
            raise ValueError("family_values given without a family parameter")
        if self.trials < 1:
            raise ValueError("trials must be a positive count")
        lo, hi = min(self.start, self.stop), max(self.start, self.stop)
        if self.axis == "phi" and not (0.0 <= lo and hi <= math.pi + ANGLE_SLACK):
            raise ValueError("phi range must stay inside [0, pi]")
        if self.axis in ("strength", "r") and lo < 0.0:
            raise ValueError(f"{self.axis} range must be nonnegative")

    def axis_values(self) -> list[float]:
        step = (self.stop - self.start) / (self.count - 1)
        values = [self.start + step * i for i in range(self.count)]
        values[-1] = self.stop  # endpoints exact under float rounding
        return values

    def header(self) -> list[str]:
        cols = ["index", *_PARAM_COLUMNS.values()]
        for name in self.outputs:
            cols.extend(_OUTPUT_COLUMNS[name])
        cols.extend(_TAIL_COLUMNS)
        return cols


def _fmt(value: float) -> str:
    return repr(float(value))


def _cells(row: dict[str, str], spec: SweepSpec, name: str, *values) -> None:
    """Writes a requested output's values into its _OUTPUT_COLUMNS, in order; a None leaves its cell empty."""
    if name in spec.outputs:
        row.update((col, _fmt(value)) for col, value in zip(_OUTPUT_COLUMNS[name], values) if value is not None)


def _evaluate(spec: SweepSpec, index: int, point: Point) -> dict[str, str]:
    row = {"index": str(index), "flag": ""}
    row.update(zip(_PARAM_COLUMNS.values(), map(_fmt, point)))
    try:
        sel, pointer, coupling = point.split()
        reading = metrology.Reading(sel, pointer, coupling)
        row["n_max[1]"] = str(reading.bundle.n_max)
        row["tail_mass[1]"] = _fmt(reading.bundle.tail_mass)

        # shift cells write residuals and never raise on a mismatch
        g = coupling.coupling_constant(pointer)
        if "dx" in spec.outputs:
            dx, oracle_dx, _ = reading.position_shift
            _cells(row, spec, "dx", dx, oracle_dx, abs(dx - oracle_dx), dx / g if g > 0.0 else None)
        if "dp" in spec.outputs:
            # momentum over g is measured in its natural unit g / sigma^2
            dp, oracle_dp, _ = reading.momentum_shift
            _cells(row, spec, "dp", dp, oracle_dp, abs(dp - oracle_dp),
                   dp * pointer.sigma ** 2 / g if g > 0.0 else None)
        if "transition" in spec.outputs:
            t, oracle_t, _ = reading.transition
            _cells(row, spec, "transition", t.real, t.imag, oracle_t.real, oracle_t.imag, abs(t - oracle_t))
        if "chi" in spec.outputs:
            _cells(row, spec, "chi", reading.snr(spec.trials).ratio)
        if "qfi" in spec.outputs or "crb" in spec.outputs:
            report = reading.qfi(spec.trials)
            _cells(row, spec, "qfi", report.weighted_fisher)
            _cells(row, spec, "crb", report.cramer_rao)
    except (ValueError, ArithmeticError, RuntimeError) as err:
        row["flag"] = type(err).__name__
    return row


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[dict[str, str]]]:
    """Evaluate the grid; returns (header, rows) with rows in grid order."""
    jobs: list[Point] = []
    fixed = Point(*(getattr(spec, name) for name in Point._fields))
    families = list(spec.family_values) if spec.family else [None]
    for fam_val in families:
        family = fixed if fam_val is None else fixed._replace(**{spec.family: fam_val})
        jobs.extend(family._replace(**{spec.axis: axis_val}) for axis_val in spec.axis_values())
    rows: list[dict[str, str]] = [{}] * len(jobs)
    for i in fock.warmed(map(_rung_key, jobs)):
        rows[i] = _evaluate(spec, i, jobs[i])
    return spec.header(), rows


def _rung_key(point: Point):
    """The (pointer, strength) key fock caches a row's rung under, or None for an invalid point."""
    try:
        _, pointer, coupling = point.split()
    except ValueError:
        return None
    return pointer, coupling.strength


def write_csv(path: str, header: list[str], rows: list[dict[str, str]]) -> None:
    """Single-writer CSV emission in row order; no quoting is ever needed."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row.get(col, "") for col in header) + "\n")


def write_plot(path: str, spec: SweepSpec, rows: list[dict[str, str]]) -> None:
    """Plot the first requested output against the axis, one curve per family."""
    y_col = _OUTPUT_COLUMNS[spec.outputs[0]][0]
    axis_col = _PARAM_COLUMNS[spec.axis]
    count = spec.count
    curves = []
    families = list(spec.family_values) if spec.family else [None]
    for idx, fam_val in enumerate(families):
        block = rows[idx * count : (idx + 1) * count]
        xs = [float(r[axis_col]) for r in block]
        ys = [float(r[y_col]) if r.get(y_col, "") else math.nan for r in block]
        label = f"{spec.family}={fam_val:.6g}" if fam_val is not None else y_col
        curves.append((label, xs, ys))
    svg.write_svg(path, curves, f"{y_col} vs {spec.axis}", spec.axis, y_col)


PRESETS: dict[str, SweepSpec] = {
    # conditioned shifts between the weak-value curve and the strong plateau
    "fig1": SweepSpec(
        axis="phi",
        start=0.0,
        stop=math.pi,
        count=201,
        delta=math.pi / 6,
        r=2.0,
        theta=math.pi / 6,
        family="strength",
        family_values=(0.01, 0.5, 1.0, 2.0, 5.0, 20.0),
        outputs=("dx", "dp", "transition"),
    ),
    # SNR ratio vs strength for nearly orthogonal selections
    "fig3a": SweepSpec(
        axis="strength",
        start=0.05,
        stop=1.0,
        count=201,
        delta=5 * math.pi / 12,
        theta=math.pi / 2,
        r=5.0,
        family="phi",
        family_values=(math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3),
        outputs=("chi",),
    ),
    # SNR ratio vs pointer amplitude at fixed strength
    "fig3b": SweepSpec(
        axis="r",
        start=0.0,
        stop=10.0,
        count=201,
        delta=5 * math.pi / 12,
        theta=math.pi / 2,
        strength=0.3,
        family="phi",
        family_values=(math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3),
        outputs=("chi",),
    ),
    # selection-weighted Fisher information and its estimation bound
    "fig4": SweepSpec(
        axis="strength",
        start=0.01,
        stop=2.0,
        count=201,
        delta=math.pi / 6,
        r=2.0,
        theta=math.pi / 6,
        family="phi",
        family_values=(math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3),
        outputs=("qfi", "crb"),
        trials=1,
    ),
    # Fisher information vs pointer amplitude
    "fig5": SweepSpec(
        axis="r",
        start=0.0,
        stop=5.0,
        count=201,
        phi=math.pi / 6,
        delta=math.pi / 6,
        theta=math.pi / 6,
        family="strength",
        family_values=(0.1, 0.5, 1.0, 2.0),
        outputs=("qfi",),
    ),
}


def preset(name: str) -> SweepSpec:
    try:
        return replace(PRESETS[name])
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
