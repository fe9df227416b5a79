"""Side-by-side audit of transcribed closed forms against both engines.

The source text this package was built from prints several closed-form
results whose algebra does not reproduce the model it defines.  This module
keeps those expressions exactly as printed (the cross-term kernel, the
inverse normalization and the shifts built from them) and tabulates them
against the first-principles closed forms and the matrix oracle, so the
disagreement is documented data rather than silent behavior.  `analytic`
never uses them.  Discrepancies recorded here are informational; they never
gate anything.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import analytic, metrology
from .model import Coupling, PointerParams, SelectionParams, weak_value


@dataclass(frozen=True)
class AuditPoint:
    phi: float
    delta: float
    r: float
    theta: float
    sigma: float
    strength: float

    def label(self) -> str:
        return (
            f"phi={self.phi:.6g} delta={self.delta:.6g} r={self.r:.6g} "
            f"theta={self.theta:.6g} sigma={self.sigma:.6g} strength={self.strength:.6g}"
        )


@dataclass(frozen=True)
class AuditRecord:
    point: AuditPoint
    quantity: str
    transcribed: float
    first_principles: float
    oracle: float

    @property
    def discrepancy(self) -> float:
        """Transcription error: |transcribed - oracle|, recorded however large."""
        return abs(self.transcribed - self.oracle)

    @property
    def engine_gap(self) -> float:
        return abs(self.first_principles - self.oracle)


def transcribed_shift_kernel(pointer: PointerParams, strength: float) -> complex:
    """Cross-term kernel exactly as printed.

    It differs from the kernel-exact combination 2 (K1(G) + (G/2) K0(G)) / gamma^2
    by a missing -G^3 term in the bracket.  `strength` is a plain signed float
    because the transcribed shifts evaluate it at both +G and -G.
    """
    alpha = pointer.alpha
    mod2 = abs(alpha) ** 2
    g2inv = 1.0 + mod2
    g = float(strength)
    if abs(g) > analytic.FLUSH_SHIFT:
        return 0j
    bracket = (
        2.0 * alpha * (2.0 + mod2)
        + 3.0 * g * g2inv
        - 2.0 * alpha * alpha * g
        + g * g * (alpha.conjugate() - 3.0 * alpha)
    )
    return cmath.exp(-2.0j * g * alpha.imag) * bracket * math.exp(-g * g / 2.0)


def transcribed_inverse_norm_sq(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> float:
    """Inverse squared normalization exactly as printed in the source text.

    The bracket keeps the printed 2i Im(alpha) term, which the kernel-true
    form (analytic.pointer_shifts(...).inverse_norm_sq) replaces by
    2i strength Im(alpha).
    """
    a = weak_value(sel)
    alpha = pointer.alpha
    g = coupling.strength
    g2 = pointer.norm_factor_sq
    g2inv = 1.0 + abs(alpha) ** 2
    cross = (
        (1.0 + a).conjugate()
        * (1.0 - a)
        * (g2inv - g * g + 2j * alpha.imag)
        * cmath.exp(2j * g * alpha.imag)
    )
    return 1.0 + abs(a) ** 2 + g2 * math.exp(-g * g / 2.0) * cross.real


def transcribed_shifts(
    sel: SelectionParams, pointer: PointerParams, coupling: Coupling
) -> tuple[float, float]:
    """Conditioned position/momentum shifts exactly as printed.

    Uses the printed inverse normalization and the printed displacement
    kernel; both carry transcription defects, so these values drift from the
    oracle (linearly in strength for the momentum shift) by construction.
    """
    a = weak_value(sel)
    alpha = pointer.alpha
    g = coupling.strength
    sigma = pointer.sigma
    g2 = pointer.norm_factor_sq
    g2inv = 1.0 + abs(alpha) ** 2
    s = abs(alpha) ** 2
    beta_sq = 1.0 / transcribed_inverse_norm_sq(sel, pointer, coupling)
    f_fore = transcribed_shift_kernel(pointer, g)
    f_back = transcribed_shift_kernel(pointer, -g)
    plus = (1.0 + a).conjugate() * (1.0 - a)
    minus = (1.0 - a).conjugate() * (1.0 + a)
    re_br = (
        abs(1.0 + a) ** 2 * (g * g2inv + 4.0 * alpha.real + 2.0 * alpha.real * s)
        + abs(1.0 - a) ** 2 * (-g * g2inv + 4.0 * alpha.real + 2.0 * alpha.real * s)
        + (plus * f_back).real
        + (minus * f_fore).real
    )
    dx = sigma * beta_sq * g2 * re_br - 2.0 * sigma * g2 * (2.0 + s) * alpha.real
    im_br = (
        abs(1.0 + a) ** 2 * (g * g2inv + 4.0 * alpha.imag + 2.0 * alpha.imag * s)
        + abs(1.0 - a) ** 2 * (-g * g2inv + 4.0 * alpha.imag + 2.0 * alpha.imag * s)
        + (plus * f_back).imag
        + (minus * f_fore).imag
    )
    dp = (
        (1.0 / (2.0 * sigma)) * beta_sq * g2 * im_br
        - (1.0 / sigma) * g2 * (2.0 + s) * alpha.imag
    )
    return dx, dp


# Default audit geometry.  The zero-strength rows sit at theta = pi/2, where
# the pointer position mean vanishes and even the transcribed position shift
# is exactly zero; at generic theta the transcribed form is already offset at
# zero strength by its normalization defect.
DEFAULT_POINTS: tuple[AuditPoint, ...] = (
    AuditPoint(math.pi / 12, 5 * math.pi / 12, 5.0, math.pi / 2, 1.0, 0.0),
    AuditPoint(math.pi / 12, 5 * math.pi / 12, 5.0, math.pi / 2, 1.0, 0.3),
    AuditPoint(math.pi / 3, math.pi / 6, 2.0, math.pi / 6, 1.0, 0.9),
    AuditPoint(math.pi / 3, math.pi / 6, 2.0, math.pi / 6, 1.0, 2.0),
    AuditPoint(math.pi / 3, math.pi / 6, 2.0, math.pi / 6, 1.0, 8.0),
)


def run_audit() -> list[AuditRecord]:
    """Evaluate transcribed, first-principles, and oracle values per default point."""
    records: list[AuditRecord] = []
    for pt in DEFAULT_POINTS:
        sel = SelectionParams(phi=pt.phi, delta=pt.delta)
        pointer = PointerParams(r=pt.r, theta=pt.theta, sigma=pt.sigma)
        coupling = Coupling(strength=pt.strength)

        t_dx, t_dp = transcribed_shifts(sel, pointer, coupling)
        reading = metrology.Reading(sel, pointer, coupling)
        for quantity, transcribed, pair in (
            ("position_shift", t_dx, reading.position_shift),
            ("momentum_shift", t_dp, reading.momentum_shift),
            ("inverse_norm_sq", transcribed_inverse_norm_sq(sel, pointer, coupling), reading.half_norm),
        ):
            records.append(AuditRecord(pt, quantity, transcribed, pair.closed, pair.oracle))
    return records


def format_table(records: list[AuditRecord]) -> list[str]:
    """Fixed-width text table, one line per record."""
    lines = [
        f"{'quantity':<16} {'transcribed':>14} {'closed-form':>14} "
        f"{'oracle':>14} {'discrepancy':>12}  point",
        "-" * 100,
    ]
    for rec in records:
        lines.append(
            f"{rec.quantity:<16} {rec.transcribed:>14.6e} {rec.first_principles:>14.6e} "
            f"{rec.oracle:>14.6e} {rec.discrepancy:>12.3e}  {rec.point.label()}"
        )
    return lines
