"""Minimal self-contained SVG polyline plotter for sweep curves.

One fixed-size line chart per file: labeled axes with min/max ticks, a small
legend, one polyline per curve.  Non-finite samples split a curve rather
than aborting the plot, so flagged sweep rows leave visible gaps.
"""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 16
MARGIN_TOP = 42
MARGIN_BOTTOM = 50


def escape(text: str) -> str:  # xml.sax.saxutils.escape, whose import loads urllib.request, http and email
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(values: tuple[float, ...]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if not math.isfinite(lo) or not math.isfinite(hi):
        return -1.0, 1.0
    if hi == lo:
        pad = abs(lo) if lo != 0.0 else 1.0
        return lo - 0.5 * pad, hi + 0.5 * pad
    return lo, hi


def _text(x, y, size: int, body: str, anchor: str | None = "middle", extra: str = "") -> str:
    """One <text> element with its body escaped; anchor None writes no text-anchor, extra follows the font size."""
    anchor_attr = f'text-anchor="{anchor}" ' if anchor else ""
    return (f'<text x="{x}" y="{y}" {anchor_attr}font-family="sans-serif" '
            f'font-size="{size}"{extra}>{escape(body)}</text>')


def render_curves(
    curves: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render (label, xs, ys) curves to an SVG document string."""
    finite = [(x, y) for _, xs, ys in curves for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH / 2, 24, 15, title),
    ]
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    if not finite:
        parts.append(_text(WIDTH / 2, HEIGHT / 2, 13, "no finite data") + "</svg>")
        return "\n".join(parts)

    finite_x, finite_y = zip(*finite)
    x_lo, x_hi = _span(finite_x)
    y_lo, y_hi = _span(finite_y)

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
        py = MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h
        return px, py

    # frame, axis extent labels and axis labels
    y_mid = MARGIN_TOP + plot_h / 2
    parts += [
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
        _text(MARGIN_LEFT, HEIGHT - 28, 11, f"{x_lo:.4g}"),
        _text(MARGIN_LEFT + plot_w, HEIGHT - 28, 11, f"{x_hi:.4g}"),
        _text(MARGIN_LEFT - 6, MARGIN_TOP + plot_h, 11, f"{y_lo:.4g}", "end"),
        _text(MARGIN_LEFT - 6, MARGIN_TOP + 10, 11, f"{y_hi:.4g}", "end"),
        _text(MARGIN_LEFT + plot_w / 2, HEIGHT - 10, 12, x_label),
        _text(16, y_mid, 12, y_label, extra=f' transform="rotate(-90 16 {y_mid})"'),
    ]

    for idx, (label, xs, ys) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        segments: list[list[str]] = [[]]
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                px, py = to_px(x, y)
                segments[-1].append(f"{px:.2f},{py:.2f}")
            elif segments[-1]:
                segments.append([])
        for seg in segments:
            if len(seg) >= 2:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{" ".join(seg)}"/>'
                )
            elif len(seg) == 1:
                px, py = seg[0].split(",")
                parts.append(f'<circle cx="{px}" cy="{py}" r="2" fill="{color}"/>')
        ly = MARGIN_TOP + 14 + 16 * idx
        lx = MARGIN_LEFT + plot_w - 150
        parts += [
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>',
            _text(lx + 30, ly, 11, label, None),
        ]
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path: str, curves, title: str, x_label: str, y_label: str) -> None:
    with open(path, "w") as handle:
        handle.write(render_curves(curves, title, x_label, y_label))
