"""Minimal deterministic SVG line plots for profile tables.

The plot draws one profile from the same floats the table reports, in the
reported units (no recomputation), as one labelled path on labelled axes.
Output is plain SVG 1.1 text with LF line endings, byte-stable for
identical input.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 48
_COLOR = "#1f6fb4"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / 6  # about six ticks per axis
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw_step:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def render_profile_svg(
    horizons: list[int], label: str, values: list[float], y_label: str, title: str
) -> str:
    """Render one labelled profile (NaN entries break the line) to SVG text."""
    finite = [v for v in values if not math.isnan(v)]
    y_lo = min(0.0, min(finite)) if finite else 0.0
    y_hi = max(finite) if finite else 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi += 0.05 * (y_hi - y_lo)
    x_lo, x_hi = float(min(horizons)), float(max(horizons))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(title)}</text>',
    ]
    axis_y0 = sy(y_lo)
    lines.append(
        f'<path d="M {_MARGIN_L:.1f} {_MARGIN_T:.1f} L {_MARGIN_L:.1f} {axis_y0:.1f} '
        f'L {_WIDTH - _MARGIN_R:.1f} {axis_y0:.1f}" stroke="black" fill="none"/>'
    )
    x_tick_vals = [t for t in _ticks(x_lo, x_hi) if float(t).is_integer()]
    for t in x_tick_vals:
        px = sx(t)
        lines.append(
            f'<line x1="{px:.1f}" y1="{axis_y0:.1f}" x2="{px:.1f}" '
            f'y2="{axis_y0 + 5:.1f}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{px:.1f}" y="{axis_y0 + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{int(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        lines.append(
            f'<line x1="{_MARGIN_L - 5:.1f}" y1="{py:.1f}" x2="{_MARGIN_L:.1f}" '
            f'y2="{py:.1f}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_L - 8:.1f}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    lines.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">horizon</text>'
    )
    lines.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{_escape(y_label)}</text>'
    )
    d_parts: list[str] = []
    pen_down = False
    for h, v in zip(horizons, values):
        if math.isnan(v):
            pen_down = False
            continue
        d_parts.append(f"{'L' if pen_down else 'M'} {sx(h):.2f} {sy(v):.2f}")
        pen_down = True
    if d_parts:
        lines.append(
            f'<path d="{" ".join(d_parts)}" stroke="{_COLOR}" '
            f'stroke-width="1.5" fill="none"/>'
        )
    lines.append(
        f'<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 16}" '
        f'text-anchor="end" font-family="sans-serif" font-size="11" '
        f'fill="{_COLOR}">{_escape(label)}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
