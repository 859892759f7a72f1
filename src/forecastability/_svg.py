"""Minimal deterministic SVG line plots for profile tables.

The plot draws one profile from the same floats the table reports, in the
reported units (no recomputation), as one labelled path on labelled axes.
Output is plain SVG 1.1 text with LF line endings, byte-stable for
identical input.
"""

from __future__ import annotations

import math
from html import escape

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 48
_COLOR = "#1f6fb4"


def _step(lo: float, hi: float) -> tuple[float, int]:
    """About a sixth of ``hi - lo``, rounded up to 1, 2, 2.5, 5 or 10 times a
    power of ten: the pair (multiple, exponent)."""
    raw_step = (hi - lo) / 6
    exponent = math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if 10.0 ** exponent * mult >= raw_step:
            return mult, exponent


def _ticks(lo: float, hi: float) -> list[float]:
    """The multiples in ``[lo, hi]`` (``lo < hi``) of the step ``_step`` takes."""
    mult, exponent = _step(lo, hi)
    step = 10.0 ** exponent * mult
    # by index, since adding a step below half an ulp leaves a float as it
    # is; far from 0 neighbouring multiples may round to one float
    last = math.floor(hi / step + 1e-12)
    return sorted({i * step for i in range(math.ceil(lo / step), last + 1)})


def _integer_ticks(lo: int, hi: int) -> list[int]:
    """The integers in ``[lo, hi]`` (``lo < hi``) that are multiples of the
    step ``_ticks`` takes there, in exact integer arithmetic."""
    mult, exponent = _step(lo, hi)
    # the step is num / den exactly; its least integer multiple is num / gcd
    num = int(2 * mult) * 10 ** max(exponent, 0)
    den = 2 * 10 ** max(-exponent, 0)
    spacing = num // math.gcd(num, den)
    return list(range(-(-lo // spacing) * spacing, hi + 1, spacing))


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
        f'font-family="sans-serif" font-size="13">{escape(title, quote=False)}</text>',
    ]
    axis_y0 = sy(y_lo)
    lines.append(
        f'<path d="M {_MARGIN_L:.1f} {_MARGIN_T:.1f} L {_MARGIN_L:.1f} {axis_y0:.1f} '
        f'L {_WIDTH - _MARGIN_R:.1f} {axis_y0:.1f}" stroke="black" fill="none"/>'
    )
    for t in _integer_ticks(int(x_lo), int(x_hi)):
        px = sx(t)
        lines.append(
            f'<line x1="{px:.1f}" y1="{axis_y0:.1f}" x2="{px:.1f}" '
            f'y2="{axis_y0 + 5:.1f}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{px:.1f}" y="{axis_y0 + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t}</text>'
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
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">'
        f'{escape(y_label, quote=False)}</text>'
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
        f'fill="{_COLOR}">{escape(label, quote=False)}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

