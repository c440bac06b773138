"""Minimal deterministic SVG line plots for spectrum CSVs.

Fixed 800x600 view box, 5% margins, linear axes theta in [0, 1] and
dimension in [0, 1].  Output bytes depend only on the input series.
"""

from __future__ import annotations

import re
from typing import Sequence

__all__ = ["render_plot"]

WIDTH = 800
HEIGHT = 600
MARGIN_X = WIDTH * 0.05
MARGIN_Y = HEIGHT * 0.05

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def _x(theta: float) -> float:
    return MARGIN_X + theta * (WIDTH - 2 * MARGIN_X)


def _y(value: float) -> float:
    v = min(max(value, 0.0), 1.0)
    return HEIGHT - MARGIN_Y - v * (HEIGHT - 2 * MARGIN_Y)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_plot(series: Sequence[tuple[str, Sequence[tuple[float, float]]]]) -> str:
    """One polyline per (label, [(theta, value), ...]) series."""
    if not series:
        raise ValueError("nothing to plot")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    x0, x1 = _fmt(_x(0.0)), _fmt(_x(1.0))
    y0, y1 = _fmt(_y(0.0)), _fmt(_y(1.0))
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>'
    )
    for i in range(6):
        t = i / 5.0
        xt, yt = _fmt(_x(t)), _fmt(_y(t))
        parts.append(
            f'<line x1="{xt}" y1="{y0}" x2="{xt}" y2="{_fmt(_y(0.0) + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xt}" y="{_fmt(_y(0.0) + 20)}" font-size="12" '
            f'text-anchor="middle">{t:.1f}</text>'
        )
        parts.append(
            f'<line x1="{x0}" y1="{yt}" x2="{_fmt(_x(0.0) - 5)}" y2="{yt}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(_x(0.0) - 8)}" y="{yt}" font-size="12" '
            f'text-anchor="end">{t:.1f}</text>'
        )
    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(_x(t))},{_fmt(_y(v))}" for t, v in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = _fmt(MARGIN_Y + 16 * (i + 1))
        lx = _fmt(WIDTH - MARGIN_X - 180)
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{_fmt(float(lx) + 24)}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        # escaped by hand (xml.sax.saxutils would import urllib.request);
        # U+FFFD stands for what XML 1.0 cannot carry, lone surrogates too
        text = re.sub(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", "\ufffd", label)
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{_fmt(float(lx) + 30)}" y="{_fmt(float(ly) + 4)}" '
            f'font-size="12">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
