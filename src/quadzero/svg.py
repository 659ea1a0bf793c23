"""Minimal SVG 1.1 scatter plot of located zeros.

Zeros are filled markers colored by orientation; the bounding disk and
(when it exists) the critical circle are stroked circles.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .model import OrientationClass

_SIZE = 640  # width and height of the plot, in pixels
_COLORS = {
    OrientationClass.SENSE_PRESERVING: "#1f77b4",
    OrientationClass.SENSE_REVERSING: "#d62728",
    OrientationClass.SINGULAR: "#7f7f7f",
}


def render_zero_plot(
    zeros: Iterable[tuple[complex, OrientationClass]],
    bounding_radius: Optional[float] = None,
    critical_radii: Iterable[float] = (),
) -> str:
    zeros = list(zeros)
    critical_radii = [r for r in critical_radii if r > 0]
    extent = max(
        [abs(z) for z, _ in zeros]
        + ([bounding_radius] if bounding_radius else [])
        + critical_radii
        + [1.0]
    )
    extent *= 1.1
    half = _SIZE / 2.0
    scale = half / extent

    def sx(x: float) -> float:
        return half + x * scale

    def sy(y: float) -> float:
        return half - y * scale  # flip: SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        # axes
        f'<line x1="0" y1="{half}" x2="{_SIZE}" y2="{half}" '
        f'stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{_SIZE}" '
        f'stroke="#cccccc" stroke-width="1"/>',
    ]
    if bounding_radius is not None and math.isfinite(bounding_radius):
        parts.append(
            f'<circle cx="{half}" cy="{half}" r="{bounding_radius * scale:.3f}" '
            f'fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
        )
    for r in critical_radii:
        parts.append(
            f'<circle cx="{half}" cy="{half}" r="{r * scale:.3f}" fill="none" '
            f'stroke="#9467bd" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for z, orient in zeros:
        parts.append(
            f'<circle cx="{sx(z.real):.3f}" cy="{sy(z.imag):.3f}" r="3.5" '
            f'fill="{_COLORS[orient]}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
