"""Minimal SVG 1.1 scatter plot of located zeros.

Zeros are filled markers colored by orientation; the bounding disk and
(when it exists) the critical circle are stroked circles.
"""

from __future__ import annotations

from .model import OrientationClass

_SIZE = 640  # width and height of the plot, in pixels
_COLORS = {
    OrientationClass.SENSE_PRESERVING: "#1f77b4",
    OrientationClass.SENSE_REVERSING: "#d62728",
    OrientationClass.SINGULAR: "#7f7f7f",
}


def write_zero_plot(path: str, k: int, n: int, m: int, cells) -> None:
    """Write one zero plot of `cells`, (b, c, report) triples, to `path`.

    A cell without a report (no inclusion disk) adds nothing; the plot's
    disk is the largest of the reports' disks.  Theorem 3.4's
    critical circle belongs to the n = k, m = 1 family, where n > m gives
    k >= 2 and a report rules out |b| = 1, so `critical_radius` accepts
    every cell that reaches it.  Circles are kept to 12 digits, once
    each; one that rounds to 0 is left out.
    """
    from .critical import critical_radius

    zeros, radii, crit = [], [], set()
    for b, c, report in cells:
        if report is None:
            continue
        zeros.extend((rec.location, rec.orientation) for rec in report.zeros)
        radii.append(report.disk.radius)
        if n == k and m == 1:
            cc = critical_radius(b, c, k)
            if cc.exists:
                crit.add(round(cc.radius, 12))
    crit = sorted(r for r in crit if r > 0)
    extent = 1.1 * max([abs(z) for z, _ in zeros] + radii + crit + [1.0])
    half = _SIZE / 2.0
    scale = half / extent

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
    if radii:
        parts.append(
            f'<circle cx="{half}" cy="{half}" r="{max(radii) * scale:.3f}" '
            f'fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
        )
    for r in crit:
        parts.append(
            f'<circle cx="{half}" cy="{half}" r="{r * scale:.3f}" fill="none" '
            f'stroke="#9467bd" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for z, orient in zeros:
        parts.append(  # flip: SVG y grows downward
            f'<circle cx="{half + z.real * scale:.3f}" '
            f'cy="{half - z.imag * scale:.3f}" r="3.5" fill="{_COLORS[orient]}"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
