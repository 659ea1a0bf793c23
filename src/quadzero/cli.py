"""Command-line interface.

Subcommands: radius, zeros, classify, winding, critical-circle,
circle-image, sweep.  JSON for scalar answers, CSV for tabular data, SVG
for plots; stdout carries data, stderr carries diagnostics.

Exit codes: 0 success, 2 hypothesis/precondition violation, 3 numerical
non-convergence.  Any flag may also come from a key=value config file via
--config PATH; command-line values win.  A config file may set the flags
of any subcommand, so one parameter file serves them all; a key that no
subcommand defines is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .bounds import radius_bound
from .contour import Circle, Rectangle, winding_number
from .critical import critical_radius, circle_image
from .errors import NumericalError, QuadzeroError
from .model import (
    HarmonicQuadrinomial,
    classify_point,
    dilatation,
    evaluate,
    jacobian,
)
from .errors import PoleAtCriticalPoint
from .solver import find_zeros
from .svg import render_zero_plot
from .sweep import Axis, run_sweep, sweep_csv_lines


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_REQUIRED = object()


class _Args:
    """Merged view of CLI flags over config-file values."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.cfg = _load_config(ns.config) if getattr(ns, "config", None) else {}
        unknown = sorted(set(self.cfg) - ns.config_keys)
        if unknown:
            raise QuadzeroError(
                f"unknown config key(s) in {ns.config}: {', '.join(unknown)}"
            )

    def get(self, name: str, typ, default=_REQUIRED):
        v = getattr(self.ns, name, None)
        if v is not None:
            return v
        if name in self.cfg:
            raw = self.cfg[name]
            if typ is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return typ(raw)
        if default is _REQUIRED:
            raise QuadzeroError(f"missing required option --{name.replace('_', '-')}")
        return default


def _quadrinomial(a: _Args) -> HarmonicQuadrinomial:
    try:
        return HarmonicQuadrinomial(
            b=a.get("b", float),
            c=a.get("c", float),
            k=a.get("k", int),
            n=a.get("n", int),
            m=a.get("m", int),
        )
    except (TypeError, ValueError) as exc:
        raise QuadzeroError(str(exc)) from exc


def _svg_critical_radius(
    b: float, c: float, k: int, n: int, m: int
) -> Optional[float]:
    """Radius of the critical circle to draw in a zero plot, or None.

    The circle (Theorem 3.4) belongs to the n = k, m = 1 family only.
    """
    if n != k or m != 1:
        return None
    try:
        cc = critical_radius(b, c, k)
    except (QuadzeroError, ValueError):
        return None
    return cc.radius if cc.exists else None


def _default_threads(a: _Args) -> int:
    env = os.environ.get("QUADZERO_THREADS")
    fallback = int(env) if env else (os.cpu_count() or 1)
    return a.get("threads", int, fallback)


def cmd_radius(ns: argparse.Namespace) -> int:
    a = _Args(ns)
    disk = radius_bound(_quadrinomial(a))
    print(
        json.dumps(
            {"radius": disk.radius, "delta": disk.delta, "source": disk.source.value}
        )
    )
    return 0


ZEROS_HEADER = "re,im,residual,jacobian,orientation"


def _zero_rows(report) -> list[str]:
    rows = []
    for rec in report.zeros:
        rows.append(
            ",".join(
                (
                    _fmt17(rec.location.real),
                    _fmt17(rec.location.imag),
                    _fmt17(rec.residual),
                    _fmt17(rec.jacobian),
                    rec.orientation.value,
                )
            )
        )
    return rows


def cmd_zeros(ns: argparse.Namespace) -> int:
    a = _Args(ns)
    p = _quadrinomial(a)
    fmt = a.get("format", str, "csv")
    report = find_zeros(p)
    if fmt == "csv":
        print(ZEROS_HEADER)
        for row in _zero_rows(report):
            print(row)
    elif fmt == "json":
        print(
            json.dumps(
                {
                    "count": report.count,
                    "n_plus": report.n_plus,
                    "n_minus": report.n_minus,
                    "n_singular": report.n_singular,
                    "n_certified": report.n_certified,
                    "radius": report.disk.radius,
                    "winding_check": report.winding_check,
                    "zeros": [
                        {
                            "re": rec.location.real,
                            "im": rec.location.imag,
                            "residual": rec.residual,
                            "jacobian": rec.jacobian,
                            "orientation": rec.orientation.value,
                            "certified": rec.certified,
                        }
                        for rec in report.zeros
                    ],
                }
            )
        )
    else:
        raise QuadzeroError(f"unknown format {fmt!r} (want csv or json)")
    svg_path = a.get("svg", str, None)
    if svg_path:
        crit = _svg_critical_radius(p.b, p.c, p.k, p.n, p.m)
        with open(svg_path, "w") as fh:
            fh.write(
                render_zero_plot(
                    [(rec.location, rec.orientation) for rec in report.zeros],
                    bounding_radius=report.disk.radius,
                    critical_radii=[] if crit is None else [crit],
                )
            )
    return 0


def cmd_classify(ns: argparse.Namespace) -> int:
    a = _Args(ns)
    p = _quadrinomial(a)
    z = complex(a.get("re", float), a.get("im", float, 0.0))
    try:
        omega_abs = abs(dilatation(p, z))
    except PoleAtCriticalPoint:
        omega_abs = None
    print(
        json.dumps(
            {
                "q": {"re": evaluate(p, z).real, "im": evaluate(p, z).imag},
                "jacobian": jacobian(p, z),
                "orientation": classify_point(
                    p, z, a.get("singular_tol", float, 1e-12)
                ).value,
                "dilatation_abs": omega_abs,
            }
        )
    )
    return 0


def cmd_winding(ns: argparse.Namespace) -> int:
    a = _Args(ns)
    p = _quadrinomial(a)
    rect = a.get("rect", str, None)
    if rect:
        lo_re, lo_im, hi_re, hi_im = (float(x) for x in rect.split(","))
        contour = Rectangle(complex(lo_re, lo_im), complex(hi_re, hi_im))
    else:
        contour = Circle(
            complex(a.get("center_re", float, 0.0), a.get("center_im", float, 0.0)),
            a.get("radius", float),
        )
    rep = winding_number(p, contour)
    print(
        json.dumps(
            {
                "winding": rep.winding,
                "min_modulus": rep.min_modulus,
                "samples_used": rep.samples_used,
                "refined": rep.refined,
            }
        )
    )
    return 0


def cmd_critical_circle(ns: argparse.Namespace) -> int:
    a = _Args(ns)
    cc = critical_radius(a.get("b", float), a.get("c", float), a.get("k", int))
    print(json.dumps({"exists": cc.exists, "radius": cc.radius, "k": cc.k}))
    return 0


def cmd_circle_image(ns: argparse.Namespace) -> int:
    a = _Args(ns)
    p = _quadrinomial(a)
    pts = circle_image(
        p, a.get("radius", float), a.get("samples", int, 256)
    )
    print("re,im")
    for w in pts:
        print(f"{_fmt17(w.real)},{_fmt17(w.imag)}")
    return 0


def _parse_range(spec: str) -> Axis:
    parts = spec.split(":")
    if len(parts) != 3:
        raise QuadzeroError(f"bad range {spec!r} (want lo:hi:steps)")
    return Axis(float(parts[0]), float(parts[1]), int(parts[2]))


def cmd_sweep(ns: argparse.Namespace) -> int:
    a = _Args(ns)
    grid = run_sweep(
        _parse_range(a.get("b_range", str)),
        _parse_range(a.get("c_range", str)),
        k=a.get("k", int),
        n=a.get("n", int),
        m=a.get("m", int),
        threads=_default_threads(a),
    )
    for line in sweep_csv_lines(grid):
        print(line)
    svg_path = a.get("svg", str, None)
    if svg_path:
        zeros = []
        radii = []
        crit = set()
        for cell in grid.cells:
            if cell.report is None:
                continue
            zeros.extend(
                (rec.location, rec.orientation) for rec in cell.report.zeros
            )
            radii.append(cell.report.disk.radius)
            r = _svg_critical_radius(cell.b, cell.c, grid.k, grid.n, grid.m)
            if r is not None:
                crit.add(round(r, 12))
        with open(svg_path, "w") as fh:
            fh.write(
                render_zero_plot(
                    zeros,
                    bounding_radius=max(radii) if radii else None,
                    critical_radii=sorted(crit),
                )
            )
    return 0


def _add_quad_flags(sp):
    sp.add_argument("--b", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--k", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadzero",
        description="Zeros, bounds, and orientation analysis of the "
        "harmonic quadrinomial b*z^k + conj(z)^n + c*conj(z)^m + z.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, func, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="key=value config file")
        sp.set_defaults(func=func)
        return sp

    sp = new("radius", cmd_radius, "zero-inclusion disk radius (JSON)")
    _add_quad_flags(sp)

    sp = new("zeros", cmd_zeros, "locate and classify all zeros (CSV/JSON)")
    _add_quad_flags(sp)
    sp.add_argument("--format", choices=("csv", "json"))
    sp.add_argument("--svg", help="write a zero-plot SVG to this path")

    sp = new("classify", cmd_classify, "orientation of q at a point (JSON)")
    _add_quad_flags(sp)
    sp.add_argument("--re", type=float)
    sp.add_argument("--im", type=float)
    sp.add_argument("--singular-tol", dest="singular_tol", type=float)

    sp = new("winding", cmd_winding, "winding number along a contour (JSON)")
    _add_quad_flags(sp)
    sp.add_argument("--radius", type=float, help="circle radius")
    sp.add_argument("--center-re", dest="center_re", type=float)
    sp.add_argument("--center-im", dest="center_im", type=float)
    sp.add_argument("--rect", help="rectangle as loRe,loIm,hiRe,hiIm")

    sp = new(
        "critical-circle", cmd_critical_circle, "critical circle radius (JSON)"
    )
    sp.add_argument("--b", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--k", type=int)

    sp = new("circle-image", cmd_circle_image, "image of a circle under q (CSV)")
    _add_quad_flags(sp)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--samples", type=int)

    sp = new("sweep", cmd_sweep, "parameter sweep over a (b,c) grid (CSV)")
    sp.add_argument("--b-range", dest="b_range", help="lo:hi:steps")
    sp.add_argument("--c-range", dest="c_range", help="lo:hi:steps")
    sp.add_argument("--k", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--threads", type=int)
    sp.add_argument("--svg", help="write a zero-plot SVG to this path")

    parser.set_defaults(
        config_keys={
            action.dest
            for sp in sub.choices.values()
            for action in sp._actions
            if action.option_strings and action.dest != "help"
        }
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except NumericalError as exc:
        print(f"quadzero: {exc}", file=sys.stderr)
        return 3
    except QuadzeroError as exc:
        print(f"quadzero: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"quadzero: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
