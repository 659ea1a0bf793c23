"""Command-line interface.

Subcommands: radius, zeros, classify, winding, critical-circle,
circle-image, sweep.  JSON for scalar answers, CSV for tabular data, SVG
for plots; stdout carries data, stderr carries diagnostics.  Each
subcommand returns its whole answer, a dict for JSON or a list of CSV
lines, and only then does `main` write it to stdout, so a command that
fails writes nothing there.

Exit codes: 0 success, 1 stdout closed by its reader (nothing more is
written, not even to stderr), 2 hypothesis/precondition violation, usage
error (a non-finite number included) or unreadable file, 3 numerical
non-convergence or floating-point overflow.  Any flag may also come
from a key=value config file via --config PATH: each key becomes a
--key=value flag placed before the command line's own flags, so argparse
checks both and command-line values win.  A config file may set the flags
of any subcommand, so one parameter file serves them all; a key that no
subcommand defines is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Each command imports the modules it runs, so a subcommand's cold start
# loads no solver, contour, critical, sweep or SVG code it does not need.
from .errors import NumericalError, PoleAtCriticalPoint, QuadzeroError
from .model import (
    HarmonicQuadrinomial,
    classify_point,
    dilatation,
    evaluate,
    jacobian,
)


def _load_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not (sep and key.strip()):
                raise ValueError(f"bad config line (want key=value): {line!r}")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the --config file's keys spliced in after the subcommand.

    Keys of other subcommands are dropped, so one file serves them all.
    """
    flags = parser.get_default("config_flags")
    own = flags.get(argv[0]) if argv else None
    if own is None:
        return argv  # argparse reports the missing or unknown subcommand
    # Find --config the way the subcommand's parser will, abbreviations
    # included; a parser that knew only --config would read --c 2 as it.
    pre = argparse.ArgumentParser(prog=f"quadzero {argv[0]}", add_help=False)
    for flag in (*own.values(), "--config"):
        pre.add_argument(flag)
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    cfg = _load_config(path)
    unknown = sorted(set(cfg).difference(*flags.values()))
    if unknown:
        raise QuadzeroError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    spliced = [f"{own[key]}={val}" for key, val in cfg.items() if key in own]
    return [argv[0], *spliced, *argv[1:]]


def _quadrinomial(ns: argparse.Namespace) -> HarmonicQuadrinomial:
    return HarmonicQuadrinomial(b=ns.b, c=ns.c, k=ns.k, n=ns.n, m=ns.m)


def cmd_radius(ns: argparse.Namespace) -> dict:
    from .bounds import BoundSource, radius_bound, radius_delta

    p = _quadrinomial(ns)
    disk = radius_bound(p)
    radius = None if disk.source is BoundSource.UNAVAILABLE else disk.radius
    return {"radius": radius, "delta": radius_delta(p), "source": disk.source.value}


ZEROS_HEADER = "re,im,residual,jacobian,orientation"


def _zero_fields(rec) -> dict:
    """One zero's JSON entry; its CSV row gives ZEROS_HEADER's fields."""
    return {
        "re": rec.location.real,
        "im": rec.location.imag,
        "residual": rec.residual,
        "jacobian": rec.jacobian,
        "orientation": rec.orientation.value,
        "certified": rec.certified,
    }


def cmd_zeros(ns: argparse.Namespace) -> dict | list[str]:
    from .solver import find_zeros

    p = _quadrinomial(ns)
    report = find_zeros(p)
    if ns.svg:
        from .svg import write_zero_plot

        write_zero_plot(ns.svg, p.k, p.n, p.m, [(p.b, p.c, report)])
    zeros = [_zero_fields(rec) for rec in report.zeros]
    if ns.format == "csv":
        rows = (f"{z['re']:.17g},{z['im']:.17g},{z['residual']:.17g},"
                f"{z['jacobian']:.17g},{z['orientation']}" for z in zeros)
        return [ZEROS_HEADER, *rows]
    return {
        "count": report.count,
        "n_plus": report.n_plus,
        "n_minus": report.n_minus,
        "n_singular": report.n_singular,
        "n_certified": report.n_certified,
        "radius": report.disk.radius,
        "winding_check": report.winding_check,
        "zeros": zeros,
    }


def cmd_classify(ns: argparse.Namespace) -> dict:
    p = _quadrinomial(ns)
    z = complex(ns.re, ns.im)
    q = evaluate(p, z)
    try:
        omega_abs = abs(dilatation(p, z))
    except PoleAtCriticalPoint:
        omega_abs = None
    return {
        "q": {"re": q.real, "im": q.imag},
        "jacobian": jacobian(p, z),
        "orientation": classify_point(p, z).value,
        "dilatation_abs": omega_abs,
    }


def cmd_winding(ns: argparse.Namespace) -> dict:
    from .contour import Circle, winding_number

    p = _quadrinomial(ns)
    if ns.rect is not None:
        contour = ns.rect
    elif ns.radius is None:
        # Checked here, not by an argparse group: a shared config file may
        # set radius (for circle-image) while the command line gives --rect.
        raise QuadzeroError("winding needs --radius or --rect")
    else:
        contour = Circle(complex(ns.center_re, ns.center_im), ns.radius)
    rep = winding_number(p, contour)
    return {
        "winding": rep.winding,
        "min_modulus": rep.min_modulus,
        "samples_used": rep.samples_used,
        "refined": rep.refined,
    }


def cmd_critical_circle(ns: argparse.Namespace) -> dict:
    from .critical import critical_radius

    cc = critical_radius(ns.b, ns.c, ns.k)
    return {"exists": cc.exists, "radius": cc.radius, "k": cc.k}


def cmd_circle_image(ns: argparse.Namespace) -> list[str]:
    from .critical import circle_image

    pts = circle_image(_quadrinomial(ns), ns.radius, ns.samples)
    return ["re,im", *(f"{w.real:.17g},{w.imag:.17g}" for w in pts)]


def cmd_sweep(ns: argparse.Namespace) -> list[str]:
    from .sweep import run_sweep, sweep_csv_lines

    grid = run_sweep(
        ns.b_range, ns.c_range, k=ns.k, n=ns.n, m=ns.m, threads=ns.threads
    )
    if ns.svg:
        from .svg import write_zero_plot

        cells = [(cell.b, cell.c, cell.report) for cell in grid.cells]
        write_zero_plot(ns.svg, grid.k, grid.n, grid.m, cells)
    return sweep_csv_lines(grid)


def _finite(spec: str) -> float:
    try:
        x = float(spec)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{spec!r} is not a finite number")
    return x


def _positive_int(spec: str) -> int:
    try:
        x = int(spec)
    except ValueError:
        x = 0
    if x < 1:
        raise argparse.ArgumentTypeError(f"{spec!r} is not a positive integer")
    return x


def _rect(spec: str) -> Rectangle:
    from .contour import Rectangle

    try:
        lo_re, lo_im, hi_re, hi_im = (_finite(x) for x in spec.split(","))
        return Rectangle(complex(lo_re, lo_im), complex(hi_re, hi_im))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not loRe,loIm,hiRe,hiIm ({exc})"
        ) from None


def _axis(spec: str) -> Axis:
    from .sweep import Axis

    try:
        lo, hi, steps = spec.split(":")
        return Axis(_finite(lo), _finite(hi), int(steps))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not lo:hi:steps ({exc})"
        ) from None


def _add_quad_flags(sp, names="bcknm"):
    for name in names:
        sp.add_argument(f"--{name}", type=_finite if name in "bc" else int, required=True)


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
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--svg", help="write a zero-plot SVG to this path")

    sp = new("classify", cmd_classify, "orientation of q at a point (JSON)")
    _add_quad_flags(sp)
    sp.add_argument("--re", type=_finite, required=True)
    sp.add_argument("--im", type=_finite, default=0.0)

    sp = new("winding", cmd_winding, "winding number along a contour (JSON)")
    _add_quad_flags(sp)
    sp.add_argument("--radius", type=_finite, help="circle radius")
    sp.add_argument("--center-re", dest="center_re", type=_finite, default=0.0)
    sp.add_argument("--center-im", dest="center_im", type=_finite, default=0.0)
    sp.add_argument("--rect", type=_rect, help="rectangle as loRe,loIm,hiRe,hiIm")

    sp = new(
        "critical-circle", cmd_critical_circle, "critical circle radius (JSON)"
    )
    _add_quad_flags(sp, "bck")

    sp = new("circle-image", cmd_circle_image, "image of a circle under q (CSV)")
    _add_quad_flags(sp)
    sp.add_argument("--radius", type=_finite, required=True)
    sp.add_argument("--samples", type=int, default=256)

    sp = new("sweep", cmd_sweep, "parameter sweep over a (b,c) grid (CSV)")
    for axis in ("b", "c"):
        sp.add_argument(
            f"--{axis}-range", dest=f"{axis}_range", type=_axis, required=True,
            help="lo:hi:steps",
        )
    _add_quad_flags(sp, "knm")
    sp.add_argument(
        "--threads",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes (default: the CPU count)",
    )
    sp.add_argument("--svg", help="write a zero-plot SVG to this path")

    # The flag each config key stands for, per subcommand.
    parser.set_defaults(
        config_flags={
            name: {
                action.dest: action.option_strings[0]
                for action in sp._actions
                if action.option_strings and action.dest not in ("help", "config")
            }
            for name, sp in sub.choices.items()
        }
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        ns = parser.parse_args(_with_config(parser, argv))
        answer = ns.func(ns)
        # Nothing reaches stdout until a command returns, so any failure,
        # an unwritable --svg included, leaves stdout empty.
        if isinstance(answer, dict):
            try:
                answer = [json.dumps(answer, allow_nan=False)]
            except ValueError as exc:
                # Only overflow puts a non-finite number in an answer.
                raise OverflowError(exc) from None
        print(*answer, sep="\n")
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return 0
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return exc.code
    except BrokenPipeError:
        # The reader has gone (e.g. `| head`): stop quietly, and send the
        # interpreter's last flush to devnull, as the Python signal docs
        # advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NumericalError as exc:
        print(f"quadzero: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"quadzero: floating-point overflow: {exc}", file=sys.stderr)
        return 3
    except (QuadzeroError, ValueError, TypeError, OSError) as exc:
        print(f"quadzero: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
