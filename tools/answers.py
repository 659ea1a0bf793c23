"""Prints find_zeros's and the CLI's answers, one line per case, so that
two source trees can be compared with diff.

    PYTHONPATH=<tree>/src python tools/answers.py > answers.txt

Each line holds the case's parameters b,c,k,n,m, then count, n_plus,
n_minus, n_singular, winding_check and repr(disk.radius), then every
zero's repr location and orientation; a case that raises prints the
exception's class name instead.  The cases are perfbench's batch and
degenerate pools (read from perfbench/workloads.py, not changed), the
tiny-|b| families and the q(1) = J(1) = 0 family.

Then one line per Theorem 3.4 case: `census`, the parameters b,c,k,k,1,
then `modular_root_census`'s on, inside and outside counts and
`verify_theorem_34(b, c, k).passed`; a case that raises prints the
exception's class name instead, as where the circle does not exist.
The cases are the n = k, m = 1 grid of k from 2 to 6,
b in {0.5, 0.9, 1.5, 2, 3} and c in {-3, -1.5, -0.5, 0.5, 1.5, 3}.

Then one line per closed-form case: `critical`, the parameters b,c,k, then
the reprs of `critical_radius(b, c, k).radius`, `critical_radius_alt(b, c,
k)` and `univalence_radius(b, k)[0]`; a value that raises prints the
exception's class name instead.  b and c run over 1 +- 1e-8, 1 +- 1e-12,
3, 1e200 and 1e308, where the squares cancel or overflow, and k over 2,
3 and 6.

Then one line per CLI case: `cli`, the arguments, the exit code and the
md5 of stdout, of stderr and of the SVG (`-` where none is written).
The cases are every `quadzero` example of the README, a sweep SVG whose
b = 1 column has no disk and whose six n = k, m = 1 cells draw critical
circles, an unwritable `--svg` path (exit 2), a critical circle whose
b*b and c*c overflow though its radius does not (exit 0), a circle
image whose samples of q overflow (exit 3) and two radius cases whose
|b| = 1e16 and 1e15 dwarf C, where |b| + C rounds and a numerically
deflated radius equation loses C (`radius_delta`).
Each runs in process through `quadzero.cli.main`, in an empty temporary
directory, so its relative `--svg` path lands there.

Then two lines give the md5 of the criterion-9 sweep CSV, as
`quadzero sweep` prints it, at 1 and at 2 workers.

The last two lines are the work: `work`, the pool, then the cell tests
and the Newton steps tried that find_zeros makes on perfbench's
`batch_pool(720)` and `degenerate_pool()`.  Both are counted through
what the solver's `_kernels` factory builds, as tests/test_solver.py's
`work` fixture counts them: the cells as the pops from a list subclass
given to the quadtree walk as its stack, the steps as the third item of
each Newton run's answer.  So one diff shows both same answers and same
work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from quadzero import (  # noqa: E402
    HarmonicQuadrinomial,
    critical_radius,
    critical_radius_alt,
    find_zeros,
    modular_root_census,
    solver,
    univalence_radius,
    verify_theorem_34,
)
from quadzero.cli import main as cli_main  # noqa: E402
from quadzero.errors import QuadzeroError  # noqa: E402

CRITERION_9 = [
    "sweep", "--b-range", "0.5:3:20", "--c-range=-2:2:20",
    "--k", "3", "--n", "2", "--m", "1",
]

CLI_CASES = [
    "radius --b 0.5 --c 2 --k 4 --n 2 --m 1",
    "zeros --b 0 --c 0 --k 1 --n 3 --m 1 --format json",
    "zeros --b 2 --c 3 --k 4 --n 3 --m 1 --svg zeros.svg",
    "classify --b 0 --c 0 --k 1 --n 3 --m 1 --re 0.1 --im 0.2",
    "winding --b 0 --c 0 --k 1 --n 3 --m 1 --radius 2",
    "winding --b 0 --c 0 --k 1 --n 3 --m 1 --radius 1.0000000001",
    "winding --b 1 --c 1 --k 3 --n 2 --m 1 --rect=-3,-3,3,3",
    "critical-circle --b 2 --c 3 --k 2",
    "circle-image --b 0 --c 0 --k 1 --n 3 --m 1 --radius 1 --samples 512",
    "sweep --b-range 0.5:3:20 --c-range=-2:2:20 --k 3 --n 2 --m 1 --threads 8",
    "sweep --b-range 0:2:5 --c-range 1.5:3:3 --k 3 --n 3 --m 1 --svg sweep.svg",
    "zeros --b 0 --c 0 --k 1 --n 3 --m 1 --svg no/such/dir/zeros.svg",
    "critical-circle --b 1e200 --c 1e200 --k 3",
    "circle-image --b 1e300 --c 1 --k 3 --n 2 --m 1 --radius 1e10 --samples 16",
    "radius --b 1e16 --c 0.5 --k 4 --n 3 --m 1",
    "radius --b 1e15 --c 1.1 --k 4 --n 2 --m 1",
]


def cases() -> list[tuple]:
    """(b, c, k, n, m) per case, in a fixed order."""
    out = workloads.batch_pool(720) + workloads.degenerate_pool()
    # R = 1/|b| up to 1e16: zeros at their own scale, far and near.
    for c, k, n, m in ((2.0, 4, 3, 1), (0.5, 6, 5, 2), (-3.0, 5, 2, 1)):
        out += [(10.0**-e, c, k, n, m) for e in range(4, 17)]
    # q(1) = 0 with c = -2 - b, and J(1) = (bk + 1)^2 - (n + cm)^2 = 0
    # with b(k +- m) = +-(n - 2m) - 1: a singular zero at 1.
    for k in range(1, 9):
        for n in range(2, 9):
            for m in range(1, n):
                for sign in (1, -1):
                    if k + sign * m:
                        b = (sign * (n - 2 * m) - 1) / (k + sign * m)
                        out.append((b, -2.0 - b, k, n, m))
    return out


def answer(params: tuple) -> str:
    try:
        r = find_zeros(HarmonicQuadrinomial(*params))
    except QuadzeroError as exc:
        return f"{workloads.case_key(params)} {type(exc).__name__}"
    zeros = " ".join(f"{z.location!r}:{z.orientation.name}" for z in r.zeros)
    return (
        f"{workloads.case_key(params)} {r.count} {r.n_plus} {r.n_minus} "
        f"{r.n_singular} {r.winding_check} {r.disk.radius!r} {zeros}"
    )


def census_cases() -> list[tuple]:
    """(b, c, k, k, 1) per Theorem 3.4 case, in a fixed order."""
    return [
        (b, c, k, k, 1)
        for k in range(2, 7)
        for b in (0.5, 0.9, 1.5, 2.0, 3.0)
        for c in (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)
    ]


def census_answer(params: tuple) -> str:
    p = HarmonicQuadrinomial(*params)
    try:
        on, inside, outside = modular_root_census(p)
        passed = verify_theorem_34(p.b, p.c, p.k).passed
    except QuadzeroError as exc:
        return f"census {workloads.case_key(params)} {type(exc).__name__}"
    return f"census {workloads.case_key(params)} {on} {inside} {outside} {passed}"


CRITICAL_MODULI = (1 - 1e-8, 1 + 1e-8, 1 - 1e-12, 1 + 1e-12, 3.0, 1e200, 1e308)


def critical_answer(b: float, c: float, k: int) -> str:
    values = []
    for f in (
        lambda: critical_radius(b, c, k).radius,
        lambda: critical_radius_alt(b, c, k),
        lambda: univalence_radius(b, k)[0],
    ):
        try:
            values.append(repr(f()))
        except (QuadzeroError, ArithmeticError) as exc:
            values.append(type(exc).__name__)
    return f"critical {b!r},{c!r},{k} {' '.join(values)}"


def md5(data: str) -> str:
    return hashlib.md5(data.encode()).hexdigest()


def cli_answer(case: str) -> str:
    argv = case.split()
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            svg = Path(argv[argv.index("--svg") + 1]) if "--svg" in argv else None
            svg_md5 = md5(svg.read_text()) if svg and svg.exists() else "-"
        finally:
            os.chdir(home)
    return (
        f"cli {case} exit={code} stdout={md5(out.getvalue())} "
        f"stderr={md5(err.getvalue())} svg={svg_md5}"
    )


def sweep_md5(workers: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([*CRITERION_9, "--threads", str(workers)])
    if code != 0:
        raise SystemExit(f"criterion-9 sweep exited {code}")
    return md5(out.getvalue())


def work_answer(name: str, params: list[tuple]) -> str:
    counts = {"cells": 0, "steps": 0}
    real_kernels = solver._kernels

    class CountingStack(list):
        """The walk's stack, counting the cells popped from it."""

        def pop(self):
            counts["cells"] += 1
            return super().pop()

    def counting_kernels(p):
        walk, run = real_kernels(p)

        def counted_walk(stack, settle):
            walk(CountingStack(stack), settle)

        def counted_run(z, step, found):
            result = run(z, step, found)
            counts["steps"] += result[2]
            return result

        return counted_walk, counted_run

    solver._kernels = counting_kernels
    try:
        for t in params:
            find_zeros(HarmonicQuadrinomial(*t))
    finally:
        solver._kernels = real_kernels
    return f"work {name} cells={counts['cells']} newton_steps={counts['steps']}"


if __name__ == "__main__":
    for params in cases():
        print(answer(params))
    for params in census_cases():
        print(census_answer(params))
    for k in (2, 3, 6):
        for b in CRITICAL_MODULI:
            for c in CRITICAL_MODULI:
                print(critical_answer(b, c, k))
    for case in CLI_CASES:
        print(cli_answer(case))
    for workers in (1, 2):
        print(f"criterion-9 csv md5 threads={workers} {sweep_md5(workers)}")
    print(work_answer("batch_pool(720)", workloads.batch_pool(720)))
    print(work_answer("degenerate_pool()", workloads.degenerate_pool()))
