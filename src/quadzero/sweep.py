"""Parameter sweeps over a (b, c) grid with fixed degrees.

Cells are solved independently, one b-row per task, in this process or
across a pool of worker processes, and always reported in row-major
(b index, c index) order, so the CSV is byte-identical regardless of
worker count.  ``threads`` (the CLI's ``--threads``) is the number of
worker processes asked for, at least 1 (``run_sweep`` raises
``ValueError`` below that); a sweep uses at most one per CPU, one per
b-row and one per ``_MIN_CELLS_PER_WORKER`` cells, and with one it
starts no pool.

A pool must earn its start-up.  On a 2-vCPU Linux VM (Python 3.11,
``k=3 n=2 m=1``, about 0.8 ms a cell) an empty 2-worker pool costs
11-13 ms under fork and 150-180 ms under forkserver, its server
included.  Under fork, in a process that has solved before, two
workers take a median 0.76-1.10 of the serial wall time at 100 cells
(three sets of 20 runs), 0.67-0.71 at 196 and 0.64-0.65 at 400: they
match one at about 100 cells.  Under forkserver they take 1.5 of it at
100 cells, 1.05 at 196 and 0.84 at 400 (10 runs each).  Hence 48 cells
a worker: a 16-cell grid runs in this process and a 100-cell one on two
workers.

Workers start by the platform's default method.  Where that is ``spawn``
(Windows, macOS) or ``forkserver`` (Linux from Python 3.14), each worker
imports the calling script, so a script that sweeps with more than one
worker must call ``run_sweep`` under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import NamedTuple, Optional

from .errors import BoundUnavailable
from .model import HarmonicQuadrinomial
from .solver import ZeroSetReport, find_zeros

# One worker per this many cells at most; the module docstring gives the
# break-even it comes from.
_MIN_CELLS_PER_WORKER = 48


class Axis(NamedTuple("Axis", [("lo", float), ("hi", float), ("steps", int)])):
    __slots__ = ()

    def __new__(cls, lo: float, hi: float, steps: int):
        if steps < 1:
            raise ValueError("steps must be >= 1")
        return super().__new__(cls, lo, hi, steps)

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.lo]
        d = (self.hi - self.lo) / (self.steps - 1)
        return [self.lo + i * d for i in range(self.steps)]


class SweepCell(NamedTuple):
    b: float
    c: float
    report: Optional[ZeroSetReport]  # None: no inclusion disk (BoundUnavailable)

    @property
    def winding_check(self) -> str:
        return "unavailable" if self.report is None else self.report.winding_check


class SweepGrid(NamedTuple):
    b_axis: Axis
    c_axis: Axis
    k: int
    n: int
    m: int
    cells: tuple[SweepCell, ...]


def _solve_row(b, cs, k, n, m) -> list[SweepCell]:
    """The cells of one b-row, in c order: the unit of work of a worker."""
    cells = []
    for c in cs:
        try:
            report = find_zeros(HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m))
        except BoundUnavailable:
            report = None
        cells.append(SweepCell(b, c, report))
    return cells


def run_sweep(
    b_axis: Axis,
    c_axis: Axis,
    k: int,
    n: int,
    m: int,
    threads: int = 1,
) -> SweepGrid:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    bs, cs = b_axis.values(), c_axis.values()
    rows = (bs, repeat(cs), repeat(k), repeat(n), repeat(m))
    # A forking pool starts all its workers at once: no more than can run,
    # and none that would cost more to start than its share of the cells.
    workers = min(threads, len(bs), os.cpu_count() or 1,
                  len(bs) * len(cs) // _MIN_CELLS_PER_WORKER)
    if workers <= 1:
        solved = list(map(_solve_row, *rows))
    else:
        # Imported here: it pulls in multiprocessing, which would add about
        # half again to the CLI's import time.
        from concurrent.futures import ProcessPoolExecutor

        # The default start method is fork on Linux up to Python 3.13 and
        # forkserver from 3.14; the module docstring gives what each
        # costs.  One row per task (map's default chunksize), handed out
        # as workers free up; map returns the rows in grid order.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_row, *rows))
    cells = tuple(cell for row in solved for cell in row)
    return SweepGrid(b_axis, c_axis, k, n, m, cells)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


SWEEP_HEADER = (
    "b,c,count,n_plus,n_minus,n_singular,bound_upper,bound_proven,"
    "radius,winding_check,violation"
)


def _csv_fields(cell: SweepCell) -> tuple:
    r = cell.report
    if r is None:
        return (cell.b, cell.c) + (None,) * 7 + (cell.winding_check, None)
    upper = r.bound.upper if r.bound else None
    proven = r.bound.upper_is_proven if r.bound else None
    return (
        cell.b,
        cell.c,
        r.count,
        r.n_plus,
        r.n_minus,
        r.n_singular,
        upper,
        proven,
        r.disk.radius,
        r.winding_check,
        # Only certified zeros beyond a proven bound refute it.
        bool(proven) and r.n_certified > upper,
    )


def sweep_csv_lines(grid: SweepGrid) -> list[str]:
    lines = [SWEEP_HEADER]
    for cell in grid.cells:
        lines.append(",".join(_fmt(v) for v in _csv_fields(cell)))
    return lines
