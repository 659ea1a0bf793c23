"""Parameter sweeps over a (b, c) grid with fixed degrees.

Cells are solved independently, one b-row per task, in this process or
across a pool of worker processes, and always reported in row-major
(b index, c index) order, so the CSV is byte-identical regardless of
worker count.  ``threads`` (the CLI's ``--threads``) is the number of
worker processes asked for, at least 1 (``run_sweep`` raises
``ValueError`` below that); a sweep uses at most one per CPU, one per
b-row and one per ``_MIN_CELLS_PER_WORKER`` cells, and it starts no
pool with one worker or below ``_MIN_POOL_CELLS`` cells.

A pool must earn its start-up.  ``tools/pool_break_even.py`` times 1
worker against a forced 2-worker pool on the criterion-9 family
(``k=3 n=2 m=1``, about 0.7 ms a cell), one sweep per fresh interpreter
as the CLI runs, under fork and under forkserver.  On a 2-vCPU Linux VM
(Python 3.11, medians of 10 pairs, ``BENCH_34.json``) an empty 2-worker
pool costs 22 ms under fork and 140 ms under forkserver, its server
included.  Two workers at best halve the serial time T, so with a start
cost S they pay only where T/2 + S < T, that is T > 2S: under
forkserver about 280 ms, or 400 cells.  Measured, two workers take 2.77
of the serial wall time at 100 cells, 1.83 at 196, 1.47 at 256 and 1.14
at 400 under forkserver, and 1.46 at 100 cells, 0.79 at 144 and 196,
0.61 at 256 and 0.68 at 400 under fork.  The VM adds a cost of its own:
two processes that start after a few idle seconds get about one CPU
between them for their first 1.1-1.3 s, so a short sweep that starts
from idle gains little from a second worker of either kind.

One threshold serves both start methods, and neither break-even is met
exactly: a pool starts from 400 cells.  A 10x10 grid runs in this
process, where both methods lose with two workers.  Under fork a
144-399-cell grid also runs here, though two workers would take about
0.6-0.8 of its time; under forkserver the 400-cell grid still starts a
pool, at about 1.14 of one worker's time.  Above the threshold each
worker needs a share of 48 cells, fork's 100-cell break-even split
between two workers, so the 400-cell grid may use up to 8.  Only 1
worker against 2 was measured, on 2 vCPUs: whether 4 or 8 workers pay
at that share is not known.

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

# No pool below this many cells, and one worker per _MIN_CELLS_PER_WORKER
# cells at most; the module docstring gives the measurements behind both.
_MIN_POOL_CELLS = 400
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
    size = len(bs) * len(cs)
    workers = min(threads, len(bs), os.cpu_count() or 1,
                  size // _MIN_CELLS_PER_WORKER)
    if workers <= 1 or size < _MIN_POOL_CELLS:
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
