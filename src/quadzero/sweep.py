"""Parameter sweeps over a (b, c) grid with fixed degrees.

Cells are solved independently (optionally across a thread pool) but
always reported in row-major (b index, c index) order, so the CSV is
byte-identical regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .errors import BoundUnavailable
from .model import HarmonicQuadrinomial
from .solver import ZeroSetReport, find_zeros


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.lo]
        d = (self.hi - self.lo) / (self.steps - 1)
        return [self.lo + i * d for i in range(self.steps)]


@dataclass(frozen=True)
class SweepCell:
    b: float
    c: float
    report: Optional[ZeroSetReport]  # None: no inclusion disk (BoundUnavailable)

    @property
    def winding_check(self) -> str:
        return "unavailable" if self.report is None else self.report.winding_check


@dataclass(frozen=True)
class SweepGrid:
    b_axis: Axis
    c_axis: Axis
    k: int
    n: int
    m: int
    cells: tuple[SweepCell, ...]


def _solve_cell(b, c, k, n, m) -> SweepCell:
    try:
        report = find_zeros(HarmonicQuadrinomial(b=b, c=c, k=k, n=n, m=m))
    except BoundUnavailable:
        report = None
    return SweepCell(b, c, report)


def run_sweep(
    b_axis: Axis,
    c_axis: Axis,
    k: int,
    n: int,
    m: int,
    threads: int = 1,
) -> SweepGrid:
    tasks = [(b, c) for b in b_axis.values() for c in c_axis.values()]
    if threads <= 1:
        cells = [_solve_cell(b, c, k, n, m) for b, c in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(
                pool.map(lambda t: _solve_cell(t[0], t[1], k, n, m), tasks)
            )
    return SweepGrid(b_axis, c_axis, k, n, m, tuple(cells))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
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
        upper is not None and r.count > upper,
    )


def sweep_csv_lines(grid: SweepGrid) -> list[str]:
    lines = [SWEEP_HEADER]
    for cell in grid.cells:
        lines.append(",".join(_fmt(v) for v in _csv_fields(cell)))
    return lines
