import concurrent.futures

import pytest

from quadzero.cli import main
from quadzero.sweep import SWEEP_HEADER, Axis, run_sweep, sweep_csv_lines


def test_unavailable_cell_row():
    # k = n with |b| = 1: no inclusion disk, so no report.
    grid = run_sweep(Axis(1, 1, 1), Axis(2, 2, 1), 3, 3, 1)
    (cell,) = grid.cells
    assert cell.report is None
    assert cell.winding_check == "unavailable"
    assert sweep_csv_lines(grid) == [SWEEP_HEADER, "1,2,,,,,,,,unavailable,"]


@pytest.fixture(scope="module")
def grid():
    # c = -1 makes the origin a singular zero (|c| = 1, m = 1); the
    # c = 0.5 and c = 2 cells are regular.
    return run_sweep(Axis(0.5, 2.0, 2), Axis(-1.0, 2.0, 3), 4, 2, 1)


def test_rows_come_from_cell_reports(grid):
    lines = sweep_csv_lines(grid)
    header = SWEEP_HEADER.split(",")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + len(grid.cells) == 7
    for cell, line in zip(grid.cells, lines[1:]):
        row = dict(zip(header, line.split(",")))
        r = cell.report
        assert r is not None
        assert float(row["b"]) == cell.b
        assert float(row["c"]) == cell.c
        assert int(row["count"]) == r.count
        assert int(row["n_plus"]) == r.n_plus
        assert int(row["n_minus"]) == r.n_minus
        assert int(row["n_singular"]) == r.n_singular
        assert int(row["bound_upper"]) == r.bound.upper
        assert row["bound_proven"] == str(r.bound.upper_is_proven).lower()
        assert float(row["radius"]) == r.disk.radius
        assert row["winding_check"] == r.winding_check == cell.winding_check
        assert row["violation"] == str(r.count > r.bound.upper).lower()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps ProcessPoolExecutor for a stand-in that records its worker
    count and solves the rows in this process, so no process starts."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.mark.parametrize(
    "threads, cpus, pool_size",
    [
        (10_000, 64, 3),  # one worker per b-row at most
        (8, 2, 2),  # one worker per CPU at most
        (8, None, None),  # CPU count unknown: no pool
        (1, 64, None),
    ],
)
def test_worker_count_is_capped(monkeypatch, pool_sizes, threads, cpus, pool_size):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    grid = run_sweep(Axis(2, 4, 3), Axis(3, 3, 1), 3, 2, 1, threads=threads)
    assert pool_sizes == ([] if pool_size is None else [pool_size])
    assert [(cell.b, cell.c) for cell in grid.cells] == [(2, 3), (3, 3), (4, 3)]


@pytest.mark.parametrize("threads", [0, -1])
def test_fewer_than_one_worker_is_refused(pool_sizes, threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_sweep(Axis(2, 4, 3), Axis(3, 3, 1), 3, 2, 1, threads=threads)
    assert pool_sizes == []


def test_process_pool_returns_the_serial_reports(monkeypatch):
    # b = 1 with k = n gives unavailable cells, c = -1 a singular origin
    # (|c| = 1, m = 1), b = 2 or 3 with c = 3 regular cells.
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # a real pool on any host
    args = (Axis(1, 3, 3), Axis(-1, 3, 2), 3, 3, 1)
    serial = run_sweep(*args, threads=1)
    pooled = run_sweep(*args, threads=2)
    assert pooled.cells == serial.cells
    assert [cell.winding_check for cell in serial.cells] == [
        "unavailable", "unavailable", "inconclusive", "passed", "inconclusive", "passed",
    ]
    assert all(cell.report.zeros for cell in serial.cells[2:])


def test_invalid_degrees_fail_alike_in_workers(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    results = []
    for threads in ("1", "2"):
        code = main(["sweep", "--b-range", "1:2:2", "--c-range", "2:3:2",
                     "--k", "3", "--n", "1", "--m", "1", "--threads", threads])
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1]
    code, captured = results[0]
    assert code == 2
    assert captured.out == ""
    assert "need n > m >= 1" in captured.err
