import concurrent.futures

import pytest

from quadzero import sweep
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
        violation = r.bound.upper_is_proven and r.n_certified > r.bound.upper
        assert row["violation"] == str(violation).lower()


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
    "threads, cpus, constants, b_steps, c_steps, pool_size",
    [
        # A 3-cell grid with a pool from one cell at one cell per worker,
        # so the other caps decide: one worker per b-row at most, one per
        # CPU at most, and no pool when the CPU count is unknown.
        pytest.param(10_000, 64, (1, 1), 3, 1, 3, id="10000-64-3"),
        pytest.param(8, 2, (1, 1), 3, 1, 2, id="8-2-2"),
        pytest.param(8, None, (1, 1), 3, 1, None, id="8-None-None"),
        pytest.param(1, 64, (1, 1), 3, 1, None, id="1-64-None"),
        # (_MIN_POOL_CELLS, _MIN_CELLS_PER_WORKER) on a 12-cell grid: one
        # worker per share at most, and no pool below the threshold.
        pytest.param(8, 64, (1, 13), 4, 3, None, id="8-64-None-below-one-share"),
        pytest.param(8, 64, (1, 6), 4, 3, 2, id="8-64-2-two-shares"),
        pytest.param(8, 64, (13, 1), 4, 3, None, id="8-64-None-below-threshold"),
        # The real constants: a 10x10 grid runs in this process, and a
        # 20x20 one on as many workers as asked for, up to 8.
        pytest.param(2, 2, None, 10, 10, None, id="2-2-None-10x10"),
        pytest.param(2, 2, None, 20, 20, 2, id="2-2-2-20x20"),
        pytest.param(8, 8, None, 20, 20, 8, id="8-8-8-20x20"),
    ],
)
def test_worker_count_is_capped(
    monkeypatch, pool_sizes, threads, cpus, constants, b_steps, c_steps, pool_size
):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    if constants is not None:
        monkeypatch.setattr(sweep, "_MIN_POOL_CELLS", constants[0])
        monkeypatch.setattr(sweep, "_MIN_CELLS_PER_WORKER", constants[1])
    # Only the rows' order matters here, so no cell is solved.
    monkeypatch.setattr(
        sweep, "_solve_row", lambda b, cs, k, n, m: [sweep.SweepCell(b, c, None) for c in cs]
    )
    b_axis, c_axis = Axis(2, 4, b_steps), Axis(3, 4, c_steps)
    grid = run_sweep(b_axis, c_axis, 3, 2, 1, threads=threads)
    assert pool_sizes == ([] if pool_size is None else [pool_size])
    assert [(cell.b, cell.c) for cell in grid.cells] == [
        (b, c) for b in b_axis.values() for c in c_axis.values()
    ]


@pytest.mark.parametrize("threads", [0, -1])
def test_fewer_than_one_worker_is_refused(pool_sizes, threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_sweep(Axis(2, 4, 3), Axis(3, 3, 1), 3, 2, 1, threads=threads)
    assert pool_sizes == []


def test_process_pool_returns_the_serial_reports(monkeypatch):
    # b = 1 with k = n gives unavailable cells, c = -1 a singular origin
    # (|c| = 1, m = 1), b = 2 or 3 with c = 3 regular cells.
    # A real pool on any host, for all six cells.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(sweep, "_MIN_POOL_CELLS", 1)
    monkeypatch.setattr(sweep, "_MIN_CELLS_PER_WORKER", 1)
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
    monkeypatch.setattr(sweep, "_MIN_POOL_CELLS", 1)
    monkeypatch.setattr(sweep, "_MIN_CELLS_PER_WORKER", 1)
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


def test_small_cli_sweep_runs_in_process(capsys, monkeypatch, pool_sizes):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    outputs = []
    for threads in ("1", "2"):
        code = main(["sweep", "--b-range", "0.5:3:4", "--c-range=-2:2:4",
                     "--k", "3", "--n", "2", "--m", "1", "--threads", threads])
        outputs.append((code, capsys.readouterr()))
    assert pool_sizes == []
    assert outputs[0] == outputs[1]
    code, captured = outputs[0]
    assert code == 0
    assert len(captured.out.splitlines()) == 1 + 16
