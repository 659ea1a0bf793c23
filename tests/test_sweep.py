import pytest

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

