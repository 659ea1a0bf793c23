"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

QUINTET = (0.0, 0.0, 1, 3, 1)  # zeros 0 and the 4th roots of -1
TINY_GRID = ((0.5, 3.0, 2), (-2.0, 2.0, 2))


@pytest.fixture(scope="module")
def qz():
    return run.import_quadzero()


def _report(qz, params):
    return qz[0].find_zeros(qz[0].HarmonicQuadrinomial(*params))


def test_correct_report_passes(qz):
    assert checks.check_report(QUINTET, _report(qz, QUINTET), reference=5) == []


def test_zero_outside_disk_is_flagged(qz):
    report = _report(qz, QUINTET)
    far = dataclasses.replace(report.zeros[0], location=complex(report.disk.radius + 1, 0))
    bad = dataclasses.replace(report, zeros=(far,) + report.zeros[1:])
    assert "outside-disk" in checks.check_report(QUINTET, bad)


def test_count_above_proven_bound_is_flagged(qz):
    report = _report(qz, QUINTET)  # b = 0: at most 3n - 2 = 7 zeros
    extra = tuple(dataclasses.replace(report.zeros[0], location=complex(0.1 * j, 0.3))
                  for j in range(1, 4))
    bad = dataclasses.replace(report, zeros=report.zeros + extra, count=8)
    assert "above-proven-bound" in checks.check_report(QUINTET, bad)


def test_wrong_orientation_and_reference_count_are_flagged(qz):
    report = _report(qz, QUINTET)
    flipped = tuple(
        dataclasses.replace(r, orientation=qz[1]["model"].OrientationClass.SENSE_PRESERVING)
        for r in report.zeros)
    reasons = checks.check_report(QUINTET, dataclasses.replace(report, zeros=flipped),
                                  reference=6)
    assert "orientation" in reasons and "count-mismatch" in reasons


def test_differing_sweep_csv_is_flagged(qz):
    real = qz[0].sweep_csv_lines
    calls = []

    def numbered(grid):
        calls.append(grid)
        return real(grid) + [str(len(calls))]

    for lines, failures in ((real, 0), (numbered, 1)):
        fake = SimpleNamespace(Axis=qz[0].Axis, run_sweep=qz[0].run_sweep,
                               sweep_csv_lines=lines)
        tally = run.Tally()
        run.sweep_pair(fake, TINY_GRID, tally, {1: [], 2: []})
        assert tally.reasons["csv-mismatch"] == failures
        assert tally.failed == failures


def test_case_over_the_cap_is_a_timeout(qz):
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        tally = run.Tally()
        seconds, report = run.solve(qz[0], (1.01, 2.0, 3, 3, 1), tally, 5, cap=0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert report is None and seconds < 1.0
    assert tally.reasons == {"timeout": 1} and tally.confident_wrong == 0


def test_trace_wrappers_are_restored(qz):
    mods = qz[1]
    names = [(mods["solver"], a) for a in ("radius_bound", "count_bound", "newton_step",
                                           "evaluate", "winding_number",
                                           "classify_point", "jacobian")]
    names += [(mods["bounds"], "positive_root_bracketed"), (mods["contour"], "evaluate"),
              (mods["sweep"], "find_zeros")]
    before = [getattr(m, a) for m, a in names]
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            run.install_wrappers(tracer, mods)
            assert all(getattr(m, a) is not f for (m, a), f in zip(names, before))
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is f for (m, a), f in zip(names, before))


def test_traced_counts_repeat(qz):
    def counts():
        with Tracer() as tracer:
            run.install_wrappers(tracer, qz[1])
            run.solve(qz[0], (2.0, 3.0, 4, 3, 1), run.Tally(), tracer=tracer)
        return dict(tracer.agg), [s[6] for s in tracer.spans]

    first, second = counts(), counts()
    assert {k: v[0] for k, v in first[0].items()} == {k: v[0] for k, v in second[0].items()}
    assert first[1] == second[1]


def test_seed_fixes_the_inputs():
    def batch(seed):
        return workloads.batch_instances(seed, 200)

    assert batch(1) == batch(1) and batch(1) != batch(2)
    assert sorted(batch(1)) == sorted(batch(2)) == sorted(workloads.batch_pool(200))
    assert workloads.sweep_grid(1) == workloads.sweep_grid(1) != workloads.sweep_grid(2)
    cases = {seed: workloads.degenerate_cases(seed) for seed in range(6)}
    assert cases[0] == workloads.degenerate_cases(0)
    assert len({tuple(c) for c in cases.values()}) > 1


def test_batch_follows_the_acceptance_distribution():
    batch = workloads.batch_pool(2000)
    for b, c, k, n, m in batch:
        assert 3 <= k <= 7 and 2 <= n < k and 1 <= m < n
        assert 0.1 <= abs(b) <= 5.0 and 0.1 <= abs(c) <= 5.0
    # P(k = 3) = 1/5 and P(k = 7, n = 6, m = 1) = 1/125; about half of b < 0
    assert abs(sum(p[2] == 3 for p in batch) / 2000 - 0.2) < 0.01
    assert abs(sum(p[2:] == (7, 6, 1) for p in batch) / 2000 - 0.008) < 0.003
    assert abs(sum(p[0] < 0 for p in batch) / 2000 - 0.5) < 0.02


def test_measure_scales_and_restores_the_profiling_timer():
    speed = run.Speed()
    out = []
    before = signal.getsignal(signal.SIGPROF)
    with speed.measure(out):
        sum(i * i for i in range(300_000))
    assert len(out) == 1 and out[0] > 0 and len(speed.samples) >= 2
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_every_degenerate_case_has_a_reference():
    counts = json.loads((HERE / "reference.json").read_text())["counts"]
    assert {workloads.case_key(p) for p in workloads.degenerate_pool()} <= counts.keys()


def test_benchmark_json_says_why_each_workload_was_chosen():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    assert sorted(names) == ["batch", "degenerate", "sweep"]
    assert all(w["why"].strip() and "\n" not in w["why"] for w in doc["workloads"])


def test_vectorised_dedup_matches_the_greedy_pass():
    np = pytest.importorskip("numpy")
    import oracle

    rng = np.random.default_rng(3)
    centres = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    pts = np.repeat(centres, 40) + (rng.normal(size=240) + 1j * rng.normal(size=240)) * 4e-7
    roots = []
    for w in pts[np.lexsort((pts.imag, pts.real))]:
        if all(abs(w - r) > 1e-6 for r in roots):
            roots.append(w)
    assert oracle.distinct_count(pts) == len(roots)
