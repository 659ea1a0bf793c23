"""quadzero benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* batch       a fixed pool of generic instances from the acceptance-suite
              distribution in seeded order, each solved with find_zeros
              (closed loop, one caller);
* sweep       the criterion-9 (b, c) grid through run_sweep at 1 and at 2
              workers, as four quarter grids in seeded order;
* degenerate  the |b| -> 1 cliff, |c| = 1 singular and near-singular
              families, one find_zeros call per case under a wall-clock cap.

Every workload also runs a small sweep at 1 and 2 workers (so sweep
throughput exists for each) and times `python -m quadzero.cli radius` cold
starts, spread over the run.  Every time is scaled by a machine-speed
index sampled next to it (see Speed).  Every output is checked
(checks.py); failures are counted by reason on stderr, and in `failed`
and ok_frac.  `correct` is false only for a confident wrong answer: a
failed check on a report whose winding check passed, a sweep CSV that
depends on the worker count, or a wrong CLI answer.  A failed check on an
answer quadzero itself marks as failed or inconclusive (the |c| = 1 cases,
for one) is a failed operation, not an incorrect run: that is the defect
`degenerate` exists to measure.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed work list
twice, untraced and then traced from this file's own wrappers (tracing.py),
prints the per-layer metrics (times not scaled) and writes the spans to
.perfbench_out/trace-<workload>-<seed>.jsonl.  The last line of stdout is
one JSON object; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import CaseTimeout, Tracer  # noqa: E402

perf = time.perf_counter

CASE_CAP_S = 5.0  # wall-clock cap per degenerate case
# Traced runs cap a case by Newton steps instead, so that the counts repeat
# exactly.  b = 1.02 (k = n = 3, c = 2) takes about 0.55 M steps and stays
# under it; b = 1.01 takes about 3 M and hits it, as it hits CASE_CAP_S.
TRACE_NEWTON_CAP = 1_200_000
SETUP_REPEATS = 25
SIDE_RUNS = 10  # side rounds per run: CLI cold starts and, on batch and degenerate, a probe sweep pair
CLI_PER_ROUND = 2
CLI_PARAMS = (0.5, 2.0, 4, 2, 1)
CLI_ARGS = ["radius", "--b", "0.5", "--c", "2", "--k", "4", "--n", "2", "--m", "1"]
BATCH_PER_S = 18  # batch pool size per --seconds; a 40 s run (720 instances) takes 28-40 s on a 2-vCPU VM
MIN_BATCH = 50  # batch instances timed at least, however short --seconds is
TRACE_BATCH = 200  # batch pool of a traced run
OUT_DIR = ROOT / ".perfbench_out"
SWEEP_PASS_S = 20  # the sweep workload makes one pass over its grid per this many --seconds
NOMINAL_CAL_S = 6.7e-4  # speed-index loop time that scale 1 stands for
NOMINAL_BARE_S = 0.05  # `python -c pass` start-up at the same nominal speed
SAMPLE_PERIOD_S = 0.02  # CPU time between speed samples inside a measured call
_CAL_PARAMS = (2.0, 3.0, 4, 3, 1)
_CAL_POINTS = [complex(0.03 * i, 0.021 * i) for i in range(1000)]


def _alarm(signum, frame):
    raise CaseTimeout(f"over the {CASE_CAP_S} s cap")


class Speed:
    """Machine-speed index, sampled next to every timed operation.

    On a shared 2-vCPU virtual machine the CPU speed drifts by +-30 % over
    seconds to minutes, and CPU time drifts with it: far more than any
    bound a useful benchmark can allow.  So a fixed pure-Python loop (the benchmark's own
    q at 1000 points, no quadzero code) is timed next to each timed
    operation, and the operation's time is multiplied by the scale
    NOMINAL_CAL_S / (loop time): every reported time is given at the speed
    at which that loop takes NOMINAL_CAL_S.  A change to quadzero cannot
    move the index.  CLI cold starts are scaled the same way by a bare
    `python -c pass` start-up timed next to each, since process start-up
    does not slow down in step with the loop.

    The speed changes within a second, so a single find_zeros call of a few
    seconds is timed with `measure`, which also runs the loop inside the
    call, every SAMPLE_PERIOD_S of CPU time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    @staticmethod
    def loop_time() -> float:
        """One run of the loop, not recorded; safe from any thread."""
        t0 = perf()
        for z in _CAL_POINTS:
            checks.q(_CAL_PARAMS, z)
        return perf() - t0

    def _loop(self) -> float:
        dt = self.loop_time()
        self.samples.append(dt)
        self.spent += dt
        return dt

    def tick(self, times: int = 1) -> float:
        """Time the loop `times` times; returns the scale for work done now."""
        return NOMINAL_CAL_S / statistics.median(self._loop() for _ in range(times))

    @contextlib.contextmanager
    def measure(self, out: list):
        """Append to `out` the block's time at nominal speed.

        The loop runs before and after the block and, from a SIGPROF
        handler, inside it; the block's wall time less the loops run inside
        it is scaled by the mean loop time, which weights each stretch of
        the block by its length.  Only for blocks that run on the main
        thread: a loop run while worker threads hold the GIL measures them.
        """
        first = len(self.samples)
        self._loop()
        spent = self.spent
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self._loop())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            seconds = perf() - t0 - (self.spent - spent)
            self._loop()
            out.append(seconds * NOMINAL_CAL_S / statistics.fmean(self.samples[first:]))


class Tally:
    """Operations attempted and failed, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.confident_wrong = 0  # failed checks on certified answers
        self.solved = 0  # find_zeros calls made, directly or as sweep cells
        self.certified = 0  # ... whose winding check passed

    def record(self, reasons, confident=True):
        """Count one operation.  confident=False marks an answer quadzero
        itself did not certify: failing it is counted, but is not a wrong
        answer given with confidence."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)
            self.confident_wrong += confident

    def solve_outcome(self, report):
        self.solved += 1
        self.certified += report is not None and report.winding_check == "passed"

    def merge(self, other):
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


# --- setup ---------------------------------------------------------------


def import_quadzero():
    """A fresh import of quadzero from this checkout's src/."""
    for name in [n for n in sys.modules if n == "quadzero" or n.startswith("quadzero.")]:
        del sys.modules[name]
    qz = importlib.import_module("quadzero")
    mods = {name: importlib.import_module(f"quadzero.{name}")
            for name in ("model", "bounds", "contour", "solver", "sweep")}
    return qz, mods


def make_inputs(workload: str, seed: int, batch_size: int):
    if workload == "batch":
        return workloads.batch_instances(seed, batch_size)
    if workload == "sweep":
        return workloads.sweep_grid(seed)
    with open(HERE / "reference.json") as fh:
        counts = json.load(fh)["counts"]
    return [(family, params, counts[workloads.case_key(params)])
            for family, params in workloads.degenerate_cases(seed)]


def setup(workload: str, seed: int, batch_size: int, speed: Speed):
    """Import, build inputs and warm up, SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        with speed.measure(times):
            qz, mods = import_quadzero()
            inputs = make_inputs(workload, seed, batch_size)
            qz.find_zeros(qz.HarmonicQuadrinomial(0.0, 0.0, 1, 3, 1))
    return statistics.median(times), qz, mods, inputs


# --- operations ----------------------------------------------------------


def solve(qz, params, tally, reference=None, cap=None, tracer=None, speed=None):
    """One checked find_zeros call; returns (seconds, report or None).

    With speed, the seconds are at nominal speed (Speed.measure)."""
    p = qz.HarmonicQuadrinomial(*params)
    report, reasons = None, []
    span = tracer.open("solver.find_zeros", True, params=list(params)) if tracer else None
    nominal = []
    t0 = perf()
    try:
        with speed.measure(nominal) if speed else contextlib.nullcontext():
            if cap is not None:
                signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                report = qz.find_zeros(p)
            finally:
                if cap is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        reasons = ["timeout"]
    except Exception as exc:  # any exception is a failed operation
        reasons = [f"exception:{type(exc).__name__}"]
    finally:
        seconds = nominal[0] if nominal else perf() - t0
        if span is not None:
            span[6]["status"] = reasons[0] if reasons else "ok"
            if report is not None:
                span[6]["zeros"] = report.count
            tracer.close(span)
    if report is not None:
        reasons = checks.check_report(params, report, reference)
    tally.record(reasons, confident=report is not None and report.winding_check == "passed")
    tally.solve_outcome(report)
    return seconds, report


def sweep(qz, grid, workers, tally, tracer=None):
    """One checked run_sweep call; returns (seconds, cells, csv lines)."""
    (b_lo, b_hi, b_n), (c_lo, c_hi, c_n) = grid
    degrees = workloads.SWEEP_DEGREES
    span = tracer.open("sweep.run_sweep", workers=workers) if tracer else None
    if span is not None:
        tracer.root_parent = span[0]
    t0 = perf()
    try:
        result = qz.run_sweep(qz.Axis(b_lo, b_hi, b_n), qz.Axis(c_lo, c_hi, c_n),
                              *degrees, threads=workers)
        lines = qz.sweep_csv_lines(result)
    finally:
        seconds = perf() - t0
        if span is not None:
            tracer.root_parent = None
            tracer.close(span)
    for cell in result.cells:
        if cell.report is None:
            tally.record([f"cell-{cell.winding_check}"], confident=False)
        else:
            tally.record(checks.check_report((cell.b, cell.c, *degrees), cell.report),
                         confident=cell.winding_check == "passed")
        tally.solve_outcome(cell.report)
    return seconds, len(result.cells), lines


def sweep_pair(qz, grid, tally, sweeps, tracer=None, cell_times=None, speed=None):
    """Sweep at 1 then at 2 workers; the two CSVs must match byte for byte.

    Appends (cells, seconds) to sweeps[workers].  With speed, the seconds
    are scaled by the mean speed-index loop time over the loops run
    before, during and after each sweep.
    cell_times=(quadzero.sweep module, list) also times each cell of the
    1-worker sweep from outside, by swapping the module's find_zeros for a
    call timed with Speed.measure, whose loops inside the cells also feed
    the 1-worker rate.  In the 2-worker sweep the swapped find_zeros runs
    one loop in the worker thread before each cell instead; the rate is
    scaled by the median of those loops, since a loop that the other worker
    interrupts for the GIL reads long.  Loop time is taken out of the
    sweep's time.  Returns {workers: seconds}.
    """
    seconds, lines = {}, {}
    for workers in (1, 2):
        if speed:
            speed.tick(3)
            first, spent = len(speed.samples) - 3, speed.spent
        in_workers = []
        with _cell_timer(cell_times, speed, in_workers if workers == 2 else None):
            seconds[workers], cells, lines[workers] = sweep(qz, grid, workers, tally, tracer)
        k = 1.0
        if speed and in_workers:
            seconds[workers] -= len(in_workers) * statistics.median(in_workers)
            speed.tick(3)
            k = NOMINAL_CAL_S / statistics.median(speed.samples[first:] + in_workers)
        elif speed:
            seconds[workers] -= speed.spent - spent
            speed.tick(3)
            k = NOMINAL_CAL_S / statistics.fmean(speed.samples[first:])
        sweeps[workers].append((cells, seconds[workers] * k))
    tally.record([] if lines[1] == lines[2] else ["csv-mismatch"])
    return seconds


@contextlib.contextmanager
def _cell_timer(target, speed, in_workers=None):
    if target is None:
        yield
        return
    module, times = target
    inner = module.find_zeros

    def timed(*args, **kwargs):
        if in_workers is not None:
            in_workers.append(speed.loop_time())
            return inner(*args, **kwargs)
        with speed.measure(times):
            return inner(*args, **kwargs)

    module.find_zeros = timed
    try:
        yield
    finally:
        module.find_zeros = inner


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def bare_start():
    """Wall time of a bare `python -c pass`, the CLI's speed reference."""
    t0 = perf()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=_subprocess_env(),
                   capture_output=True, timeout=60, check=True)
    return perf() - t0


def cli_cold_start(tally, expected):
    """Wall time of one `python -m quadzero.cli radius ...`, output checked."""
    t0 = perf()
    proc = subprocess.run([sys.executable, "-m", "quadzero.cli", *CLI_ARGS],
                          cwd=ROOT, env=_subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    seconds = perf() - t0
    tally.record(["cli-exit"] if proc.returncode else
                 checks.check_radius_json(proc.stdout, expected))
    return seconds


def cli_import_ms():
    """Median time to import quadzero.cli in a fresh interpreter, in ms."""
    code = ("import time; t = time.perf_counter(); import quadzero.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SIDE_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout) * 1e3)
    return statistics.median(times)


# --- untraced run: end-to-end metrics ------------------------------------


def run_plain(workload, seconds, qz, mods, inputs, tally, side, speed):
    """Measure for about `seconds`; returns (latencies, {workers: sweeps},
    CLI start-up times, bare interpreter start-up times).

    Every workload does a fixed amount of work, sized for about `seconds`
    (`batch` its whole pool), so that the same seed always makes the same
    operations.  The workload's own find_zeros answers are counted in
    `tally`, the side measurements in `side`.  The side measurements (CLI
    cold starts and, except on `sweep`, the small sweeps) are spread evenly
    over the run rather than bunched at its end, so that a slow spell of a
    shared machine weighs on every metric alike instead of on one.
    """
    latencies, sweeps, cli, bare = [], {1: [], 2: []}, [], []
    expected = qz.radius_bound(qz.HarmonicQuadrinomial(*CLI_PARAMS)).radius
    start = perf()

    def sides(due):
        while len(cli) < SIDE_RUNS * CLI_PER_ROUND and due(len(cli) // CLI_PER_ROUND):
            for _ in range(CLI_PER_ROUND):
                bare.append(bare_start())
                cli.append(cli_cold_start(side, expected))
            if workload != "sweep":  # cells timed only for their speed samples
                sweep_pair(qz, workloads.PROBE_GRID, side, sweeps,
                           cell_times=(mods["sweep"], []), speed=speed)

    def on_time(done):
        return perf() - start >= done * seconds / SIDE_RUNS

    if workload == "batch":
        for i, params in enumerate(inputs):
            sides(lambda done: i * SIDE_RUNS >= done * len(inputs))
            latencies.append(solve(qz, params, tally, speed=speed)[0])
    elif workload == "degenerate":
        for _, params, ref in inputs:
            sides(on_time)
            timeouts = tally.reasons["timeout"]
            seconds_used = solve(qz, params, tally, ref, CASE_CAP_S, speed=speed)[0]
            # a case stopped by the cap is recorded as taking the cap
            latencies.append(CASE_CAP_S if tally.reasons["timeout"] > timeouts
                             else seconds_used)
    else:
        for _ in range(max(1, seconds // SWEEP_PASS_S)):
            for grid in inputs:
                sides(on_time)
                sweep_pair(qz, grid, tally, sweeps, cell_times=(mods["sweep"], latencies),
                           speed=speed)
    sides(lambda done: True)
    return latencies, sweeps, cli, bare


def instance_rate(latencies):
    """find_zeros calls per second of solving, leaving out the slowest 5 %
    (solve_p95_ms reports that tail).  Over a run of a thousand calls of
    about 10 ms, a handful of 1-4 s calls near |c| = 1 would otherwise set
    the rate."""
    kept = sorted(latencies)[:max(1, math.ceil(0.95 * len(latencies)))]
    return len(kept) / sum(kept)


def cell_rate(sweeps):
    """Cells per second over all of a run's sweeps at one worker count.
    Not a median of per-sweep rates: the quarter grids of `sweep` differ in
    cost by up to 40 %, so a median would jump between quarters."""
    return sum(cells for cells, _ in sweeps) / sum(seconds for _, seconds in sweeps)


def plain_metrics(workload, seconds, setup_s, qz, mods, inputs, tally, speed):
    """End-to-end metrics, every time scaled by the speed index (Speed).
    ok_frac and certified_frac cover the workload's own find_zeros answers
    only, so that one more failed case moves them."""
    own = Tally()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies, sweeps, cli, bare = run_plain(workload, seconds, qz, mods, inputs, own,
                                            tally, speed)
    values = {
        "setup_s": (setup_s, "s"),
        "solve_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "solve_p95_ms": (
            statistics.quantiles(latencies, n=20, method="inclusive")[18] * 1e3, "ms"),
        "instances_per_s": (instance_rate(latencies), "1/s"),
        "sweep_cells_per_s_w1": (cell_rate(sweeps[1]), "1/s"),
        "sweep_cells_per_s_w2": (cell_rate(sweeps[2]), "1/s"),
        "cli_cold_start_ms": (
            statistics.median(c / b for c, b in zip(cli, bare)) * NOMINAL_BARE_S * 1e3, "ms"),
        "ok_frac": (1.0 - own.failed / own.attempted, "fraction"),
        "certified_frac": (own.certified / own.solved, "fraction"),
        "setup_rss_mb": (rss_mb, "MB"),
    }
    print(f"{workload}: {len(latencies)} timed find_zeros calls, "
          f"{len(sweeps[1])} sweep pairs, median speed scale "
          f"{NOMINAL_CAL_S / statistics.median(speed.samples):.4f}", file=sys.stderr)
    tally.merge(own)
    return values


# --- traced run: per-layer metrics ---------------------------------------


def trace_work(workload, qz, inputs, tally, tracer=None):
    """The fixed work list of a traced run; returns {op: seconds} for ops
    that finished.  Without a tracer, degenerate cases get the wall-clock
    cap; with one, the tracer's Newton-step cap."""
    walls = {}
    cases = []
    if workload == "batch":
        cases = [(params, None) for params in inputs]
    elif workload == "degenerate":
        cases = [(params, ref) for _, params, ref in inputs]
    cap = CASE_CAP_S if workload == "degenerate" and tracer is None else None
    for i, (params, ref) in enumerate(cases):
        seconds, report = solve(qz, params, tally, ref, cap, tracer)
        if report is not None:
            walls[("solve", i)] = seconds
    grids = inputs if workload == "sweep" else [workloads.PROBE_GRID]
    for g, grid in enumerate(grids):
        for workers, seconds in sweep_pair(qz, grid, tally, {1: [], 2: []}, tracer).items():
            walls[("sweep", g, workers)] = seconds
    return walls


def install_wrappers(tracer, mods):
    def radius(attrs, disk):
        attrs.update(radius=disk.radius, source=disk.source.value)

    def winding(attrs, rep):
        attrs.update(samples=rep.samples_used, refined=rep.refined)

    def zeros(attrs, report):
        attrs.update(zeros=report.count)

    solver = mods["solver"]
    tracer.wrap(solver, "radius_bound", "bounds.radius_bound", record=radius)
    tracer.wrap(solver, "count_bound", "bounds.count_bound")
    tracer.wrap(solver, "winding_number", "contour.winding_number", record=winding)
    for attr in ("newton_step", "evaluate", "classify_point", "jacobian"):
        tracer.wrap(solver, attr, f"solver.{attr}", hot=True)
    tracer.wrap(mods["bounds"], "positive_root_bracketed", "realroots.positive_root_bracketed")
    tracer.wrap(mods["contour"], "evaluate", "contour.evaluate", hot=True)
    tracer.wrap(mods["sweep"], "find_zeros", "solver.find_zeros", record=zeros,
                new_instance=True)


def layer_metrics(tr: Tracer, overhead_s: float, import_ms: float, workload: str):
    spans = {s[0]: s for s in tr.spans}
    selfs = tr.self_times()

    def named(name):
        return [s for s in tr.spans if s[3] == name and s[5] is not None]

    def dur(s):
        return s[5] - s[4]

    def calls(name):
        return sum(v[0] for (_, _, n), v in tr.agg.items() if n == name)

    steps = Counter()  # instance -> Newton steps
    evals = Counter()
    for (sid, _, name), (count, _) in tr.agg.items():
        inst = spans[sid][2]
        if name == "solver.newton_step":
            steps[inst] += count
        elif name in ("solver.evaluate", "contour.evaluate"):
            evals[inst] += count
    solves = named("solver.find_zeros")
    done = [s for s in solves if "zeros" in s[6]]
    zeros = sum(s[6]["zeros"] for s in done)
    disks = named("bounds.radius_bound")
    roots = named("realroots.positive_root_bracketed")
    windings = named("contour.winding_number")
    sweeps = {w: [s for s in named("sweep.run_sweep") if s[6]["workers"] == w]
              for w in (1, 2)}
    cells = {w: [s for s in solves if s[1] in {sw[0] for sw in sweeps[w]}]
             for w in (1, 2)}
    w2_wall = sum(dur(s) for s in sweeps[2])

    if workload == "degenerate":
        for s in solves:
            if "params" in s[6]:
                print(f"  {s[6]['params']}: {s[6].get('status', 'ok')}, "
                      f"{steps[s[2]]} Newton steps, {evals[s[2]]} evaluations, "
                      f"{dur(s):.2f} s traced", file=sys.stderr)

    return {
        "solver.newton_steps": (sum(steps.values()), "count"),
        "solver.newton_steps_per_zero": (
            sum(steps[s[2]] for s in done) / max(zeros, 1), "count"),
        "solver.newton_degenerate": (
            tr.errors[("solver.newton_step", "DegenerateJacobian")], "count"),
        "solver.self_ms": (sum(selfs[s[0]] for s in solves) * 1e3, "ms"),
        "model.evaluate_calls": (sum(evals.values()), "count"),
        "bounds.radius_bound_us": (
            statistics.mean(dur(s) for s in disks) * 1e6, "us"),
        "bounds.disk_radius_max": (
            max(s[6]["radius"] for s in disks if "radius" in s[6]), "radius"),
        "bounds.fallback_frac": (
            sum(s[6].get("source") == "FallbackCauchy" for s in disks) / len(disks),
            "fraction"),
        "realroots.calls": (len(roots), "count"),
        "realroots.self_ms": (sum(selfs[s[0]] for s in roots) * 1e3, "ms"),
        "contour.winding_ms": (sum(dur(s) for s in windings) * 1e3, "ms"),
        "contour.samples_used": (sum(s[6].get("samples", 0) for s in windings), "count"),
        "contour.refined_frac": (
            sum(bool(s[6].get("refined")) for s in windings) / max(len(windings), 1),
            "fraction"),
        "solver.hot_self_ms": (
            sum(tr.hot_self(n) for n in ("solver.newton_step", "solver.evaluate",
                                         "solver.classify_point", "solver.jacobian"))
            * 1e3, "ms"),
        "sweep.busy_s": (sum(dur(s) for s in cells[2]), "s"),
        "sweep.parallel_efficiency_w2": (
            sum(dur(s) for s in cells[1]) / (2 * w2_wall), "fraction"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def traced_metrics(workload, seed, qz, mods, inputs, tally):
    untraced = trace_work(workload, qz, inputs, tally)
    with Tracer(newton_cap=TRACE_NEWTON_CAP) as tracer:
        install_wrappers(tracer, mods)
        traced = trace_work(workload, qz, inputs, tally, tracer)
    both = untraced.keys() & traced.keys()
    overhead = sum(traced[k] - untraced[k] for k in both)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    tracer.write(path)
    print(f"{workload}: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    return layer_metrics(tracer, overhead, cli_import_ms(), workload)


# --- entry point ----------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("batch", "sweep", "degenerate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "quadzero" / "__init__.py").is_file():
        print(f"run.py: no quadzero sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    speed = Speed()
    batch_size = TRACE_BATCH if args.trace else max(MIN_BATCH, BATCH_PER_S * args.seconds)
    setup_s, qz, mods, inputs = setup(args.workload, args.seed, batch_size, speed)
    tally = Tally()
    if args.trace:
        values = traced_metrics(args.workload, args.seed, qz, mods, inputs, tally)
    else:
        values = plain_metrics(args.workload, args.seconds, setup_s, qz, mods,
                               inputs, tally, speed)
    for name, (value, unit) in values.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"  {tally.attempted} operations checked, {tally.failed} failed: "
          f"{dict(sorted(tally.reasons.items()))}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.confident_wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
