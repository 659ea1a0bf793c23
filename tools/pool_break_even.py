"""Times run_sweep at 1 worker against a forced 2-worker pool, under fork
and under forkserver, to find the grid size from which the pool pays.

    python3 tools/pool_break_even.py --out BENCH_34.json
    python3 tools/pool_break_even.py --sides 4 10 --pairs 1    # a quick check

The grids are the criterion-9 family (b from 0.5 to 3, c from -2 to 2,
k=3 n=2 m=1) at SIDE x SIDE cells, 10 12 14 16 20 by default: 100, 144,
196, 256 and 400 cells.  The pool is forced by setting
`sweep._MIN_POOL_CELLS` and `sweep._MIN_CELLS_PER_WORKER` to 1 in this
tool's processes only, so the measurement does not depend on the
constants it is used to set.  For each
start method and size it runs two kinds of set, PAIRS pairs each, the
1-worker sweep first in odd pairs and the 2-worker one first in even
pairs:

* `warm`: both sweeps in this process, after one untimed sweep at each
  worker count, so imports are done and, under forkserver, the server
  is running;
* `fresh`: each sweep in a new interpreter, as `quadzero sweep` runs:
  the pool's imports and, under forkserver, its server start are paid
  by every sweep.

Each sweep is timed around the run_sweep call alone.  Per set it gives
the median and quartiles (inclusive method) of the 2-worker/1-worker wall
ratio of each pair, and of each side's seconds.  It also times an empty
2-worker pool (two no-op tasks, from the import of concurrent.futures to
shutdown) PAIRS times per method, once per fresh interpreter and in the
warm process.  `break_even` gives, per method, the largest size whose
fresh median ratio is 1 or more and the smallest from which every fresh
median is below 1; a pool starts at _MIN_POOL_CELLS cells.

Every sweep's CSV must be byte-identical to the 1-worker one of its
size: the tool exits 1 on the first mismatch.  It makes no timing
assertion.  The summary goes under `pool` in the --out JSON file (other
keys are kept), or to stdout.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import summary

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

METHODS = ("fork", "forkserver")
DEGREES = (3, 2, 1)


def sweep_once(side: int, workers: int) -> tuple[float, str]:
    """One criterion-9-family sweep at side x side cells: (seconds of the
    run_sweep call, md5 of its CSV).  Side 0 times an empty pool instead.

    quadzero is imported here, not at the top: forkserver preloads this
    script in its server, and workers should import what a CLI worker
    imports."""
    if side == 0:
        t0 = time.perf_counter()
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(abs, (0, 0)))
        return time.perf_counter() - t0, ""
    from quadzero import sweep

    sweep._MIN_POOL_CELLS = sweep._MIN_CELLS_PER_WORKER = 1
    b_axis, c_axis = sweep.Axis(0.5, 3.0, side), sweep.Axis(-2.0, 2.0, side)
    t0 = time.perf_counter()
    grid = sweep.run_sweep(b_axis, c_axis, *DEGREES, threads=workers)
    seconds = time.perf_counter() - t0
    csv = "\n".join(sweep.sweep_csv_lines(grid)).encode()
    return seconds, hashlib.md5(csv).hexdigest()


def sweep_fresh(method: str, side: int, workers: int) -> tuple[float, str]:
    """sweep_once in a new interpreter started by this tool's --child."""
    cmd = [sys.executable, __file__, "--child", method, str(side), str(workers)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return tuple(json.loads(done.stdout))


def pair_set(run, side: int, pairs: int, label: str) -> dict:
    """PAIRS alternated 1-/2-worker pairs of run(side, workers); the CSVs
    must all match."""
    seconds = {1: [], 2: []}
    digests = set()
    for i in range(pairs):
        for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
            s, md5 = run(side, workers)
            seconds[workers].append(s)
            digests.add(md5)
    if len(digests) != 1:
        raise SystemExit(f"{label}, {side * side} cells: the CSV depends on the "
                         f"worker count ({len(digests)} different md5s)")
    print(f"{label}, {side * side} cells: {pairs} pairs", file=sys.stderr)
    ratios = [w2 / w1 for w1, w2 in zip(seconds[1], seconds[2])]
    return {
        "w2_over_w1": {"values": ratios, **summary(ratios)},
        "w1_s": summary(seconds[1]),
        "w2_s": summary(seconds[2]),
        "csv_md5": digests.pop(),
    }


def break_even(sets: dict) -> dict:
    """From fresh medians by cell count: the largest size where 2 workers
    do not win, and the smallest from which they win at every size."""
    sizes = sorted(int(cells) for cells in sets)
    losing = [n for n in sizes if sets[str(n)]["w2_over_w1"]["median"] >= 1.0]
    last_loss = max(losing, default=None)
    winning = [n for n in sizes if last_loss is None or n > last_loss]
    return {"lose_at": last_loss, "win_from": min(winning, default=None)}


def measure(method: str, sides: list[int], pairs: int) -> dict:
    multiprocessing.set_start_method(method, force=True)
    out = {"empty_pool_s": {}, "warm": {}, "fresh": {}}
    out["empty_pool_s"]["fresh"] = summary(
        [sweep_fresh(method, 0, 2)[0] for _ in range(pairs)])
    # The first sweeps in this process import, and start forkserver's
    # server; they are not timed.
    sweep_once(sides[0], 1)
    sweep_once(sides[0], 2)
    out["empty_pool_s"]["warm"] = summary([sweep_once(0, 2)[0] for _ in range(pairs)])
    for side in sides:
        out["warm"][str(side * side)] = pair_set(sweep_once, side, pairs, f"{method} warm")
        out["fresh"][str(side * side)] = pair_set(
            lambda s, w: sweep_fresh(method, s, w), side, pairs, f"{method} fresh")
    out["break_even"] = break_even(out["fresh"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sides", type=int, nargs="+", default=[10, 12, 14, 16, 20],
                    metavar="SIDE", help="grid sides; a grid has SIDE x SIDE cells")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, help="JSON file to write `pool` into")
    ap.add_argument("--child", nargs=3, metavar=("METHOD", "SIDE", "WORKERS"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        method, side, workers = args.child
        multiprocessing.set_start_method(method)
        print(json.dumps(sweep_once(int(side), int(workers))))
        return 0
    if min(args.sides) < 2 or args.pairs < 1:
        ap.error("each side must be at least 2 and --pairs at least 1")

    pool = {
        "command": "python3 tools/pool_break_even.py "
                   + " ".join(["--sides", *map(str, args.sides), "--pairs", str(args.pairs)]),
        "machine": f"{os.cpu_count()}-vCPU {platform.system()}, "
                   f"Python {platform.python_version()}",
        "grid": "b 0.5..3, c -2..2, SIDE x SIDE, k=3 n=2 m=1",
    }
    for method in METHODS:
        pool[method] = measure(method, args.sides, args.pairs)
    if args.out is None:
        print(json.dumps(pool, indent=1))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["pool"] = pool
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
