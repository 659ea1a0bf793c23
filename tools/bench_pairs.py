"""Runs perfbench/run.py on two checkouts in alternated pairs and writes a
BENCH_<PR>.json, so that a speed claim comes from a script, not by hand.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_28.json \
        --runs batch:1:10 batch:7:3 sweep:1:3 degenerate:1:3 --trace batch:1:6 \
        --parent-label <commit> --change-label "what changed" --claim "..."

PARENT and CHANGE are source trees (a `git archive` or clone of each
commit); each is run from its own perfbench/run.py, as
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`
with the tree as the working directory.  A run spec W:S:P asks for P
pairs on workload W with seed S; the parent runs first in odd pairs and
the change first in even ones, so a drift in machine speed falls on both.
The last stdout line of each run is its JSON result.

The output holds `seed_<S>`, the full results of the first pair of each
run spec, as BENCH_24.json does, and `pairs`, one entry per run spec
(`<W>_seed_<S>`) giving for each end-to-end metric of BENCHMARK.json the
values of every pair, their median and quartiles (inclusive method) per
side, and `change_wins`, the pairs where the change is strictly better in
the metric's direction.  `--trace W:S:P` adds P alternated pairs of
`--trace 1` runs, summed up the same way over BENCHMARK.json's per-layer
metrics, under `trace`.  The file is rewritten after every pair, so an
interrupted session keeps what it measured.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in `tree`; its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pair_stats(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: every pair's values, median and quartiles per side, and
    the pairs the change wins."""
    out = {}
    for metric in metrics:
        if any(metric["name"] not in p[s]["metrics"] for p in pairs for s in p):
            continue
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        wins = sum(
            (c > p) if higher else (c < p)
            for p, c in zip(sides["parent"], sides["change"])
        )
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: {"values": v, **summary(v)} for side, v in sides.items()},
            "change_wins": wins,
        }
    for side in ("parent", "change"):
        out[f"{side}_checks"] = [
            {k: p[side][k] for k in ("correct", "attempted", "failed")} for p in pairs
        ]
    return out


def spec(text: str, parts: int) -> tuple:
    fields = text.split(":")
    if len(fields) != parts or fields[0] not in ("batch", "sweep", "degenerate"):
        raise argparse.ArgumentTypeError(f"bad spec {text!r}")
    return (fields[0], *map(int, fields[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--runs", nargs="+", required=True, metavar="W:S:P",
                    type=lambda t: spec(t, 3))
    ap.add_argument("--trace", type=lambda t: spec(t, 3), metavar="W:S:P")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--parent-label", default="")
    ap.add_argument("--change-label", default="")
    ap.add_argument("--claim", default="")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "machine": f"{os.cpu_count()}-vCPU {platform.system()}, "
                   f"Python {platform.python_version()}",
        "parent": args.parent_label,
        "change": args.change_label,
        "claim": args.claim,
        "pairs": {
            "note": "each run spec W:S:P is P pairs on workload W with seed S, "
                    "parent first in odd pairs; parent and change each run "
                    "from their own tree; median and quartiles (inclusive "
                    "method) of each end-to-end metric; change_wins counts "
                    "pairs where the change is strictly better",
        },
    }

    def write():  # header, seed_<S>, pairs, trace: BENCH_24.json's order
        order = sorted(doc, key=lambda k: (k == "trace", k == "pairs", k.startswith("seed_")))
        args.out.write_text(json.dumps({k: doc[k] for k in order}, indent=1) + "\n")

    def pairs(workload, seed, count, trace):
        """Runs count alternated pairs; yields the pairs so far after each."""
        done = []
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            done.append({side: run(trees[side], workload, seed, args.seconds, trace)
                         for side in order})
            print(f"{workload} seed {seed} trace {trace}: pair {i + 1}/{count}",
                  file=sys.stderr)
            yield done

    for workload, seed, count in args.runs:
        for done in pairs(workload, seed, count, 0):
            doc.setdefault(f"seed_{seed}", {}).setdefault(workload, done[0])
            doc["pairs"][f"{workload}_seed_{seed}"] = pair_stats(done, declared["end_to_end"])
            write()
    if args.trace:
        workload, seed, count = args.trace
        for done in pairs(workload, seed, count, 1):
            doc["trace"] = {"workload": workload, "seed": seed,
                            **pair_stats(done, declared["per_layer"])}
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
