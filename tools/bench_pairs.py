"""Alternating benchmark pairs between two checkouts, summarized as BENCH_<n>.json.

usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B
           --out BENCH_<n>.json [--seconds S]

For each seed in A..B, `perfbench/run.py --workload W --seed N --seconds S`
runs once in each checkout, the side that goes first alternating from pair
to pair so that a drift of the machine's speed falls on both sides alike.
Each run is a fresh process started in its own checkout, so each side
benchmarks its own source.  Make both checkouts fresh copies side by side in
one directory (git archive or git clone of each commit): figures move with a
checkout's location as well as its code, and an A/A run of identical code
from two different places read +1-3% `wall_s`.  A warning goes to stderr
when the two do not share a parent directory.  Standard library only.

The output file gets one entry per workload (an existing file keeps the
entries of other workloads): per side, the median, quartiles and IQR of
`wall_s`, `setup_s` and `peak_rss_mb`, the per-run values, whether every run
was correct and how many operations failed, and `run.py`'s machine record of
its first run; per pair, the seed, the side that ran first and the winner of
each metric (lower is better, a tie counts for neither); and how many pairs
the change won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
# the fields of run.py's record that describe the machine and its libraries
MACHINE = ("nproc", "machine", "python", "numpy", "scipy", "blas", "mpmath", "thread_env")


def seed_range(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError("seeds must be A-B with A <= B")
    return list(range(lo, hi + 1))


def run_once(checkout, workload, seed, seconds):
    """One `perfbench/run.py` run in `checkout`: (machine record, result)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def winner(parent, change):
    """The side with the lower value; a tie counts for neither."""
    return "change" if change < parent else "parent" if parent < change else "tie"


def summarize(pairs, machines):
    out = {"seeds": [p["seed"] for p in pairs], "pairs": pairs}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        out[side] = {m: dict(spread([r[m] for r in runs]), values=[r[m] for r in runs])
                     for m in METRICS}
        out[side]["all_correct"] = all(r["correct"] for r in runs)
        out[side]["failed_operations"] = sum(r["failed"] for r in runs)
        out[side]["machine"] = machines[side]
    out["change_wins"] = {m: sum(p["winner"][m] == "change" for p in pairs) for m in METRICS}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", required=True, help="the JSON file, BENCH_<n>.json by convention")
    args = p.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len({os.path.dirname(d) for d in dirs.values()}) > 1:
        print("warning: PARENT_DIR and CHANGE_DIR are not side by side in one directory;"
              " their figures may differ by location alone", file=sys.stderr)

    pairs, machines = [], {}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            record, result = run_once(dirs[side], args.workload, seed, args.seconds)
            machines.setdefault(side, {k: record.get(k) for k in MACHINE})
            pair[side] = {m: result["metrics"][m]["value"] for m in METRICS}
            pair[side].update(correct=result["correct"], failed=result["failed"])
        pair["winner"] = {m: winner(pair["parent"][m], pair["change"][m]) for m in METRICS}
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: "
              + ", ".join(f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in METRICS),
              file=sys.stderr)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})[args.workload] = dict(
        summarize(pairs, machines), seconds=args.seconds)
    doc["command"] = "python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B --out FILE"
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
