"""Compare the outputs of benchmark batches between two checkouts, bit for bit.

usage: python3 tools/batch_outputs_diff.py PARENT_DIR CHANGE_DIR [--seeds 1,3,7]

Runs the `paper_checks` and `catalog_certify` batches that
`perfbench/run.py` times, as `perfbench/worker.py` defines them (repetition
0 of each seed, default 1, 3 and 7), once in each checkout: each checkout in
a fresh interpreter, with its own ``src`` and ``perfbench`` first on the
path, importing the worker without changing it, as `tools/panel_nodes.py`
does.  A batch's document is its outputs, its failed operations and their
errors, dumped as JSON.  The two sides' JSON bytes are compared per batch;
where they differ, every path whose value differs is printed, with the
largest relative move |a - b| / max(|a|, |b|) among the numbers under it.
Exits 1 if any batch differs, 0 otherwise.  Standard library only.
"""

import argparse
import json
import math
import subprocess
import sys

WORKLOADS = ("paper_checks", "catalog_certify")

# runs in the checkout's own interpreter: argv is CHECKOUT WORKLOAD SEED
DUMP = """
import json, os, sys
root, workload, seed = os.path.abspath(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import klbessel as kb
import worker


class Untimed:  # the batch's clock: outputs are compared, not timed
    def start(self):
        pass

    def stop(self):
        pass


setup, run = worker.WORKLOADS[workload]
batch = worker.Batch(Untimed())
outputs = run(kb, batch, setup(kb, seed, 0))
sys.stdout.write(json.dumps({"outputs": outputs, "failed": batch.failed, "errors": batch.errors}))
"""


def dump(checkout, workload, seed):
    proc = subprocess.run([sys.executable, "-c", DUMP, checkout, workload, str(seed)],
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode()[-2000:]}")
    return proc.stdout


def numbers(value):
    """The numbers in a JSON value, depth first, as floats."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, dict):
        for v in value.values():
            yield from numbers(v)
    else:
        for v in value:
            yield from numbers(v)


def relative_move(a, b):
    """Largest |a - b| / max(|a|, |b|) over numbers at the same position; inf
    where the structures differ or a number is not finite on one side only."""
    na, nb = list(numbers(a)), list(numbers(b))
    if len(na) != len(nb):
        return math.inf
    worst = 0.0
    for u, v in zip(na, nb):
        if u != v and not (math.isnan(u) and math.isnan(v)):
            worst = max(worst, abs(u - v) / max(abs(u), abs(v)) if math.isfinite(u - v) else math.inf)
    return worst


def differences(a, b, path="$"):
    """(path, relative move) of each smallest value that differs."""
    if type(a) is type(b) and isinstance(a, dict) and a.keys() == b.keys():
        for key in a:
            yield from differences(a[key], b[key], f"{path}.{key}")
    elif type(a) is type(b) and isinstance(a, list) and len(a) == len(b):
        for i, (u, v) in enumerate(zip(a, b)):
            yield from differences(u, v, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path, relative_move(a, b)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", default="1,3,7", help="comma-separated seeds (repetition 0)")
    args = parser.parse_args(argv)
    differing = 0
    batches = [(w, int(s)) for w in WORKLOADS for s in args.seeds.split(",")]
    for workload, seed in batches:
        before, after = dump(args.parent, workload, seed), dump(args.change, workload, seed)
        if before == after:
            print(f"{workload} seed {seed}: identical ({len(after):,} bytes)")
            continue
        differing += 1
        print(f"{workload} seed {seed}: DIFFERS")
        for path, move in differences(json.loads(before), json.loads(after)):
            print(f"  {path}: largest relative move {move:.3g}")
    print(f"{differing} of {len(batches)} batches differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
