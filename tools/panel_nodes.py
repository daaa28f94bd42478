"""Integrand nodes, `panel_sums` calls and time per quadrature call site, for one
`paper_checks` batch.

usage: python3 tools/panel_nodes.py [--seed N] [--rep R]

Runs the batch that `perfbench/run.py --workload paper_checks` times, as
`perfbench/worker.py` defines it (its inputs seeded by N and R, default 3
and 0), in this process with this checkout's ``src`` first on the path,
and wraps `klbessel.quadrature.panel_sums` wherever the package looks it
up.  Each call is charged to the nearest package function outside
`quadrature` on the stack (the caller of `integrate`, or of `panel_sums`
itself), with the number of values its integrand returned and the time the
call took.  Prints one row per call site, the most nodes first, then the
total.  The benchmark's
own tracer counts 16 nodes a panel; these are the values the integrands
return.  Standard library only, besides the package and the benchmark's
`worker` and `speed` modules, which it imports and does not change.
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import klbessel as kb  # noqa: E402
from klbessel import bounds, quadrature, summability  # noqa: E402

import speed  # noqa: E402
import worker  # noqa: E402

PACKAGE = os.path.dirname(os.path.abspath(kb.__file__))
QUADRATURE = os.path.abspath(quadrature.__file__)


def call_site():
    """``module.function`` of the nearest package frame outside `quadrature`."""
    frame = sys._getframe(2)
    while frame is not None:
        path = os.path.abspath(frame.f_code.co_filename)
        if path.startswith(PACKAGE) and path != QUADRATURE:
            module = os.path.splitext(os.path.basename(path))[0]
            return f"{module}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "(outside the package)"


def install(sites):
    """Wrap `panel_sums` in every module that holds it; ``sites`` maps a call
    site to [calls, nodes, seconds]."""
    original = quadrature.panel_sums

    def counting(f, edges):
        row = sites.setdefault(call_site(), [0, 0, 0.0])

        def g(t):
            row[1] += len(t)
            return f(t)

        t0 = time.perf_counter()
        try:
            return original(g, edges)
        finally:
            row[0] += 1
            row[2] += time.perf_counter() - t0

    for module in (quadrature, bounds, summability):
        module.panel_sums = counting


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rep", type=int, default=0)
    args = parser.parse_args(argv)
    sites = {}
    install(sites)
    batch = worker.Batch(speed.Clock(every=None))
    worker.run_paper(kb, batch, worker.setup_paper(kb, args.seed, args.rep))
    print(f"paper_checks batch, seed {args.seed}, repetition {args.rep}: "
          f"{batch.clock.plain:.3f} s, {batch.failed} of {batch.attempted} operations failed")
    print(f"{'call site':<34} {'panel_sums':>10} {'nodes':>10} {'seconds':>8}")
    for site, (calls, nodes, seconds) in sorted(sites.items(), key=lambda kv: -kv[1][1]):
        print(f"{site:<34} {calls:>10,} {nodes:>10,} {seconds:>8.4f}")
    calls, nodes, seconds = (sum(row[i] for row in sites.values()) for i in range(3))
    print(f"{'total':<34} {calls:>10,} {nodes:>10,} {seconds:>8.4f}")
    for error in batch.errors:
        print(f"failed: {error}")
    return 1 if batch.errors else 0


if __name__ == "__main__":
    sys.exit(main())
