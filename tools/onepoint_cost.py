"""Time of one-point kernel calls that no memo serves, per evaluator.

usage: python3 tools/onepoint_cost.py [CHECKOUT] [--seed N] [--points P] [--repeat R]

Imports klbessel from CHECKOUT's ``src`` (default: the checkout this file is
in) and times, at P seeded points (default 40) with x log-uniform in
[0.1, 10] and tau log-uniform in [0.5, 10], the domain of the benchmark's
cross-method check, one call each of

  - `k_itau_oracle`,
  - `k_complex_order` at mu = 1,
  - `k_itau_keyformula` at N = 0, 2 and 4,
  - `k_itau_defseries`,

R times over (default 5), the evaluators taken in turn at each point so that
a drift of the machine's speed falls on all of them alike.  Before every
timed call the point memo (`kernel._contour_point`) and the angle memo
(`kernel._last_angles`) are emptied, so each call is a miss: an evaluation,
not a memo hit.  Prints per evaluator the median and quartiles of the call
time in microseconds, and how many calls raised (a refused point is timed
too).  Standard library only, besides the package.
"""

import argparse
import math
import os
import random
import statistics
import sys
import time


def load(checkout):
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    import klbessel
    from klbessel import kernel
    return klbessel, kernel


def evaluators(kb):
    """(name, one-point call) pairs, each taking an `EvaluationPoint`."""
    return [
        ("k_itau_oracle", kb.k_itau_oracle),
        ("k_complex_order mu=1", lambda p: kb.k_complex_order(kb.OrderSpec(1.0, p.tau), p.x)),
        ("k_itau_keyformula N=0", lambda p: kb.k_itau_keyformula(p, 0)),
        ("k_itau_keyformula N=2", lambda p: kb.k_itau_keyformula(p, 2)),
        ("k_itau_keyformula N=4", lambda p: kb.k_itau_keyformula(p, 4)),
        ("k_itau_defseries", kb.k_itau_defseries),
    ]


def log_uniform(r, lo, hi):
    return math.exp(r.uniform(math.log(lo), math.log(hi)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--points", type=int, default=40)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    kb, kernel = load(args.checkout)
    r = random.Random(args.seed)
    points = [kb.EvaluationPoint(log_uniform(r, 0.1, 10.0), log_uniform(r, 0.5, 10.0))
              for _ in range(args.points)]
    calls = evaluators(kb)
    times = {name: [] for name, _ in calls}
    raised = dict.fromkeys(times, 0)
    for p in points * args.repeat:
        for name, call in calls:
            kernel._contour_point.cache_clear()
            kernel._last_angles = (None, None)
            t0 = time.perf_counter()
            try:
                call(p)
            except (kb.AccuracyError, ValueError):
                raised[name] += 1
            finally:
                times[name].append(time.perf_counter() - t0)
    print(f"one-point calls, memos emptied before each; klbessel from {kb.__file__}")
    print(f"{args.points} points (seed {args.seed}), x in [0.1, 10], tau in [0.5, 10], "
          f"{args.repeat} calls each")
    print(f"{'evaluator':<24} {'median us':>10} {'q1 us':>8} {'q3 us':>8} {'raised':>7}")
    for name, t in times.items():
        q1, median, q3 = (1e6 * q for q in statistics.quantiles(t, n=4, method="inclusive"))
        print(f"{name:<24} {median:>10.1f} {q1:>8.1f} {q3:>8.1f} {raised[name]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
