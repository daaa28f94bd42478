"""Time of one-point kernel calls that no memo serves, per evaluator, and of
the contour angle search.

usage: python3 tools/onepoint_cost.py [CHECKOUT] [--seed N] [--points P] [--repeat R]

Imports klbessel from CHECKOUT's ``src`` (default: the checkout this file is
in) and times, at P seeded points (default 40) with x log-uniform in
[0.1, 10] and tau log-uniform in [0.5, 10], the domain of the benchmark's
cross-method check, one call each of

  - `k_itau_oracle`,
  - `k_complex_order` at mu = 1,
  - `k_itau_keyformula` at N = 0, 2 and 4,
  - `k_itau_defseries`,
  - `kernel._angle_search` at the point, on the default 25x25 grid (x in
    geomspace(0.01, 100, 25), tau in geomspace(0.1, 40, 25)) and on 700
    distinct x (geomspace(0.01, 100, 700)) at tau = 2, the size of a
    Mellin node array,

R times over (default 5), the calls taken in turn at each point so that
a drift of the machine's speed falls on all of them alike.  Before every
timed call the point memo (`kernel._contour_point`) and the angle memo
(`kernel._last_angles`) are emptied, so each call is a miss: an evaluation,
not a memo hit.  A machine's speed can change from second to second, so
each pass over the points is scaled to the benchmark's reference speed by
`perfbench/speed.py`'s probe loop, taken before and after the pass; that
module is imported from this file's checkout and not changed.  Prints per
call the median and quartiles of the scaled time in microseconds, and how
many calls raised (a refused point is timed too).  Standard library only,
besides numpy and the package.
"""

import argparse
import math
import os
import random
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import speed  # noqa: E402


def load(checkout):
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    import klbessel
    from klbessel import kernel
    return klbessel, kernel


def evaluators(kb, kernel):
    """(name, call) pairs, each taking an `EvaluationPoint`; the array angle
    searches ignore it."""
    grid_x, grid_tau = (a.ravel() for a in np.meshgrid(np.geomspace(0.01, 100.0, 25),
                                                       np.geomspace(0.1, 40.0, 25)))
    mellin_x = np.geomspace(0.01, 100.0, 700)
    mellin_tau = np.full(mellin_x.size, 2.0)
    return [
        ("k_itau_oracle", kb.k_itau_oracle),
        ("k_complex_order mu=1", lambda p: kb.k_complex_order(kb.OrderSpec(1.0, p.tau), p.x)),
        ("k_itau_keyformula N=0", lambda p: kb.k_itau_keyformula(p, 0)),
        ("k_itau_keyformula N=2", lambda p: kb.k_itau_keyformula(p, 2)),
        ("k_itau_keyformula N=4", lambda p: kb.k_itau_keyformula(p, 4)),
        ("k_itau_defseries", kb.k_itau_defseries),
        ("angle search, one point", lambda p: kernel._angle_search(np.array([p.x]), np.array([p.tau]))),
        ("angle search, 25x25 grid", lambda p: kernel._angle_search(grid_x, grid_tau)),
        ("angle search, 700 x", lambda p: kernel._angle_search(mellin_x, mellin_tau)),
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
    calls = evaluators(kb, kernel)
    times = {name: [] for name, _ in calls}
    raised = dict.fromkeys(times, 0)
    probes = [speed.probe()]
    for _ in range(args.repeat):
        plain = {name: [] for name in times}
        for p in points:
            for name, call in calls:
                kernel._contour_point.cache_clear()
                kernel._last_angles = (None, None)
                t0 = time.perf_counter()
                try:
                    call(p)
                except (kb.AccuracyError, ValueError):
                    raised[name] += 1
                finally:
                    plain[name].append(time.perf_counter() - t0)
        probes.append(speed.probe())
        for name, t in plain.items():
            times[name] += [speed.scaled(s, probes[-2], probes[-1]) for s in t]
    print(f"calls with the memos emptied before each; klbessel from {kb.__file__}")
    print(f"{args.points} points (seed {args.seed}), x in [0.1, 10], tau in [0.5, 10], "
          f"{args.repeat} calls each")
    print(f"times at the reference speed of perfbench/speed.py (probe {1e3 * speed.REF_PROBE_S:.2f} ms; "
          f"this run's {1e3 * min(probes):.2f}-{1e3 * max(probes):.2f} ms)")
    print(f"{'call':<24} {'median us':>10} {'q1 us':>8} {'q3 us':>8} {'raised':>7}")
    for name, t in times.items():
        q1, median, q3 = (1e6 * q for q in statistics.quantiles(t, n=4, method="inclusive"))
        print(f"{name:<24} {median:>10.1f} {q1:>8.1f} {q3:>8.1f} {raised[name]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
