"""Accuracy of the contour evaluator against mpmath, on one of three sample sets.

usage: python3 tools/contour_accuracy.py [--dps D] [--random N [--seed S] | --strip]

Evaluates `klbessel.kernel.contour_values` on one sample set and compares
every value with mpmath's besselk at D digits (default 25):

  - by default, the default 25x25 grid (x in geomspace(0.01, 100, 25), tau
    in geomspace(0.1, 40, 25)) at the five catalog orders mu = 0, 0.1,
    0.25, 0.5, 1;
  - with ``--random N``, N points with x log-uniform in [0.01, 100] and tau
    log-uniform in [0.1, 40], drawn by numpy's ``default_rng(S)`` (default
    seed 1), at the same five orders;
  - with ``--strip``, the large-phase strip: x in geomspace(0.01, 1, 13)
    and tau in linspace(40, 50, 11), 143 points at each of the ten orders
    0, 0.1, 0.25, 0.5, 1, 1.5, 2, 2.5, 3 and -3 (1,430 points).

The error is quoted relative to max(natural_scale(tau), |K|), the measure
the reference tests use.  Prints one line per order: the median, 90th and
99th percentile and worst error, the point of the worst, and how many
points have an ``achieved`` bound below their true error (0 means the bound
covers every point).  The 625-point grid alone cannot show that digits were
kept: shifting every angle by 1e-7 rad moves its worst by up to 69% and its
p99 by 20%.  Imports klbessel from the `src` directory next to this file's
`tools`; needs mpmath (the optional `reference` extra).  Takes about half a
minute on the grid and on the strip, and about a minute per 1,000 random
points.
"""

import argparse
import math
import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from klbessel.kernel import contour_values, natural_scale  # noqa: E402

ORDERS = (0.0, 0.1, 0.25, 0.5, 1.0)
STRIP_ORDERS = (0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, -3.0)


def sample_set(args):
    """``(what, x, tau, orders)`` of the set the arguments ask for."""
    if args.strip:
        x, tau = np.meshgrid(np.geomspace(0.01, 1.0, 13), np.linspace(40.0, 50.0, 11))
        return "the strip x in [0.01, 1], tau in [40, 50]", x.ravel(), tau.ravel(), STRIP_ORDERS
    if args.random:
        rng = np.random.default_rng(args.seed)
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), args.random))
        tau = np.exp(rng.uniform(math.log(0.1), math.log(40.0), args.random))
        return f"log-uniform points (seed {args.seed})", x, tau, ORDERS
    x, tau = np.meshgrid(np.geomspace(0.01, 100.0, 25), np.geomspace(0.1, 40.0, 25))
    return "the default 25x25 grid", x.ravel(), tau.ravel(), ORDERS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dps", type=int, default=25, help="mpmath working digits")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--random", type=int, metavar="N", help="N seeded log-uniform points")
    which.add_argument("--strip", action="store_true", help="the 1,430-point large-phase strip")
    parser.add_argument("--seed", type=int, default=1, help="seed of --random")
    args = parser.parse_args(argv)
    mp.mp.dps = args.dps
    what, x, tau, orders = sample_set(args)
    scale = np.array([natural_scale(t) for t in tau])
    print(f"contour_values against mpmath besselk at {args.dps} digits, {what}, "
          f"{x.size} points per order;")
    print("error relative to max(natural scale, |K|)")
    print(f"{'mu':>5} {'median':>9} {'p90':>9} {'p99':>9} {'worst':>9}  {'worst at (x, tau)':<20} "
          "achieved < error")
    for mu in orders:
        values, achieved = contour_values(x, tau, mu)
        want = np.array([complex(mp.besselk(mp.mpf(mu) + 1j * mp.mpf(t), mp.mpf(xi)))
                         for xi, t in zip(x, tau)])
        if mu == 0.0:
            want = want.real
        err = np.abs(values - want)
        rel = err / np.maximum(scale, np.abs(want))
        worst = int(np.argmax(rel))
        short = int(np.count_nonzero(~(achieved >= err)))
        where = f"({x[worst]:.3g}, {tau[worst]:.3g})"
        median, p90, p99 = np.quantile(rel, (0.5, 0.9, 0.99))
        print(f"{mu:>5} {median:9.3g} {p90:9.3g} {p99:9.3g} {rel[worst]:9.3g}  {where:<20} {short}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
