"""Accuracy of the contour evaluator on the default grid, against mpmath.

usage: python3 tools/contour_accuracy.py [--dps D]

Evaluates `klbessel.kernel.contour_values` on the default 25x25 grid
(x in geomspace(0.01, 100, 25), tau in geomspace(0.1, 40, 25)) at the five
catalog orders mu = 0, 0.1, 0.25, 0.5, 1, and compares every value with
mpmath's besselk at D digits (default 25).  The error is quoted relative to
max(natural_scale(tau), |K|), the measure the reference tests use.  Prints
one line per order: the worst and 99th-percentile error, the point of the
worst, and how many points have an ``achieved`` bound below their true
error (0 means the bound covers every point).  Imports klbessel from the
`src` directory next to this file's `tools`; needs mpmath (the optional
`reference` extra).  Takes about half a minute.
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dps", type=int, default=25, help="mpmath working digits")
    args = parser.parse_args(argv)
    mp.mp.dps = args.dps
    x, tau = (a.ravel() for a in np.meshgrid(np.geomspace(0.01, 100.0, 25), np.geomspace(0.1, 40.0, 25)))
    scale = np.array([natural_scale(t) for t in tau])
    print(f"contour_values against mpmath besselk at {args.dps} digits, 625 points per order;")
    print("error relative to max(natural scale, |K|)")
    print(f"{'mu':>5} {'worst':>9} {'p99':>9}  {'worst at (x, tau)':<20} achieved < error")
    for mu in ORDERS:
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
        print(f"{mu:>5} {rel[worst]:9.3g} {np.quantile(rel, 0.99):9.3g}  {where:<20} {short}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
