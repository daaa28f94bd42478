"""Accuracy of the key-formula evaluator on two grids, against mpmath.

usage: python3 tools/keyformula_accuracy.py [--dps D]

Evaluates `klbessel.kernel.k_itau_keyformula` at truncation depths N = 0,
2, 4 on criterion 1's grid (x in 0.1, 0.5, 1, 2, 5, 10; tau in 0.5, 1, 2,
5, 10) and on a 12x12 grid (x in geomspace(0.1, 10, 12), tau in
geomspace(0.5, 10, 12)), and compares every value with mpmath's
besselk(i tau, x) at D digits (default 40).  The error is quoted relative to
natural_scale(tau), the scale of the key formula's budget.  Prints one line
per grid: the number of values, the worst, 90th-percentile and median
error, how many values the evaluator refused (`AccuracyError`), and the
point (x, tau, N) of the worst.  Imports klbessel from the `src` directory
next to this file's `tools`; needs mpmath (the optional `reference`
extra).  Takes about a second.
"""

import argparse
import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from klbessel.kernel import EvaluationPoint, k_itau_keyformula, natural_scale  # noqa: E402
from klbessel.quadrature import AccuracyError  # noqa: E402

DEPTHS = (0, 2, 4)
GRIDS = {
    "criterion 1, 6x5": ((0.1, 0.5, 1.0, 2.0, 5.0, 10.0), (0.5, 1.0, 2.0, 5.0, 10.0)),
    "12x12": (np.geomspace(0.1, 10.0, 12), np.geomspace(0.5, 10.0, 12)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dps", type=int, default=40, help="mpmath working digits")
    args = parser.parse_args(argv)
    mp.mp.dps = args.dps
    print(f"k_itau_keyformula at N in {DEPTHS} against mpmath besselk at {args.dps} digits;")
    print("error relative to natural_scale(tau)")
    print(f"{'grid':<17} {'values':>6} {'worst':>9} {'p90':>9} {'median':>9} {'refused':>7}  worst at (x, tau, N)")
    for name, (xs, taus) in GRIDS.items():
        errors, points, refused = [], [], 0
        for x in map(float, xs):
            for tau in map(float, taus):
                want = float(mp.besselk(1j * mp.mpf(tau), mp.mpf(x)).real)
                for N in DEPTHS:
                    try:
                        got = k_itau_keyformula(EvaluationPoint(x, tau), N)
                    except AccuracyError:
                        refused += 1
                        continue
                    errors.append(abs(got - want) / natural_scale(tau))
                    points.append((x, tau, N))
        errors = np.array(errors)
        worst = int(np.argmax(errors))
        where = "({:.3g}, {:.3g}, {})".format(*points[worst])
        print(f"{name:<17} {errors.size + refused:>6} {errors[worst]:9.3g} {np.quantile(errors, 0.9):9.3g} "
              f"{np.median(errors):9.3g} {refused:>7}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
