"""The 33-point Gauss-Kronrod rule that extends 16-point Gauss-Legendre.

usage: python3 tools/kronrod_rule.py [--dps D]

Builds the Jacobi-Kronrod matrix of the Legendre weight by Laurie's
algorithm (D. P. Laurie, Calculation of Gauss-Kronrod quadrature rules,
Math. Comp. 66 (1997) 1133-1145; the loops follow his r_kronrod), takes
its eigenvalues and eigenvectors with mpmath at D digits (default 40), and
prints the 17 non-negative nodes and their weights as the Python tuples
that `klbessel.quadrature` mirrors at import, each entry the double nearest
the D-digit value.  Then it checks the rule: the nodes at odd positions of
the 33, rounded to doubles, must be `numpy.polynomial.legendre.leggauss(16)`'s
nodes bit for bit, and x^k must be integrated to within 1e-30 for k <= 49 at
D digits.  Exits 1 if either check fails.  Needs mpmath (the optional `reference` extra).
"""

import argparse
import sys

import mpmath as mp
import numpy as np

GAUSS = 16  # the extended Gauss-Legendre rule's nodes


def laurie(n, a, b):
    """Recurrence coefficients of the (2n+1)-point Kronrod matrix from those
    of the weight, ``a[k]``, ``b[k]`` for k <= 3n/2 + 1 (``b[0]`` its mass)."""
    a = list(a[:3 * n // 2 + 1]) + [mp.mpf(0)] * (2 * n + 1)
    b = list(b[:(3 * n + 1) // 2 + 1]) + [mp.mpf(0)] * (2 * n + 1)
    s = [mp.mpf(0)] * (n // 2 + 2)
    t = [mp.mpf(0)] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        acc = mp.mpf(0)
        new = list(s)
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            acc += (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
            new[k + 1] = acc
        s, t = t, new
    s[1:n // 2 + 2] = s[0:n // 2 + 1]
    for m in range(n - 1, 2 * n - 2):
        acc = mp.mpf(0)
        new = list(s)
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            acc += -(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2]
            new[j + 1] = acc
        s = new
        j = n - 1 - (m - (m - 1) // 2)
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a[:2 * n + 1], b[:2 * n + 1]


def kronrod(n):
    """Nodes (ascending) and weights of the (2n+1)-point Kronrod extension
    of n-point Gauss-Legendre, at the working precision."""
    count = 2 * n + 2
    a = [mp.mpf(0)] * count
    b = [mp.mpf(2)] + [mp.mpf(k * k) / (4 * k * k - 1) for k in range(1, count)]
    a, b = laurie(n, a, b)
    size = 2 * n + 1
    jacobi = mp.zeros(size, size)
    for k in range(size):
        jacobi[k, k] = a[k]
        if k + 1 < size:
            jacobi[k, k + 1] = jacobi[k + 1, k] = mp.sqrt(b[k + 1])
    values, vectors = mp.eigsy(jacobi)
    rule = sorted((values[i], b[0] * vectors[0, i] ** 2) for i in range(size))
    nodes, weights = [x for x, _ in rule], [w for _, w in rule]
    # symmetric by construction: average each mirrored pair, so x = 0 is 0
    return ([(x - y) / 2 for x, y in zip(nodes, reversed(nodes))],
            [(v + w) / 2 for v, w in zip(weights, reversed(weights))])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dps", type=int, default=40, help="mpmath working digits")
    args = parser.parse_args(argv)
    mp.mp.dps = args.dps
    nodes, weights = kronrod(GAUSS)
    # the rule is symmetric: keep the non-negative half, x = 0 first
    print(f"# 33-point Gauss-Kronrod rule, mpmath at {args.dps} digits")
    for name, values in (("_HALF_NODES", nodes), ("_HALF_WEIGHTS", weights)):
        half = [repr(float(v)) for v in values[GAUSS:]]
        print(f"{name} = (")
        for row in range(0, len(half), 4):
            print("    " + ", ".join(half[row:row + 4]) + ",")
        print(")")

    gauss = np.polynomial.legendre.leggauss(GAUSS)[0]
    embedded = np.array([float(x) for x in nodes[1::2]])
    same = np.array_equal(embedded, gauss)
    moments = max(abs(mp.fsum(w * x ** k for x, w in zip(nodes, weights))
                      - (mp.mpf(2) / (k + 1) if k % 2 == 0 else 0)) for k in range(50))
    print(f"# embedded Gauss nodes equal leggauss({GAUSS}) bit for bit: {same};"
          f" worst moment error for x^k, k <= 49: {mp.nstr(moments, 3)}")
    return 0 if same and moments <= mp.mpf(10) ** -30 else 1


if __name__ == "__main__":
    sys.exit(main())
