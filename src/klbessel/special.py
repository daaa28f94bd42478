"""K_0 by quadrature and an overflow-free, array-valued log sinh.

The rest of the package calls scipy.special directly; `bessel_k0` is the
tests' independent K_0, computed without scipy's Bessel routines.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import DEFAULT_CONFIG, TRUNCATION, integrate

__all__ = ["bessel_k0", "log_sinh"]

_LN2 = math.log(2.0)


def log_sinh(y):
    """log(sinh y) for y > 0 (an array elementwise) = y + log((1 - e^{-2y})/2),
    free of overflow (sinh overflows near y = 710) and of cancellation: the
    log is log(-expm1(-2y)/2) for 2y <= log 2 and log1p(-e^{-2y}) - log 2
    beyond (Maechler, "Accurately computing log(1 - exp(-|a|))", 2012)."""
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0.0):
        raise ValueError("log_sinh needs y > 0")
    a = 2.0 * y
    near = y + np.log(-0.5 * np.expm1(-a))
    far = y - _LN2 + np.log1p(-np.exp(-np.maximum(a, _LN2)))
    return np.where(a <= _LN2, near, far)[()]  # [()]: a scalar for a scalar y


def bessel_k0(x, cfg=DEFAULT_CONFIG):
    """Macdonald function K_0(x) by quadrature of its cosh representation.

    K_0(x) = integral of exp(-x cosh t) over t in (0, inf); the integrand
    is smooth and monotone, cut where x(cosh t - 1) exceeds the truncation
    budget plus one safety unit.
    """
    if not x > 0.0:
        raise ValueError("bessel_k0 requires x > 0")
    t_max = math.acosh(1.0 + math.log(1.0 / TRUNCATION) / x) + 1.0
    edges = np.linspace(0.0, t_max, 17)
    val = integrate(lambda t: np.exp(-x * np.cosh(t)), edges, cfg)
    return float(val.real)
