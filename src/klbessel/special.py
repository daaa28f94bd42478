"""Scalar special-function primitives shared by every other module."""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .quadrature import DEFAULT_CONFIG, integrate

__all__ = [
    "complex_log_gamma",
    "pochhammer",
    "bessel_i",
    "bessel_k0",
    "log_abs_gamma",
    "log_sinh",
]


def complex_log_gamma(z):
    """Principal branch of log Gamma(z).

    Parameters
    ----------
    z : complex
        Any point except the poles 0, -1, -2, ... on the real axis.

    Returns
    -------
    complex

    Raises
    ------
    ValueError
        If ``z`` is a pole of the gamma function.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise ValueError(f"log-gamma pole at z = {z}")
    return complex(_sp.loggamma(z))


def log_abs_gamma(z):
    """log |Gamma(z)| for complex z, computed without magnitude cancellation."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise ValueError(f"log-gamma pole at z = {z}")
    return float(_sp.loggamma(z).real)


def log_sinh(y):
    """log(sinh y) for y > 0 without overflow; sinh alone overflows near y = 710."""
    if not y > 0.0:
        raise ValueError("log_sinh needs y > 0")
    return y + math.log1p(-math.exp(-2.0 * y)) - math.log(2.0)


def pochhammer(a, n):
    """Rising factorial a(a+1)...(a+n-1); equals 1 for n = 0."""
    if n < 0 or n != int(n):
        raise ValueError("n must be a non-negative integer")
    out = complex(1.0)
    a = complex(a)
    for k in range(int(n)):
        out *= a + k
    return out


def bessel_i(nu, x, cfg=DEFAULT_CONFIG):
    """Modified Bessel function I_nu(x) summed from its ascending series.

    The terms are positive with super-geometric decay; summation stops when
    a term is machine-negligible against the running sum.  The three-term
    recurrence amplifies the order-n value by 2n/x, so anything looser
    than machine truncation shows up there.

    Parameters
    ----------
    nu : float
        Order, nu >= 0.
    x : float
        Argument, x >= 0.
    """
    if nu < 0.0 or x < 0.0:
        raise ValueError("bessel_i requires nu >= 0 and x >= 0")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    term = math.exp(nu * math.log(half) - _sp.gammaln(nu + 1.0))
    total = term
    eps = np.finfo(float).eps
    for k in range(1, 1000):
        term *= half * half / (k * (k + nu))
        total += term
        if term <= eps * total:
            return total
    raise RuntimeError("bessel_i series did not terminate")


def bessel_k0(x, cfg=DEFAULT_CONFIG):
    """Macdonald function K_0(x) by quadrature of its cosh representation.

    K_0(x) = integral of exp(-x cosh t) over t in (0, inf); the integrand
    is smooth and monotone, cut where x(cosh t - 1) exceeds the truncation
    budget plus one safety unit.
    """
    if not x > 0.0:
        raise ValueError("bessel_k0 requires x > 0")
    budget = math.log(1.0 / cfg.truncation_threshold)
    t_max = math.acosh(1.0 + budget / x) + 1.0
    edges = np.linspace(0.0, t_max, 17)
    val = integrate(lambda t: np.exp(-x * np.cosh(t)), edges, cfg)
    return float(val.real)
