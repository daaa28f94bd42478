import cmath
import math

import numpy as np
import pytest
from scipy import special

from klbessel.special import bessel_k0, log_sinh

I0_AT_1 = 1.2660658777520083
K0_AT_1 = 0.42102443824070833
K0_AT_2 = 0.11389387274953344
ABS_GAMMA_I_SQ = 0.27202905498213316  # pi / sinh(pi)


# The package takes log Gamma, |Gamma| and I_N from scipy.special directly;
# these tests pin the properties it relies on.

def test_log_gamma_known_values():
    assert abs(special.loggamma(1.0 + 0j)) < 1e-15
    assert math.isclose(special.loggamma(0.5 + 0j).real, 0.5 * math.log(math.pi), rel_tol=1e-14)
    got = special.loggamma(1j).real
    assert math.isclose(got, 0.5 * math.log(ABS_GAMMA_I_SQ), rel_tol=1e-13)


def test_log_gamma_recurrence():
    rng = np.random.default_rng(42)
    n = 0
    while n < 100:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if z.imag == 0.0 or min(abs(z - k) for k in range(-25, 1)) < 0.1:
            continue
        lhs = cmath.exp(special.loggamma(z + 1.0))
        rhs = z * cmath.exp(special.loggamma(z))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        n += 1


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_gamma_reflection_on_imaginary_axis(tau):
    val = math.exp(2.0 * special.loggamma(1j * tau).real) * tau * math.sinh(math.pi * tau)
    assert math.isclose(val, math.pi, rel_tol=1e-11)


def _bessel_i_series(n, x):
    """I_n(x) from its ascending series, summed to machine truncation."""
    half = 0.5 * x
    term = math.exp(n * math.log(half) - math.lgamma(n + 1.0))
    total = term
    for k in range(1, 2000):
        term *= half * half / (k * (k + n))
        total += term
        if term <= np.finfo(float).eps * total:
            return total
    raise AssertionError("series did not terminate")


def test_bessel_i_series():
    # remainder_bound takes I_N(X) for N = 1..20 from special.iv
    assert special.iv(0, 0.0) == 1.0 and special.iv(1, 0.0) == 0.0
    assert math.isclose(special.iv(0, 1.0), I0_AT_1, rel_tol=1e-13)
    for n in range(1, 21):
        for x in (1e-3, 0.5, 5.0, 50.0, 300.0, 700.0):
            assert math.isclose(special.iv(n, x), _bessel_i_series(n, x), rel_tol=1e-13), (n, x)


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bessel_i_recurrence(n, x):
    lhs = special.iv(n - 1, x) - special.iv(n + 1, x)
    rhs = 2.0 * n / x * special.iv(n, x)
    assert math.isclose(lhs, rhs, rel_tol=1e-10)


def test_bessel_k0(cfg):
    assert math.isclose(bessel_k0(1.0, cfg), K0_AT_1, rel_tol=1e-12)
    assert math.isclose(bessel_k0(2.0, cfg), K0_AT_2, rel_tol=1e-12)
    assert bessel_k0(1.0, cfg) > bessel_k0(2.0, cfg)
    # large-x envelope
    got = bessel_k0(50.0, cfg) * math.sqrt(50.0) * math.exp(50.0)
    assert math.isclose(got, math.sqrt(0.5 * math.pi), rel_tol=1e-2)
    with pytest.raises(ValueError):
        bessel_k0(0.0, cfg)


def test_log_sinh():
    for y in (0.3, 1.0, 10.0):
        assert math.isclose(log_sinh(y), math.log(math.sinh(y)), rel_tol=1e-14)
    # no overflow far beyond the float64 sinh range
    assert math.isclose(log_sinh(5000.0), 5000.0 - math.log(2.0), rel_tol=1e-15)


def test_log_sinh_keeps_its_digits_near_zero():
    # log sinh y = log y + y^2/6 + O(y^4), where 1 - e^{-2y} cancels
    for y in (1e-8, 1e-12, 1e-300):
        assert math.isclose(log_sinh(y), math.log(y) + y * y / 6.0, rel_tol=1e-15), y
    # both sides of the switch at 2y = log 2
    for y in np.nextafter(0.5 * math.log(2.0), [0.0, 1.0]):
        assert math.isclose(log_sinh(y), math.log(math.sinh(y)), rel_tol=1e-15)


def test_log_sinh_on_arrays():
    ys = np.array([1e-300, 1e-8, 0.3, 0.5 * math.log(2.0), 1.0, 10.0, 5000.0])
    got = log_sinh(ys)
    assert got.shape == ys.shape
    assert all(got[i] == log_sinh(float(y)) for i, y in enumerate(ys))
    with pytest.raises(ValueError):
        log_sinh(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        log_sinh(math.nan)
