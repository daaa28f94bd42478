import cmath
import math

import numpy as np
import pytest

from klbessel.special import (
    bessel_i,
    bessel_k0,
    complex_log_gamma,
    log_abs_gamma,
    log_sinh,
    pochhammer,
)

I0_AT_1 = 1.2660658777520083
K0_AT_1 = 0.42102443824070833
K0_AT_2 = 0.11389387274953344
ABS_GAMMA_I_SQ = 0.27202905498213316  # pi / sinh(pi)


def test_log_gamma_known_values():
    assert abs(complex_log_gamma(1.0)) < 1e-15
    assert math.isclose(complex_log_gamma(0.5).real, 0.5 * math.log(math.pi), rel_tol=1e-14)
    got = complex_log_gamma(1j).real
    assert math.isclose(got, 0.5 * math.log(ABS_GAMMA_I_SQ), rel_tol=1e-13)


def test_log_gamma_pole_rejected():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            complex_log_gamma(z)


def test_log_gamma_recurrence():
    rng = np.random.default_rng(42)
    n = 0
    while n < 100:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if z.imag == 0.0 or min(abs(z - k) for k in range(-25, 1)) < 0.1:
            continue
        lhs = cmath.exp(complex_log_gamma(z + 1.0))
        rhs = z * cmath.exp(complex_log_gamma(z))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        n += 1


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_gamma_reflection_on_imaginary_axis(tau):
    val = math.exp(2.0 * log_abs_gamma(1j * tau)) * tau * math.sinh(math.pi * tau)
    assert math.isclose(val, math.pi, rel_tol=1e-11)


def test_log_abs_gamma_is_real_part():
    z = 1.5 + 2.5j
    assert log_abs_gamma(z) == complex_log_gamma(z).real


def test_pochhammer():
    assert pochhammer(2.7 - 1j, 0) == 1.0
    assert pochhammer(1.0, 3) == 6.0
    got = pochhammer(1.0 - 1j, 2)
    assert abs(got - (1.0 - 3.0j)) < 1e-15


def test_pochhammer_splits():
    a = 0.3 + 0.7j
    for m, n in [(2, 3), (0, 4), (5, 1)]:
        whole = pochhammer(a, m + n)
        split = pochhammer(a, m) * pochhammer(a + m, n)
        assert abs(whole - split) <= 1e-14 * abs(whole)


def test_bessel_i_series(cfg):
    assert bessel_i(0.0, 0.0, cfg) == 1.0
    assert bessel_i(1.0, 0.0, cfg) == 0.0
    assert math.isclose(bessel_i(0.0, 1.0, cfg), I0_AT_1, rel_tol=1e-13)


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bessel_i_recurrence(cfg, n, x):
    lhs = bessel_i(n - 1.0, x, cfg) - bessel_i(n + 1.0, x, cfg)
    rhs = 2.0 * n / x * bessel_i(float(n), x, cfg)
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
