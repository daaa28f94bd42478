"""Tests for regularized Kontorovich-Lebedev integrals and weak limits."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from klbessel import bounds, cli, kernel, quadrature, summability
from klbessel.kernel import EvaluationPoint, k_itau_oracle, k_itau_smallx
from klbessel.quadrature import DEFAULT_CONFIG, AccuracyError
from klbessel.special import bessel_k0
from klbessel.summability import (
    DEFAULT_SCHEDULE,
    PSI_ONE,
    PSI_ZERO,
    EntireFunctionSpec,
    SummabilityQuery,
    closed_cosh,
    closed_sinh,
    cos_spec,
    deriv_exp_xsina,
    f_epsilon,
    gamma_product_identity,
    mellin_k_identity,
    mellin_pair,
    tau_integral_rhs,
    theorem2_check,
    theorem2_limit,
    theorem3_check,
    theorem3_target,
    theorem3_value,
    type_threshold,
)

# Frozen reference values, computed once with 50-digit arithmetic.
CLOSED_COSH_HALF_0 = 2.2214414690791831
CLOSED_COSH_1_07 = 4.4150489511385977
CLOSED_SINH_HALF_0 = 1.1107207345395916
CLOSED_SINH_HALF_03 = 1.7945618628101352
MELLIN_K0_HALF = 3.9374024864306049  # pi^{3/2}/sqrt(2)
THEOREM3_TARGET_COS = 1.5668758717026048  # s=1, a=0, psi1=cos(0.05 tau)
THEOREM3_VALUE_COS = 1.5688316043043684  # x=1, a=0, psi1=cos(0.05 tau)
DERIV4_AT_13_04 = -11.213660893920027  # d^4/da^4 e^{x sin a} at (1.3, 0.4)
DERIV5_POW_03 = 114.93178955140337  # d^5/da^5 (1 - sin a)^{-3/4} at a=0.3

# Frozen a-derivatives, computed once with mpmath 1.3 at 50 digits (each a
# and x is the float64 value written here):
#   python -c "import mpmath as mp; mp.mp.dps = 50; print([(a, m, x,
#     float(mp.diff(lambda t: mp.exp(x * mp.sin(t)), a, m)))
#     for a in (0.3, 0.7, 1.2, 1.5) for m in (5, 10, 20, 30, 60)
#     for x in (0.5, 2.0, 20.0)])"
# and the same with (1 - mp.sin(t)) ** -0.75 (no x) for DERIV_POW_REF.
# Both families agree to 1e-16 with the exp and power recurrences of
# truncated Taylor arithmetic run in 60-digit mpmath arithmetic.
# (a, m, x, d^m/da^m e^{x sin a})
DERIV_EXP_REF = (
    (0.3, 5, 0.5, 0.541075910079709),
    (0.3, 5, 2.0, -102.30742249191512),
    (0.3, 5, 20.0, 765794288.3463436),
    (0.3, 10, 0.5, 10.1488014634877),
    (0.3, 10, 2.0, -114676.6382824212),
    (0.3, 10, 20.0, 526351747215373.75),
    (0.3, 20, 0.5, 83080879.33199532),
    (0.3, 20, 2.0, 5186069121974.209),
    (0.3, 20, 20.0, 3.439633616688178e+26),
    (0.3, 30, 0.5, 2.418236637761405e+17),
    (0.3, 30, 2.0, 2.2647737861180998e+23),
    (0.3, 30, 20.0, -1.314455113124779e+40),
    (0.3, 60, 0.5, 2.1418032398604694e+49),
    (0.3, 60, 2.0, 1.0567099460784968e+59),
    (0.3, 60, 20.0, -6.805458454628185e+83),
    (0.7, 5, 0.5, 2.8898791892784357),
    (0.7, 5, 2.0, -15.785412866054221),
    (0.7, 5, 20.0, 150402638413.5837),
    (0.7, 10, 0.5, 634.7275127331706),
    (0.7, 10, 2.0, -70496.62204062285),
    (0.7, 10, 20.0, -2.3554216164135296e+16),
    (0.7, 20, 0.5, 2869992436.208395),
    (0.7, 20, 2.0, 4795895672792.085),
    (0.7, 20, 20.0, 3.025468721233095e+28),
    (0.7, 30, 0.5, -7.25590735684755e+17),
    (0.7, 30, 2.0, 7.865750613196056e+23),
    (0.7, 30, 20.0, 2.1672035900870228e+42),
    (0.7, 60, 0.5, 7.534603272714286e+49),
    (0.7, 60, 2.0, -7.756324080220241e+57),
    (0.7, 60, 20.0, -6.485665342518689e+87),
    (1.2, 5, 0.5, 3.1090113158260024),
    (1.2, 5, 2.0, 309.9894601446282),
    (1.2, 5, 20.0, -1864365840267.1692),
    (1.2, 10, 0.5, -140.32011460449263),
    (1.2, 10, 2.0, 343721.3052198103),
    (1.2, 10, 20.0, -5.545054916341558e+17),
    (1.2, 20, 0.5, -4751973171.438517),
    (1.2, 20, 2.0, -248662246685783.38),
    (1.2, 20, 20.0, -2.8408729728137878e+29),
    (1.2, 30, 0.5, 2.9582649012277565e+18),
    (1.2, 30, 2.0, 8.819576755634147e+23),
    (1.2, 30, 20.0, 1.408390411531875e+44),
    (1.2, 60, 0.5, 1.3040648411918213e+50),
    (1.2, 60, 2.0, 1.6022242759457797e+60),
    (1.2, 60, 20.0, -9.631182317308152e+89),
    (1.5, 5, 0.5, 0.7101608440155238),
    (1.5, 5, 2.0, 93.6390339427048),
    (1.5, 5, 20.0, 3822347568908.3516),
    (1.5, 10, 0.5, -897.5917046016059),
    (1.5, 10, 2.0, -669140.5819761368),
    (1.5, 10, 20.0, -8.113675225873774e+17),
    (1.5, 20, 0.5, 6824930698.8199215),
    (1.5, 20, 2.0, 246198520442469.03),
    (1.5, 20, 20.0, 2.147481487261984e+29),
    (1.5, 30, 0.5, -2.7524358811488973e+18),
    (1.5, 30, 2.0, -3.2204947449230315e+24),
    (1.5, 30, 20.0, 1.4924058054658998e+44),
    (1.5, 60, 0.5, 1.1375064259844612e+50),
    (1.5, 60, 2.0, 8.089929128272216e+59),
    (1.5, 60, 20.0, -3.4550818725350573e+90),
)
# (a, m, d^m/da^m (1 - sin a)^{-3/4})
DERIV_POW_REF = (
    (0.3, 5, 114.93178955140337),
    (0.3, 10, 1434728.7107623485),
    (0.3, 20, 1.2167927130056454e+17),
    (0.3, 30, 1.470322934060618e+30),
    (0.3, 60, 4.8921905465110634e+76),
    (0.7, 5, 1342.0705813892514),
    (0.7, 10, 110830939.64323597),
    (0.7, 20, 4.117726053711939e+20),
    (0.7, 30, 2.1799127482422722e+35),
    (0.7, 60, 6.099661963140676e+86),
    (1.2, 5, 345166.7591430532),
    (1.2, 10, 2035573265529.9807),
    (1.2, 20, 3.858895732099015e+28),
    (1.2, 30, 1.0424386298713225e+47),
    (1.2, 60, 3.875686101835244e+109),
    (1.5, 5, 16307069547.237825),
    (1.5, 10, 3.789917711198347e+20),
    (1.5, 20, 1.1159540159846293e+44),
    (1.5, 30, 4.682518285891084e+69),
    (1.5, 60, 6.524057357909764e+153),
)


def _prefactor(s):
    return 2.0 ** (-s) * math.sqrt(math.pi) / math.gamma(s + 0.5)


# ---------------------------------------------------------------------------
# function specs and queries

class TestEntireFunctionSpec:
    def test_psi_one_and_zero(self):
        assert PSI_ONE(3.7) == 1.0
        assert not PSI_ONE.is_zero
        assert PSI_ZERO.is_zero
        assert PSI_ZERO(2.0) == 0.0

    def test_cos_spec_matches_cosine(self):
        spec = cos_spec(0.05)
        assert len(spec.even_coeffs) == 16
        assert spec.even_coeffs[0] == 1.0
        assert spec.even_coeffs[1] == pytest.approx(-0.05**2 / 2.0, rel=1e-15)
        for tau in (0.0, 1.0, 10.0, 40.0):
            assert spec(tau) == pytest.approx(math.cos(0.05 * tau), rel=1e-12)

    def test_cos_spec_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            cos_spec(0.0)

    def test_abs_envelope_dominates(self):
        spec = cos_spec(0.11)
        for tau in (0.5, 5.0, 20.0):
            assert spec.abs_envelope(tau) >= abs(spec(tau))

    def test_cauchy_estimate_rejections(self):
        # type 0 admits constants only
        with pytest.raises(ValueError):
            EntireFunctionSpec((1.0, 1.0), 0.0)
        # c_2 = 0.5 far exceeds (e b / 2)^2 at b = 0.01
        with pytest.raises(ValueError):
            EntireFunctionSpec((1.0, 0.5), 0.01)

    def test_n0_exempts_a_head(self):
        spec = EntireFunctionSpec((1.0, 0.5), 0.01, n0=2)
        assert spec(1.0) == pytest.approx(1.5)

    def test_invalid_type_or_n0(self):
        with pytest.raises(ValueError):
            EntireFunctionSpec((1.0,), -0.1)
        with pytest.raises(ValueError):
            EntireFunctionSpec((1.0,), 0.0, n0=-1)


class TestSummabilityQuery:
    def test_defaults_valid(self):
        q = SummabilityQuery()
        assert q.epsilon_schedule == DEFAULT_SCHEDULE

    def test_type_threshold_value(self):
        assert type_threshold(0.0) == pytest.approx(1.0 / (2.0 * math.e), rel=1e-15)

    def test_rejects_type_at_threshold(self):
        # threshold at a = 0 is (1 - sin 0)/(2e) = 0.1839...
        with pytest.raises(ValueError, match="1 - sin a"):
            SummabilityQuery(psi1=cos_spec(0.19))

    def test_tilt_shrinks_threshold(self):
        SummabilityQuery(a=0.0, psi1=cos_spec(0.15))
        with pytest.raises(ValueError):
            SummabilityQuery(a=0.5, psi1=cos_spec(0.15))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x": 0.0},
            {"a": -0.1},
            {"a": 0.5 * math.pi},
            {"epsilon_schedule": ()},
            {"epsilon_schedule": (1e-1, 1e-1)},
            {"epsilon_schedule": (1e-2, 1e-1)},
            {"epsilon_schedule": (1e-1, 0.0)},
            {"mellin_s": 0.0},
        ],
    )
    def test_invalid_queries(self, kwargs):
        with pytest.raises(ValueError):
            SummabilityQuery(**kwargs)


# ---------------------------------------------------------------------------
# closed forms

class TestClosedForms:
    def test_pinned_values(self):
        assert closed_cosh(0.5, 0.0) == pytest.approx(CLOSED_COSH_HALF_0, rel=1e-14)
        assert closed_cosh(1.0, 0.7) == pytest.approx(CLOSED_COSH_1_07, rel=1e-14)
        assert closed_sinh(0.5, 0.0) == pytest.approx(CLOSED_SINH_HALF_0, rel=1e-14)
        assert closed_sinh(0.5, 0.3) == pytest.approx(CLOSED_SINH_HALF_03, rel=1e-14)

    def test_divergence_toward_right_endpoint(self):
        assert closed_cosh(1.0, 0.5 * math.pi - 1e-4) > 1e7

    def test_sinh_is_a_derivative_of_cosh(self):
        # exact identity: Gamma(2s+1) = 2s Gamma(2s) absorbs the chain-rule
        # half from the cos(pi/4 + a/2) argument
        h = 1e-6
        for s, a in ((0.5, 0.3), (1.5, 0.9)):
            diff = (closed_cosh(s, a + h) - closed_cosh(s, a - h)) / (2.0 * h)
            assert closed_sinh(s, a) == pytest.approx(diff, rel=1e-6)

    @pytest.mark.parametrize("fn", [closed_cosh, closed_sinh])
    def test_domain(self, fn):
        with pytest.raises(ValueError):
            fn(0.0, 0.3)
        with pytest.raises(ValueError):
            fn(1.0, 0.5 * math.pi)

    @pytest.mark.parametrize("fn", [closed_cosh, closed_sinh])
    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_non_finite_s_is_refused(self, fn, s):
        with pytest.raises(ValueError, match="s must be finite"):
            fn(s, 0.0)


# ---------------------------------------------------------------------------
# tau-side integrals

class TestTauIntegralRhs:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 1.2])
    def test_closed_form_grid_at_eps_zero(self, s, a, cfg):
        qc = tau_integral_rhs(s, a, 0.0, PSI_ONE, PSI_ZERO, cfg) / _prefactor(s)
        qs = tau_integral_rhs(s, a, 0.0, PSI_ZERO, PSI_ONE, cfg) / _prefactor(s)
        assert qc == pytest.approx(closed_cosh(s, a), rel=1e-8)
        assert qs == pytest.approx(closed_sinh(s, a), rel=1e-8)

    def test_panels_follow_the_decay(self, cfg, panel_nodes):
        # 1-wide panels on [0, 8] and one per 4 nats of the steepest decay
        # beyond; two panels per unit of tau took 207,408 nodes here
        for s in (0.5, 1.0, 1.5):
            for a in (0.0, 0.3, 0.7, 1.2):
                for psi1, psi2 in ((PSI_ONE, PSI_ZERO), (PSI_ZERO, PSI_ONE)):
                    tau_integral_rhs(s, a, 0.0, psi1, psi2, cfg)
        assert sum(panel_nodes) <= 120_000, sum(panel_nodes)

    def test_gaussian_damping_continuity(self, cfg):
        v0 = tau_integral_rhs(1.0, 0.3, 0.0, PSI_ONE, PSI_ZERO, cfg)
        v2 = tau_integral_rhs(1.0, 0.3, 1e-2, PSI_ONE, PSI_ZERO, cfg)
        v3 = tau_integral_rhs(1.0, 0.3, 1e-3, PSI_ONE, PSI_ZERO, cfg)
        assert abs(v2 - v0) < 1e-1 * v0
        assert abs(v3 - v0) < abs(v2 - v0) / 5.0

    def test_zero_psi_short_circuit(self, cfg):
        assert tau_integral_rhs(1.0, 0.0, 1e-3, PSI_ZERO, PSI_ZERO, cfg) == 0.0

    def test_domain(self, cfg):
        with pytest.raises(ValueError):
            tau_integral_rhs(1.0, 0.3, -1e-3, PSI_ONE, PSI_ZERO, cfg)
        with pytest.raises(ValueError):
            tau_integral_rhs(1.0, 0.5 * math.pi, 0.0, PSI_ONE, PSI_ZERO, cfg)

    def test_overflowing_integrand_is_refused(self, cfg, panel_nodes):
        # Gamma(s + i tau)^2 e^{(pi/2 + a) tau} passes 1e308 before the
        # prefactor brings it back: refused on the first node array, where
        # it used to run every refinement on inf and NaN panel sums
        assert math.isfinite(tau_integral_rhs(84.0, 0.7, 1e-3, PSI_ONE, PSI_ZERO, cfg))
        panel_nodes.clear()
        with pytest.raises(OverflowError):
            tau_integral_rhs(121.3, 0.7, 1e-3, PSI_ONE, PSI_ZERO, cfg)
        assert len(panel_nodes) == 1


# ---------------------------------------------------------------------------
# Mellin pairings

class TestMellinPair:
    def test_gamma_values(self, cfg):
        assert mellin_pair(lambda x: 1.0, 1.0, cfg) == pytest.approx(1.0, rel=1e-10)
        assert mellin_pair(lambda x: 1.0, 0.5, cfg) == pytest.approx(
            math.sqrt(math.pi), rel=1e-10
        )

    def test_tilted_exponential(self, cfg):
        g = lambda x: np.exp(x * math.sin(0.5))
        expected = 1.0 / (1.0 - math.sin(0.5))
        assert mellin_pair(g, 1.0, cfg) == pytest.approx(expected, rel=1e-10)

    def test_slow_decay_tail_is_marched(self, cfg):
        # decay rate 1 - sin 1.2 = 0.068: the fixed window would quit far
        # too early without the outward marching
        g = lambda x: np.exp(x * math.sin(1.2))
        expected = 1.0 / (1.0 - math.sin(1.2))
        assert mellin_pair(g, 1.0, cfg) == pytest.approx(expected, rel=1e-8)

    def test_pairs_with_theorem2_limit(self, cfg):
        s, a = 1.5, 0.5
        got = mellin_pair(lambda x: theorem2_limit(x, a), s, cfg)
        expected = 0.5 * math.pi * math.gamma(s) * (1.0 - math.sin(a)) ** (-s)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_domain(self, cfg):
        with pytest.raises(ValueError):
            mellin_pair(lambda x: 1.0, 0.0, cfg)
        # below s of about 0.0623 the log axis starts at an x that underflows
        # to 0, which g refused as "x must be positive"
        with pytest.raises(ValueError, match="s must be at least 1/16"):
            mellin_pair(lambda x: theorem2_limit(x, 0.99), 0.053, cfg)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_width_must_be_finite_and_positive(self, width, cfg):
        # width 0 divided by zero and width -1 returned 1.1e-16 for 1
        with pytest.raises(ValueError, match="width"):
            mellin_pair(lambda x: 1.0, 1.0, cfg, width=width)


class TestMellinKIdentity:
    @pytest.mark.parametrize("s,tau", [(1.0, 1.0), (2.0, 3.0)])
    def test_residuals(self, s, tau, cfg):
        assert mellin_k_identity(s, tau, cfg) <= 1e-8

    def test_small_tau_limit(self, cfg):
        # at tau -> 0 the right side tends to pi^{3/2}/sqrt(2), and the
        # transform of K_0 reproduces it through a separate quadrature
        assert mellin_k_identity(0.5, 1e-6, cfg) <= 1e-7
        direct = mellin_pair(np.vectorize(lambda x: bessel_k0(x, cfg)), 0.5, cfg)
        assert direct == pytest.approx(MELLIN_K0_HALF, rel=1e-8)

    def test_tail_test_adds_one_panel_and_no_base_pass(self, cfg, panel_nodes, monkeypatch):
        # the outward panel alone is below the truncation threshold, so the
        # march never sums the base panels that the quadrature sums again
        # count mellin_pair's own panel sums too, not only integrate's
        monkeypatch.setattr(summability, "panel_sums", quadrature.panel_sums)
        mellin_k_identity(1.0, 2.0, cfg)
        first, levels = panel_nodes[0], panel_nodes[1:]
        assert first == 33 and levels[0] == 1683
        assert levels == [levels[0] << k for k in range(len(levels))]

    def test_domain(self, cfg):
        with pytest.raises(ValueError):
            mellin_k_identity(0.0, 1.0, cfg)
        with pytest.raises(ValueError):
            mellin_k_identity(1.0, 0.0, cfg)
        # below s = 1/16 the log axis would start at x = 0, where the
        # kernel has no value
        with pytest.raises(ValueError, match="s must be at least"):
            mellin_k_identity(0.05, 1.0, cfg)
        # the domain is checked before the right side, which has a pole here
        with pytest.raises(ValueError, match="s must be at least"):
            mellin_k_identity(-0.5, 1.0, cfg)
        assert mellin_k_identity(0.0625, 1.0, cfg) <= 1e-12

    @pytest.mark.parametrize("tau", [20.0, 40.0])
    def test_refuses_a_right_side_within_abs_tol(self, tau, cfg):
        # the right side is 6.5e-26 at tau = 20 and 6.7e-53 at tau = 40,
        # where the residual read 6.8e-5 and 5.6e9
        with pytest.raises(AccuracyError, match=f"s=1.0, tau={tau!r}"):
            mellin_k_identity(1.0, tau, cfg)
        assert mellin_k_identity(1.0, 10.0, cfg) <= 1e-8


class TestGammaProductIdentity:
    @pytest.mark.parametrize("s,tau", [(1.0, 1.0), (0.5, 2.0)])
    def test_residuals(self, s, tau, cfg):
        assert gamma_product_identity(s, tau, cfg) <= 1e-7

    def test_domain(self, cfg):
        with pytest.raises(ValueError):
            gamma_product_identity(-1.0, 1.0, cfg)
        with pytest.raises(ValueError):
            gamma_product_identity(1.0, -2.0, cfg)
        with pytest.raises(ValueError, match="s must be at least"):
            gamma_product_identity(0.03, 1.0, cfg)
        # out of the domain and below abs_tol: the domain is what is named
        with pytest.raises(ValueError, match="s must be at least"):
            gamma_product_identity(0.01, 20.0, cfg)
        assert gamma_product_identity(0.03125, 1.0, cfg) <= 1e-12

    def test_refuses_a_gamma_product_within_abs_tol(self, cfg):
        # 6.7e-53 at tau = 40, where the residual read 0.062
        with pytest.raises(AccuracyError, match="s=1.0, tau=40.0"):
            gamma_product_identity(1.0, 40.0, cfg)
        assert gamma_product_identity(1.0, 10.0, cfg) <= 1e-12

    @pytest.mark.parametrize("s", [40.0, 60.0, 80.0])
    def test_large_s_stays_in_float_range(self, s, cfg):
        # the moment's nodes reach x of about 1000, where e^x alone overflows
        assert gamma_product_identity(s, 1.0, cfg) <= 1e-12


# ---------------------------------------------------------------------------
# derivative engine

class TestDerivExpXsina:
    def test_low_orders_match_closed_forms(self):
        x, a = 1.7, 0.9
        e = math.exp(x * math.sin(a))
        assert deriv_exp_xsina(0, x, a) == pytest.approx(e, rel=1e-14)
        assert deriv_exp_xsina(1, x, a) == pytest.approx(x * math.cos(a) * e, rel=1e-14)
        d2 = (x * x * math.cos(a) ** 2 - x * math.sin(a)) * e
        assert deriv_exp_xsina(2, x, a) == pytest.approx(d2, rel=1e-13)

    def test_pinned_fourth_derivative(self):
        assert deriv_exp_xsina(4, 1.3, 0.4) == pytest.approx(DERIV4_AT_13_04, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_magnitude_bound(self, n, x):
        # |d^n/da^n e^{x sin a}| <= e^{x sin a} n^n sum_{k<=n} (2x)^k/k!
        coeff = sum((2.0 * x) ** k / math.factorial(k) for k in range(n + 1))
        for a in (0.0, 0.3, 1.0):
            bound = math.exp(x * math.sin(a)) * float(n) ** n * coeff
            assert abs(deriv_exp_xsina(n, x, a)) <= bound

    def test_derivative_past_float_range_overflows(self):
        # e^{760 sin 1.2} is finite, x cos(a) times it is not
        with pytest.raises(OverflowError):
            deriv_exp_xsina(1, 760.0, 1.2)
        with pytest.raises(OverflowError):
            theorem3_value(760.0, 1.2, PSI_ZERO, PSI_ONE)

    def test_order_contract(self):
        deriv_exp_xsina(60, 0.5, 0.2)
        with pytest.raises(ValueError):
            deriv_exp_xsina(61, 0.5, 0.2)
        with pytest.raises(ValueError):
            deriv_exp_xsina(-1, 0.5, 0.2)


class TestDerivativeEnginesFrozen:
    @pytest.mark.parametrize("a,m,x,expected", DERIV_EXP_REF)
    def test_exp_family(self, a, m, x, expected):
        assert deriv_exp_xsina(m, x, a) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("a,m,expected", DERIV_POW_REF)
    def test_power_family_through_target(self, a, m, expected):
        # D^m (1 - sin a)^{-3/4} reached through theorem3_target with a
        # single coefficient exempted from the Cauchy check (n0): unlike
        # the tiny high coefficients of an admissible cos_spec, it weighs
        # D^m fully, so an error at steep tilt shows in the target
        n = m // 2
        spec = EntireFunctionSpec((0.0,) * n + (1.0,), 0.0, n0=2 * n)
        psi1, psi2 = (spec, PSI_ZERO) if m % 2 == 0 else (PSI_ZERO, spec)
        got = theorem3_target(0.75, a, psi1, psi2)
        assert got == pytest.approx(0.5 * math.pi * math.gamma(0.75) * expected, rel=1e-11)

    def test_operator_order_cap(self):
        # cos_spec(b, terms=40) reaches D^78: both operator forms refuse it
        spec = cos_spec(0.01, terms=40)
        with pytest.raises(ValueError):
            theorem3_value(1.0, 0.3, spec, PSI_ZERO)
        with pytest.raises(ValueError):
            theorem3_target(1.0, 0.3, spec, PSI_ZERO)
        head = EntireFunctionSpec((0.0,) * 30 + (1.0,), 0.0, n0=60)
        theorem3_target(1.0, 0.3, head, PSI_ZERO)
        with pytest.raises(ValueError):
            theorem3_target(1.0, 0.3, PSI_ZERO, head)


# ---------------------------------------------------------------------------
# limits and operator values

class TestTheoremLimits:
    def test_theorem2_limit_values(self):
        for x in (0.5, 1.0, 7.0):
            assert theorem2_limit(x, 0.0) == pytest.approx(0.5 * math.pi, rel=1e-15)
        exp_half = 0.5 * math.pi * math.exp(0.5)
        assert theorem2_limit(1.0, math.pi / 6.0) == pytest.approx(exp_half, rel=1e-14)

    def test_theorem2_limit_domain(self):
        with pytest.raises(ValueError):
            theorem2_limit(0.0, 0.3)
        with pytest.raises(ValueError):
            theorem2_limit(1.0, 0.5 * math.pi)

    def test_theorem3_value_identity_operator(self):
        for x in (0.5, 2.0):
            for a in (0.0, 0.8):
                # Theorem 2's limit, (pi/2) e^{x sin a}, in closed form
                got = theorem3_value(x, a, PSI_ONE, PSI_ZERO)
                assert got == pytest.approx(0.5 * math.pi * math.exp(x * math.sin(a)), rel=1e-14)

    def test_theorem3_value_pinned(self):
        got = theorem3_value(1.0, 0.0, cos_spec(0.05), PSI_ZERO)
        assert got == pytest.approx(THEOREM3_VALUE_COS, rel=1e-13)

    def test_theorem3_value_single_sinh_term(self):
        for x, a in ((0.7, 0.0), (1.5, 0.6)):
            got = theorem3_value(x, a, PSI_ZERO, PSI_ONE)
            expected = 0.5 * math.pi * x * math.cos(a) * math.exp(x * math.sin(a))
            assert got == pytest.approx(expected, rel=1e-13)

    def test_theorem3_value_type_violation(self):
        with pytest.raises(ValueError):
            theorem3_value(1.0, 0.5, cos_spec(0.15), PSI_ZERO)

    def test_truncation_converges_with_cauchy_tail(self):
        # truncations of cos(b tau) converge in the operator value, with
        # the tail controlled by the Cauchy-estimate geometric bound
        b, x, a = 0.05, 1.0, 0.0
        full = theorem3_value(x, a, cos_spec(b, terms=16), PSI_ZERO)
        gaps = []
        for terms in (2, 4, 8):
            spec = cos_spec(b, terms=terms)
            gaps.append(abs(theorem3_value(x, a, spec, PSI_ZERO) - full))
            n = terms  # first omitted index
            cauchy = (math.e * b / (2 * n)) ** (2 * n)
            dmax = max(
                abs(deriv_exp_xsina(2 * m, x, a)) for m in range(n, n + 4)
            )
            assert gaps[-1] <= 0.5 * math.pi * 4.0 * cauchy * dmax
        assert gaps[0] > gaps[1] > gaps[2]

    def test_theorem3_target_pinned(self):
        got = theorem3_target(1.0, 0.0, cos_spec(0.05), PSI_ZERO)
        assert got == pytest.approx(THEOREM3_TARGET_COS, rel=1e-13)

    def test_theorem3_target_reduces_to_theorem2(self):
        for s, a in ((0.5, 0.0), (1.5, 0.9)):
            got = theorem3_target(s, a, PSI_ONE, PSI_ZERO)
            expected = 0.5 * math.pi * math.gamma(s) * (1.0 - math.sin(a)) ** (-s)
            assert got == pytest.approx(expected, rel=1e-14)

    def test_power_derivative_engine_pinned(self):
        # (pi/2) Gamma(s) D^5 (1 - sin a)^{-s} reached through a psi2 spec
        # whose lone coefficient is exempted from the Cauchy check
        spec5 = EntireFunctionSpec((0.0, 0.0, 1.0), 0.0, n0=4)
        got = theorem3_target(0.75, 0.3, PSI_ZERO, spec5)
        expected = 0.5 * math.pi * math.gamma(0.75) * DERIV5_POW_03
        assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# schedule checks

class TestScheduleChecks:
    def test_theorem2_check_tilted(self, cfg):
        q = SummabilityQuery(x=1.0, a=0.5, mellin_s=1.0)
        rep = theorem2_check(q, cfg)
        assert rep.target == pytest.approx(
            0.5 * math.pi / (1.0 - math.sin(0.5)), rel=1e-12
        )
        assert len(rep.pairing_values) == len(DEFAULT_SCHEDULE)
        assert rep.errors[-3] > rep.errors[-2] > rep.errors[-1]
        assert rep.converged

    def test_theorem2_check_untilted_target(self, cfg):
        rep = theorem2_check(SummabilityQuery(), cfg)
        assert rep.target == pytest.approx(0.5 * math.pi, rel=1e-14)
        assert rep.converged

    def test_theorem2_check_rejects_general_psi(self, cfg):
        q = SummabilityQuery(psi1=cos_spec(0.05))
        with pytest.raises(ValueError):
            theorem2_check(q, cfg)
        q2 = SummabilityQuery(psi2=PSI_ONE)
        with pytest.raises(ValueError):
            theorem2_check(q2, cfg)

    def test_theorem3_check_cos_converges(self, cfg):
        q = SummabilityQuery(psi1=cos_spec(0.05))
        rep = theorem3_check(q, cfg)
        assert rep.converged
        assert rep.target == pytest.approx(THEOREM3_TARGET_COS, rel=1e-13)
        # Richardson extrapolation of the linear-in-eps bias reaches the
        # independently computed pairing of the operator value
        e1, e2 = q.epsilon_schedule[-2], q.epsilon_schedule[-1]
        p1, p2 = rep.pairing_values[-2], rep.pairing_values[-1]
        limit = (e1 * p2 - e2 * p1) / (e1 - e2)
        indep = mellin_pair(
            lambda x: theorem3_value(x, 0.0, cos_spec(0.05), PSI_ZERO), 1.0, cfg
        )
        assert abs(limit - indep) / abs(indep) <= 1e-6

    def test_report_json_round_trip(self, cfg):
        # the report record as the CLI's one JSON writer emits it
        q = SummabilityQuery(epsilon_schedule=(1e-1, 1e-2, 1e-3))
        rep = theorem2_check(q, cfg)
        text = cli._json_text(cli._summability_record(rep))
        doc = json.loads(text)
        assert doc["converged"] == rep.converged
        assert doc["errors"] == list(rep.errors)
        assert doc["target"] == rep.target
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


# ---------------------------------------------------------------------------
# pointwise traces (diagnostics)

# f_epsilon at the default config, computed once with the contour oracle at
# every head node and a 64-node cubic spline of the tail amplitude:
# (x, a, psi1, psi2, eps, value)
F_EPSILON_FROZEN = (
    (1.0, 0.0, PSI_ONE, PSI_ZERO, 1e-1, 1.392698992890119),
    (1.0, 0.0, PSI_ONE, PSI_ZERO, 1e-2, 1.554853675374073),
    (1.0, 0.0, PSI_ONE, PSI_ZERO, 1e-3, 1.569223175073240),
    (5.0, 0.0, PSI_ONE, PSI_ZERO, 1e-2, 1.218233536183507),
    (0.2, 0.3, PSI_ONE, PSI_ZERO, 1e-2, 1.666804282122073),
    (1.0, 0.0, PSI_ZERO, PSI_ONE, 1e-2, 1.570153406657305),
    (20.0, 0.0, PSI_ONE, PSI_ZERO, 1e-2, 0.032482891621523),
)


# f_epsilon at a = 0 past the old x = 20 reach, against mpmath 1.3 quadrature
# of the defining integral (mpmath is not imported here):
#   mp.mp.dps = 25; f = lambda t: mp.exp(-eps*t*t) * mp.cosh(mp.pi*t/2)
#       * mp.re(mp.besselk(1j*t, x))
#   mp.quad(f, [80*k/40 for k in range(41)])     # eps = 1e-2
#   mp.quad(f, [240*k/120 for k in range(121)])  # eps = 1e-3
# (x, eps, value)
F_EPSILON_LARGE_X = (
    (30.0, 1e-2, 3.9907687050129584e-4),
    (20.0, 1e-3, 1.0523188880655555),
    (100.0, 1e-3, 7.9614305387486079e-5),
)


@pytest.fixture
def contour_points(monkeypatch):
    """Record the (x, tau) points summability sends to the contour evaluator."""
    points = []

    def counting(x, tau, mu=0.0, cfg=DEFAULT_CONFIG):
        values = kernel._checked_contour(x, tau, mu, cfg)
        xs, taus = np.broadcast_arrays(x, tau)
        points.extend(zip(xs.ravel(), taus.ravel()))
        return values

    monkeypatch.setattr(summability, "_checked_contour", counting)
    return points


class TestScaledKernel:
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 10.0, 20.0])
    def test_series_head_matches_scalar_route(self, x, cfg, contour_points):
        taus = np.geomspace(1e-3, max(40.0, 2.0 * x), 300)
        got = summability._scaled_kernel(x, taus, cfg)
        rejected = len(contour_points)
        for t, g in zip(taus, got):
            want = k_itau_oracle(EvaluationPoint(x, t), cfg) * math.exp(0.5 * math.pi * t)
            assert abs(g - want) <= 1e-11 * math.sqrt(2.0 * math.pi / t), (x, t)
        if x <= 5.0:
            assert rejected == 0
        if x == 20.0:
            assert 0 < rejected < taus.size

    @pytest.mark.parametrize("x", [30.0, 50.0, 100.0])
    def test_far_nodes_match_oracle(self, x, cfg, contour_points):
        # past max(40, 2x) the series, the contour and (at x = 100) the
        # large-order identity with the summed bracket all take nodes
        taus = np.geomspace(max(40.0, 2.0 * x), 400.0, 60)[1:]
        got = summability._scaled_kernel(x, taus, cfg)
        for t, g in zip(taus, got):
            want = k_itau_oracle(EvaluationPoint(x, t), cfg) * math.exp(0.5 * math.pi * t)
            assert abs(g - want) <= 1e-11 * math.sqrt(2.0 * math.pi / t), (x, t)
        if x == 100.0:
            _, monitor, _ = kernel._defseries_scaled(x, taus)
            assert 0 < len(contour_points) < np.count_nonzero(monitor > cfg.rel_tol)


class TestFEpsilon:
    @pytest.mark.parametrize("x, a, psi1, psi2, eps, want", F_EPSILON_FROZEN)
    def test_frozen_values(self, x, a, psi1, psi2, eps, want, cfg):
        q = SummabilityQuery(x=x, a=a, psi1=psi1, psi2=psi2)
        assert abs(f_epsilon(q, eps, cfg) - want) <= 1e-12

    def test_head_makes_no_oracle_call_at_moderate_x(self, cfg, contour_points):
        f_epsilon(SummabilityQuery(x=1.0), 1e-2, cfg)
        assert contour_points == []

    @pytest.mark.parametrize("x, eps, want", F_EPSILON_LARGE_X)
    def test_large_x_matches_quadrature_reference(self, x, eps, want, cfg):
        assert abs(f_epsilon(SummabilityQuery(x=x), eps, cfg) - want) <= 1e-12

    def test_no_kernel_route_names_its_point(self, cfg):
        # past tau = 400 the contour evaluator nears underflow, and at x = 200
        # the bracket series loses more than rel_tol to roundoff
        with pytest.raises(AccuracyError) as exc:
            f_epsilon(SummabilityQuery(x=200.0), 1e-4, cfg)
        message = str(exc.value)
        assert "f_epsilon" in message and "x=200," in message
        assert float(message.rsplit("tau=", 1)[1]) > 400.0
        assert exc.value.achieved > cfg.rel_tol

    def test_no_remainder_quadrature(self, cfg, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("f_epsilon evaluated a remainder by quadrature")

        for name, module in list(sys.modules.items()):
            for fn in ("_remainder_integral", "remainder_explicit"):
                if name.startswith("klbessel") and hasattr(module, fn):
                    monkeypatch.setattr(module, fn, forbidden)
        for x, eps in ((1.0, 1e-3), (20.0, 1e-3), (100.0, 1e-3)):
            f_epsilon(SummabilityQuery(x=x), eps, cfg)

    @pytest.mark.parametrize("eps", [1e-5, 1e-4])
    def test_floor_above_tolerance_refused_before_quadrature(self, eps):
        # 8 eps_mach e^{a^2/(4 eps)} is e^6215 and e^590: eps = 1e-5 once
        # allocated until the process died and 1e-4 refused after 20 s; a
        # child process under a 2 GiB address-space cap fails alone if either
        # runs away, and warnings are errors there
        code = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from klbessel.quadrature import AccuracyError\n"
            "from klbessel.summability import SummabilityQuery, f_epsilon\n"
            "start = time.perf_counter()\n"
            "try:\n"
            f"    f_epsilon(SummabilityQuery(a=0.5, x=1.0), {eps!r})\n"
            "except AccuracyError as exc:\n"
            "    print(exc, time.perf_counter() - start, sep='\\n')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(summability.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        message, seconds = proc.stdout.splitlines()
        assert f"a=0.5, eps={eps!r}" in message
        assert float(seconds) < 1.0

    def test_zero_integrand(self, cfg):
        q = SummabilityQuery(psi1=PSI_ZERO, psi2=PSI_ZERO)
        assert f_epsilon(q, 1e-3, cfg) == 0.0

    def test_abel_approach_at_zero_tilt(self, cfg):
        q = SummabilityQuery(x=1.0, a=0.0)
        diffs = [abs(f_epsilon(q, eps, cfg) - 0.5 * math.pi) for eps in (1e-1, 1e-2, 1e-3)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 2e-3

    def test_sinh_trace_approaches_first_derivative_limit(self, cfg):
        q = SummabilityQuery(x=1.0, a=0.0, psi1=PSI_ZERO, psi2=PSI_ONE)
        v = f_epsilon(q, 1e-2, cfg)
        assert abs(v - 0.5 * math.pi) < 1e-2

    def test_requires_positive_eps(self, cfg):
        with pytest.raises(ValueError):
            f_epsilon(SummabilityQuery(), 0.0, cfg)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_eps_is_refused_by_name(self, eps, cfg):
        # the tau cut came out NaN and failed as "cannot convert float NaN"
        with pytest.raises(ValueError, match="eps must be finite"):
            f_epsilon(SummabilityQuery(), eps, cfg)
        with pytest.raises(ValueError, match="eps must be finite"):
            tau_integral_rhs(1.0, 0.0, eps, PSI_ONE, PSI_ZERO, cfg)


# Log-uniform draws inside each evaluator's documented domain: x in [1e-2, 1e2]
# and eps in [1e-3, 1e-1] for f_epsilon, s in [1e-2, 1e2] (mellin_pair refuses
# below 1/16) and eps in [1e-6, 1] for tau_integral_rhs, widths in [0.05, 1],
# tilts in [0, pi/2).  Every call returns a finite float or refuses with
# ValueError naming one of its own parameters, AccuracyError or OverflowError.
_FUZZ_CHILD = """
import json, math, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from klbessel.quadrature import AccuracyError
from klbessel.summability import (PSI_ONE, PSI_ZERO, SummabilityQuery, f_epsilon, mellin_pair,
                                  tau_integral_rhs, theorem2_limit)
rng = np.random.default_rng(int(sys.argv[1]))
logu = lambda lo, hi: float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
tilt = lambda: float(rng.uniform(0.0, 0.5 * math.pi))
calls = []
for _ in range(int(sys.argv[2])):
    x, eps, a = logu(1e-2, 1e2), logu(1e-3, 1e-1), tilt()
    calls.append((("f_epsilon", "x", "a", "eps"),
                  lambda x=x, eps=eps, a=a: f_epsilon(SummabilityQuery(x=x, a=a), eps)))
    s, eps, a, psi2 = logu(1e-2, 1e2), logu(1e-6, 1.0), tilt(), (PSI_ZERO, PSI_ONE)[rng.integers(2)]
    calls.append((("tau_integral_rhs", "s", "a", "eps"),
                  lambda s=s, a=a, eps=eps, p=psi2: tau_integral_rhs(s, a, eps, PSI_ONE, p)))
    s, a, w = logu(1e-2, 1e2), tilt(), logu(0.05, 1.0)
    calls.append((("mellin_pair", "s", "width"),
                  lambda s=s, a=a, w=w: mellin_pair(lambda xs: theorem2_limit(xs, a), s, width=w)))
values = dict.fromkeys(("f_epsilon", "tau_integral_rhs", "mellin_pair"), 0)
for names, call in calls:
    try:
        value = call()
    except ValueError as exc:
        assert str(exc).split()[0] in names[1:], (names[0], exc)
    except (AccuracyError, OverflowError):
        pass
    else:
        assert type(value) is float and math.isfinite(value), (names[0], value)
        values[names[0]] += 1
print(json.dumps(values))
"""


@pytest.mark.parametrize("seed", [2407, 2408])
def test_seeded_fuzz_is_finite_or_refuses_by_name(seed):
    # in a child process under a 2 GiB address-space cap, warnings as errors
    env = dict(os.environ, PYTHONPATH=str(Path(summability.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _FUZZ_CHILD, str(seed), "24"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # each evaluator returned values, not only refusals
    assert min(json.loads(proc.stdout).values()) > 0, proc.stdout


# ---------------------------------------------------------------------------
# node-array consumers of the kernel against a scalar-oracle loop

@pytest.fixture
def oracle_calls(monkeypatch):
    """Count the scalar-oracle calls made through any klbessel module."""
    calls = []

    def counting(p, cfg=DEFAULT_CONFIG):
        calls.append(p)
        return k_itau_oracle(p, cfg)

    for name, module in list(sys.modules.items()):
        if name.startswith("klbessel") and hasattr(module, "k_itau_oracle"):
            monkeypatch.setattr(module, "k_itau_oracle", counting)
    return calls


@pytest.fixture
def integrands(monkeypatch):
    """Record the (integrand, edges) of every `integrate` call in summability and bounds."""
    seen = []
    real = summability.integrate

    def recording(f, edges, cfg=DEFAULT_CONFIG):
        seen.append((f, np.asarray(edges)))
        return real(f, edges, cfg)

    monkeypatch.setattr(summability, "integrate", recording)
    monkeypatch.setattr(bounds, "integrate", recording)
    return seen


def _span_nodes(edges, n=257):
    return np.linspace(edges[0], edges[-1], n)


class TestBatchedConsumers:
    """Each consumer takes its kernel values as one array call per node array:
    no scalar-oracle call, and values equal to a scalar-oracle loop bit for bit."""

    def test_gamma_product_identity(self, cfg, oracle_calls, integrands):
        s, tau = 1.0, 1.0
        gamma_product_identity(s, tau, cfg)
        assert oracle_calls == []
        (f, edges), = integrands
        w = _span_nodes(edges)
        xs = np.exp(w)
        assert xs.min() <= 0.05 < xs.max()
        loop = np.array([
            k_itau_smallx(EvaluationPoint(xi, 2.0 * tau)) if xi <= 0.05
            else k_itau_oracle(EvaluationPoint(xi, 2.0 * tau), cfg)
            for xi in xs
        ])
        half = np.exp(0.5 * xs)
        assert np.array_equal(f(w), loop * half * half * np.exp(2.0 * s * w - xs))

    def test_mellin_k_identity(self, cfg, oracle_calls, integrands):
        s, tau = 1.0, 2.0
        mellin_k_identity(s, tau, cfg)
        assert oracle_calls == []
        (f, edges), = integrands
        w = _span_nodes(edges)
        xs = np.exp(w)
        assert xs.min() <= 0.05 < xs.max()
        loop = np.array([
            k_itau_smallx(EvaluationPoint(xi, tau)) if xi <= 0.05
            else k_itau_oracle(EvaluationPoint(xi, tau), cfg)
            for xi in xs
        ])
        assert np.array_equal(f(w), loop * np.exp(s * w - xs))

    def test_eq_1_27(self, cfg, oracle_calls, integrands):
        p = EvaluationPoint(1.0, 1.0)
        bounds.verify_representation("EQ_1_27", p, cfg)
        # the left side K^2 at p itself is the only scalar call
        assert oracle_calls == [p]
        (f, edges), = integrands
        w = _span_nodes(edges)
        loop = np.array([
            k_itau_oracle(EvaluationPoint(float(xi), 2.0 * p.tau), cfg)
            for xi in 2.0 * p.x * np.cosh(w)
        ])
        assert np.array_equal(f(w), loop)

    def test_f_epsilon_head_at_x_20(self, cfg, oracle_calls):
        x = 20.0
        f_epsilon(SummabilityQuery(x=x), 1e-2, cfg)
        assert oracle_calls == []
        taus = np.geomspace(1e-3, 40.0, 300)
        scaled, monitor, _ = kernel._defseries_scaled(x, taus)
        rejected = np.flatnonzero(~(monitor <= cfg.rel_tol))
        assert 0 < rejected.size < taus.size
        for i in rejected:
            scaled[i] = k_itau_oracle(EvaluationPoint(x, taus[i]), cfg) * np.exp(0.5 * math.pi * taus[i])
        assert np.array_equal(summability._scaled_kernel(x, taus, cfg), scaled)
