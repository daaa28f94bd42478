import cmath
import csv
import io
import math

import numpy as np
import pytest

from klbessel import asymptotic, cli
from klbessel.asymptotic import (
    expansion_report,
    leading_term,
    phase,
    remainder_bound,
    remainder_explicit,
    remainder_measured,
    stirling_r_gamma,
    stirling_r_integral,
)
from klbessel.kernel import EvaluationPoint, k_itau_oracle, natural_scale
from klbessel.quadrature import AccuracyError

# Stirling remainders pinned from 50-digit arithmetic; float64 phase
# roundoff grows like tau*log(tau), hence the 1e-10 comparison.
R_PINS = {
    0.5: 0.0052845024838155078 - 0.18592679857823521j,
    1.0: -0.0028539665043431187 - 0.087009910254746092j,
    2.0: -0.00088206945981109822 - 0.042033893795460743j,
    5.0: -0.00013926064738039454 - 0.016688376231844465j,
    10.0: -3.4745239684274114e-05 - 0.008336022560962003j,
    40.0: -2.1702285434568292e-06 - 0.0020833752367304666j,
}

LEADING_AT_1_10 = 1.1330259295658962e-07
MEASURED_AT_1_10 = -0.0029892561112201232
BOUND_PIN = 72.777842030086259  # tau=10, tau0=1, X=5, N=2


@pytest.mark.parametrize("tau", sorted(R_PINS))
def test_stirling_r_gamma_pins(tau):
    got = stirling_r_gamma(tau)
    assert abs(got - R_PINS[tau]) <= 1e-10 * abs(R_PINS[tau])


def test_stirling_r_gamma_bounded():
    for tau in np.geomspace(0.5, 50.0, 100):
        assert abs(stirling_r_gamma(tau)) <= math.exp(1.0 / (6.0 * tau)) - 1.0


def test_stirling_r_gamma_decay():
    # tau*|r| stays bounded once tau >= 1
    cap = math.exp(1.0 / 6.0) / 6.0
    for tau in (1.0, 2.0, 10.0, 50.0):
        assert tau * abs(stirling_r_gamma(tau)) <= cap


def test_stirling_r_gamma_domain():
    with pytest.raises(ValueError):
        stirling_r_gamma(0.0)
    with pytest.raises(ValueError):
        stirling_r_gamma(np.array([1.0, 0.0]))


def test_stirling_r_gamma_array_matches_scalars():
    taus = np.geomspace(0.5, 700.0, 50)
    got = stirling_r_gamma(taus)
    assert isinstance(stirling_r_gamma(2.0), complex)
    assert np.array_equal(got, [stirling_r_gamma(float(t)) for t in taus])


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0, 40.0])
def test_stirling_constructions_agree(cfg, tau):
    gi = stirling_r_integral(tau, cfg)
    gg = stirling_r_gamma(tau)
    assert abs(gi - gg) <= 1e-8 * abs(gg)


def test_stirling_r_integral_domain(cfg):
    with pytest.raises(ValueError):
        stirling_r_integral(0.4, cfg)


@pytest.mark.parametrize("tau", [math.inf, math.nan])
def test_stirling_r_integral_refuses_non_finite_tau(tau, cfg):
    with pytest.raises(ValueError, match="tau must be finite"):
        stirling_r_integral(tau, cfg)


def test_leading_term_pin():
    got = leading_term(EvaluationPoint(1.0, 10.0))
    assert math.isclose(got, LEADING_AT_1_10, rel_tol=1e-12)


def test_leading_term_cosine_zero():
    # x chosen so the phase hits pi/2 exactly at tau = 5
    x = 10.0 / math.exp(1.0 + 3.0 * math.pi / 20.0)
    assert abs(leading_term(EvaluationPoint(x, 5.0))) <= 1e-14


def test_leading_term_scale_envelope():
    for tau in (0.5, 2.0, 17.0):
        for x in (0.1, 1.0, 30.0):
            assert abs(leading_term(EvaluationPoint(x, tau))) <= natural_scale(tau)


def test_remainder_measured_pin(cfg):
    got = remainder_measured(EvaluationPoint(1.0, 10.0), cfg=cfg)
    assert abs(got - MEASURED_AT_1_10) <= 1e-9 * abs(MEASURED_AT_1_10)


def test_remainder_measured_decays(cfg):
    p_far = abs(remainder_measured(EvaluationPoint(1.0, 20.0), cfg=cfg))
    p_near = abs(remainder_measured(EvaluationPoint(1.0, 5.0), cfg=cfg))
    assert p_far < p_near
    caps = [t * abs(remainder_measured(EvaluationPoint(1.0, t), cfg=cfg)) for t in (5.0, 10.0, 20.0, 40.0)]
    assert max(caps) < 1.0


@pytest.mark.parametrize("n_terms", [0, 1, 3])
def test_explicit_remainder_reconstructs_kernel(cfg, n_terms):
    p = EvaluationPoint(2.0, 4.0)
    rec = leading_term(p) + natural_scale(p.tau) * remainder_explicit(p, n_terms, cfg)
    k = k_itau_oracle(p, cfg)
    assert abs(rec - k) <= 1e-9 * abs(k)


def test_explicit_matches_measured(cfg):
    for x, tau, n_terms in [(1.0, 5.0, 2), (0.25, 1.0, 1), (5.0, 40.0, 3), (1.0, 10.0, 0)]:
        p = EvaluationPoint(x, tau)
        m = remainder_measured(p, cfg=cfg)
        e = remainder_explicit(p, n_terms, cfg)
        assert abs(m - e) <= 1e-8 * abs(m)


def test_explicit_pinned_value(cfg):
    got = remainder_explicit(EvaluationPoint(1.0, 10.0), 0, cfg)
    assert abs(got - MEASURED_AT_1_10) <= 1e-8 * abs(MEASURED_AT_1_10)


def test_explicit_small_x_limit(cfg):
    p = EvaluationPoint(1e-6, 3.0)
    want = (cmath.exp(1j * phase(p)) * stirling_r_gamma(3.0)).real
    got = remainder_explicit(p, 2, cfg)
    assert abs(got - want) <= 1e-10 * abs(want) + 1e-15


def test_explicit_rejects_bad_order(cfg):
    with pytest.raises(ValueError):
        remainder_explicit(EvaluationPoint(1.0, 1.0), 21, cfg)


def test_explicit_rejects_a_fractional_order(cfg):
    with pytest.raises(ValueError, match="integer"):
        remainder_explicit(EvaluationPoint(1.0, 2.0), 1.5, cfg)


def test_remainder_bound_pin():
    got = remainder_bound(10.0, 1.0, 5.0, 2)
    assert math.isclose(got, BOUND_PIN, rel_tol=1e-12)


def test_remainder_bound_monotone_in_tau():
    vals = [remainder_bound(t, 1.0, 5.0, 2) for t in (1.0, 2.0, 10.0, 40.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_remainder_bound_small_x_cap_limit():
    a = math.exp(1.0 / 6.0) / 6.0
    got = remainder_bound(5.0, 1.0, 1e-6, 1)
    assert math.isclose(got, (a + (1.0 + a) * 1.0) / 5.0, rel_tol=1e-8)


def test_remainder_bound_domain():
    with pytest.raises(ValueError):
        remainder_bound(0.5, 1.0, 5.0, 1)  # tau below tau0
    with pytest.raises(ValueError):
        remainder_bound(1.0, 0.0, 5.0, 1)
    with pytest.raises(ValueError):
        remainder_bound(1.0, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        remainder_bound(1.0, 1.0, 5.0, -1)


def test_remainder_bound_rejects_a_fractional_order():
    for N in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            remainder_bound(2.0, 1.0, 5.0, N)
    assert remainder_bound(2.0, 1.0, 5.0, 2.0) == remainder_bound(2.0, 1.0, 5.0, 2)


def test_remainder_bound_refuses_where_not_finite():
    # I_1(900) leaves float range; so does e^{X^2/(4 tau0)} at X = 2000
    for tau, tau0, X, N in ((400.0, 400.0, 900.0, 1), (1.0, 1.0, 2000.0, 1), (1.0, 1.0, 2000.0, 0)):
        with pytest.raises(ValueError, match=f"X={X!r}, tau0={tau0!r}"):
            remainder_bound(tau, tau0, X, N)


def test_remainder_bound_refuses_where_x_to_the_n_underflows():
    # X^N and I_N(X) both underflow to 0, so the bound's N-term is 0/0
    for tau, X, N in ((2.0, 0.5, 2000), (5.0, 1e-20, 20), (1.0, 1e-200, 3)):
        with pytest.raises(ValueError, match=f"X={X!r}, N={N!r}"):
            remainder_bound(tau, 1.0, X, N)


def test_explicit_refuses_below_its_roundoff_floor(cfg):
    # at tiny tau the bracket 1 + S_N + T_N cancels past the 1e-8 budget
    for x, tau, N, floor in ((14.637066639721958, 2.317550220143447e-11, 1, 4.4e-6),
                             (20.07875218296006, 2.159e-7, 12, 9.0e-6)):
        with pytest.raises(AccuracyError) as exc:
            remainder_explicit(EvaluationPoint(x, tau), N, cfg)
        assert exc.value.achieved == pytest.approx(floor, rel=0.05)


def test_expansion_report_verdicts(cfg):
    assert expansion_report(EvaluationPoint(1.0, 5.0), 1, 1.0, 5.0, cfg).within_bound
    assert expansion_report(EvaluationPoint(5.0, 40.0), 3, 1.0, 5.0, cfg).within_bound


def test_expansion_report_exact_consistency(cfg):
    rep = expansion_report(EvaluationPoint(1.0, 5.0), 1, 1.0, 5.0, cfg)
    assert rep.leading + natural_scale(5.0) * rep.remainder_measured == rep.k_value
    # k_value, which the identity sets, stays the oracle's value to an ulp of the scale
    for x in np.geomspace(0.1, 5.0, 9):
        for tau in np.geomspace(1.0, 40.0, 9):
            p = EvaluationPoint(float(x), float(tau))
            oracle = k_itau_oracle(p, cfg)
            for N in (1, 2, 3):
                rep = expansion_report(p, N, 1.0, 5.0, cfg)
                assert abs(rep.k_value - oracle) <= 1e-15 * natural_scale(p.tau), (p, N)


def test_expansion_report_zero_order_uses_next_bound(cfg):
    rep = expansion_report(EvaluationPoint(1.0, 5.0), 0, 1.0, 5.0, cfg)
    assert rep.remainder_bound == remainder_bound(5.0, 1.0, 5.0, 1)


def test_expansion_report_refuses_unchecked_explicit_remainder(cfg, monkeypatch):
    p = EvaluationPoint(1.0, 5.0)
    true_explicit = asymptotic.remainder_explicit
    monkeypatch.setattr(asymptotic, "remainder_explicit",
                        lambda p, N, cfg: true_explicit(p, N, cfg) + 2e-8)
    with pytest.raises(AccuracyError) as exc:
        expansion_report(p, 1, 1.0, 5.0, cfg)
    assert 1e-8 < exc.value.achieved < 3e-8


def test_expansion_report_domain(cfg):
    with pytest.raises(ValueError):
        expansion_report(EvaluationPoint(6.0, 5.0), 1, 1.0, 5.0, cfg)
    with pytest.raises(ValueError):
        expansion_report(EvaluationPoint(1.0, 0.5), 1, 1.0, 5.0, cfg)


def test_expansion_report_rejects_a_fractional_order(cfg):
    with pytest.raises(ValueError, match="integer"):
        expansion_report(EvaluationPoint(1.0, 2.0), 1.5, 1.0, 5.0, cfg)


def test_report_serialization(cfg, capsys):
    rep = expansion_report(EvaluationPoint(1.0, 5.0), 1, 1.0, 5.0, cfg)
    assert cli.main(["asympt", "--x", "1", "--N", "1", "--tau0", "1", "--X", "5",
                     "--tau-min", "5", "--tau-max", "5", "--tau-count", "1"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == cli._EXPANSION_HEADER and len(header) == len(row)
    assert row[header.index("pass")] == "true"
    assert float(row[header.index("remainder_bound")]) == rep.remainder_bound
