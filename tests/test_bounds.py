import json
import math
import sys

import numpy as np
import pytest
from scipy import special

from klbessel import bounds, cli, quadrature
from klbessel.bounds import (
    RATIO_SLACK,
    all_default_descriptors,
    catalog_ids,
    certify_bound,
    default_grid,
    evaluate_bound,
    kernel_grid_values,
    make_descriptor,
    measure_c,
    olenko_c,
    verify_representation,
)
from klbessel.kernel import EvaluationPoint, OrderSpec, k_complex_order, k_itau_oracle
from klbessel.special import bessel_k0

SQRT_2_OVER_PI = 0.79788456080286536

OLENKO_PINS = {
    0.5: 1.5386946214955759,
    1.0: 1.3308943036433258,
    2.0: 1.2165560693338529,
    5.0: 1.1692972801268634,
}

# sup sqrt(x)|J_nu(x)| measured on a dense scan, pinned
MEASURED_SUP_PINS = {
    1.0: 0.82503089558735139,
    2.0: 0.86842068068480486,
}

POINT_1_1 = EvaluationPoint(1.0, 1.0)

# every entry at its defaults, then the family members at other parameters,
# so that a wrong reparametrization of a member's family formula fails
BOUND_PINS_AT_1_1 = {
    ("LEBEDEV_15", ()): 0.7543949756029195,
    ("FAMILY_17", ()): 0.8563334331109023,
    ("HALF_RANGE_18", ()): 0.7330794411255404,
    ("OLENKO_19", ()): 0.8699837709094506,
    ("MODIFIED_110", ()): 0.9244482033596279,
    ("DELTA_111", ()): 0.924448203359625,
    ("MU_EQ_NU_112", ()): 1.7081575479015836,
    ("LS_RE_113", ()): 0.6536835934513133,
    ("LS_IM_114", ()): 0.6536835934513133,
    ("K1_115", ()): 2.990066917338077,
    ("VIA_116_117", ()): 2.990066917338077,
    ("DELTA_118", ()): 2.990066917338077,
    ("COMPOSITE_126", ()): 1.8868045492691141,
    ("ITER_128", ()): 1.1074380807181012,
    ("ITER_129", ()): 1.913578232844756,
    ("ITER_130", ()): 1.913578232844756,
    ("EXP_DECAY_315", ()): 0.30320328899330645,
    ("DELTA_111", (("delta", 0.3),)): 1.3264993789734647,
    ("DELTA_118", (("delta", 0.7),)): 2.5393465568346207,
    ("K1_115", (("nu", 3.0),)): 2.709304580929232,
    ("MU_EQ_NU_112", (("nu", -0.3),)): 0.6873236051183812,
    ("VIA_116_117", (("nu", 2.5),)): 2.365318419702183,
}


@pytest.fixture(scope="module")
def small_grid():
    return default_grid(nx=7, ntau=7)


@pytest.fixture(scope="module")
def kernel_cache(small_grid):
    mus = sorted({d.order_mu for d in all_default_descriptors()})
    return {mu: kernel_grid_values(small_grid, mu) for mu in mus}


def test_olenko_c_pins():
    for nu, want in OLENKO_PINS.items():
        assert math.isclose(olenko_c(nu), want, rel_tol=1e-14)
    with pytest.raises(ValueError):
        olenko_c(0.0)


def test_measure_c_szego_range():
    # on |nu| <= 1/2 the sup is the x -> inf envelope sqrt(2/pi)
    assert abs(measure_c(0.0) - SQRT_2_OVER_PI) <= 1e-6
    assert abs(measure_c(0.5) - SQRT_2_OVER_PI) <= 1e-6


def test_measure_c_pins_and_domination():
    for nu, want in MEASURED_SUP_PINS.items():
        got = measure_c(nu, x_max=100.0)
        assert math.isclose(got, want, rel_tol=1e-10)
        assert olenko_c(nu) >= got
    with pytest.raises(ValueError):
        measure_c(-0.6)
    with pytest.raises(ValueError):
        measure_c(1.0, x_max=50.0)


@pytest.mark.parametrize("nu, x_max", [(math.nan, 3000.0), (math.inf, 3000.0),
                                        (1.0, math.nan), (1.0, math.inf)])
def test_measure_c_refuses_non_finite_input(nu, x_max):
    name = "nu" if x_max == 3000.0 else "x_max"
    with pytest.raises(ValueError, match=name):
        measure_c(nu, x_max)


def _polished_full_scan(nu, x_max, step_density=40):
    """Reference sup over (0, x_max]: every local maximum of the full scan
    that lies within 1e-3 of its best sample (the scan's sampling error is
    below 1e-4), each zoomed in by six rounds of 21 samples to 5e-8 in x,
    which leaves an error near 1e-15 in the value."""

    def u(t):
        return np.sqrt(t) * np.abs(special.jv(nu, t))

    n = int(x_max * step_density)
    xs = np.linspace(x_max / n, x_max, n)
    vals = u(xs)
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    best = vals.max()
    peaks = np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]) & (vals >= best - 1e-3))
    lo, hi = xs[np.maximum(peaks - 1, 0)], xs[np.minimum(peaks + 1, n - 1)]
    rows = np.arange(peaks.size)
    for _ in range(6):
        t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 21)
        v = u(t)
        best = max(best, v.max())
        i = np.argmax(v, axis=1)
        lo, hi = t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, 20)]
    return float(best)


@pytest.mark.parametrize("x_max", [100.0, 3000.0])
def test_measure_c_is_the_polished_sup_of_the_full_scan(x_max):
    # for |nu| < 1/2 the maxima rise so slowly that the scan's argmax can
    # sit on an earlier, lower one; the window must still find the sup
    for nu in (-0.5, -0.3, 0.0, 0.1, 0.25, 0.49, 0.5, 0.51, 1.0, 2.0, 5.0, 20.0, 100.0):
        got = measure_c(nu, x_max=x_max)
        assert abs(got - _polished_full_scan(nu, x_max)) <= 1e-12, nu


def test_measure_c_and_eq_1_6_work_stays_bounded(monkeypatch):
    # the Sonine window and the graded origin size the work; a full scan
    # would take 120,000 samples, and uniform halving of the EQ_1_6 head
    # seven or eight levels
    samples = []
    jv = special.jv

    def counting_jv(nu, x):
        samples.append(np.size(x))
        return jv(nu, x)

    monkeypatch.setattr(special, "jv", counting_jv)
    orders = {0.0, 0.5, 1.0, 2.0, 5.0}
    orders |= {value for d in all_default_descriptors() for key, value in d.params if key == "nu"}
    for nu in sorted(orders):
        samples.clear()
        measure_c(nu)
        assert sum(samples) <= 2000, (nu, sum(samples))

    levels = []
    panel_sums = quadrature.panel_sums

    def counting_panel_sums(f, edges):
        levels.append(len(edges) - 1)
        return panel_sums(f, edges)

    # `integrate` looks the name up in its module; the averaged tail does not
    monkeypatch.setattr(quadrature, "panel_sums", counting_panel_sums)
    verify_representation("EQ_1_6", POINT_1_1)
    assert len(levels) <= 2, levels


def test_catalog_is_complete():
    assert len(catalog_ids()) == 17
    for bound_id in catalog_ids():
        d = make_descriptor(bound_id)
        assert d.id == bound_id
        assert evaluate_bound(d, POINT_1_1) > 0.0


def test_bound_pins():
    assert {bound_id for bound_id, _ in BOUND_PINS_AT_1_1} == set(catalog_ids())
    for (bound_id, params), want in BOUND_PINS_AT_1_1.items():
        got = evaluate_bound(make_descriptor(bound_id, **dict(params)), POINT_1_1)
        assert math.isclose(got, want, rel_tol=1e-13), (bound_id, params)
    got = evaluate_bound(make_descriptor("ITER_130", n=3), POINT_1_1)
    assert math.isclose(got, 1.9135782328447553, rel_tol=1e-12)


def test_descriptor_validation():
    bad = [
        ("FAMILY_17", dict(nu=-0.6)),
        ("FAMILY_17", dict(nu=0.3, mu=0.5)),
        ("HALF_RANGE_18", dict(nu=0.6)),
        ("HALF_RANGE_18", dict(nu=-0.5)),
        ("OLENKO_19", dict(nu=0.0)),
        ("DELTA_111", dict(delta=1.0)),
        ("MU_EQ_NU_112", dict(nu=0.5)),
        ("K1_115", dict(nu=1.5)),
        ("K1_115", dict(nu=1.5005)),  # inside the fixed pole margin
        ("VIA_116_117", dict(nu=1.0)),
        ("DELTA_118", dict(delta=0.0)),
        ("COMPOSITE_126", dict(M=0)),
        ("ITER_130", dict(n=0)),
        ("ITER_130", dict(n=1.5)),
        ("EXP_DECAY_315", dict(delta=1.6)),
        ("LEBEDEV_15", dict(nu=1.0)),
        # every domain check passes a value that is not finite
        ("OLENKO_19", dict(nu=math.inf)),
        ("DELTA_118", dict(delta=math.inf)),
        ("K1_115", dict(nu=math.inf)),
    ]
    for bound_id, params in bad:
        with pytest.raises(ValueError):
            make_descriptor(bound_id, **params)
    with pytest.raises(ValueError):
        make_descriptor("NO_SUCH_BOUND")
    # the margin boundary itself is admissible
    make_descriptor("K1_115", nu=1.501)
    make_descriptor("VIA_116_117", nu=1.501)


def test_iterated_family_consistency():
    d2 = make_descriptor("ITER_130", n=2)
    d3 = make_descriptor("ITER_130", n=3)
    for x in (0.01, 1.0, 100.0):
        for tau in (0.1, 1.0, 40.0):
            p = EvaluationPoint(x, tau)
            assert math.isclose(
                evaluate_bound(make_descriptor("ITER_128"), p), evaluate_bound(d2, p), rel_tol=1e-14
            )
            assert math.isclose(
                evaluate_bound(make_descriptor("ITER_129"), p), evaluate_bound(d3, p), rel_tol=1e-14
            )


def test_iterated_bounds_stay_finite_at_deep_order():
    for n in range(1, 21):
        d = make_descriptor("ITER_130", n=n)
        for p in (EvaluationPoint(0.01, 40.0), EvaluationPoint(100.0, 0.1)):
            v = evaluate_bound(d, p)
            assert math.isfinite(v) and v > 0.0


def test_half_range_ratio_matches_formula():
    # the nu=1/2 to nu=0 bound ratio reduces to an explicit gamma expression
    x, tau = 4.0, 2.0
    p = EvaluationPoint(x, tau)
    got = evaluate_bound(make_descriptor("HALF_RANGE_18", nu=0.5), p) / evaluate_bound(
        make_descriptor("HALF_RANGE_18", nu=0.0), p
    )
    want = math.exp(
        math.lgamma(1.0) - math.lgamma(1.5)
        + special.loggamma(complex(1.5, tau)).real - special.loggamma(complex(1.0, tau)).real
        - math.lgamma(0.5)
        - 0.5 * math.log(x)
    )
    assert math.isclose(got, want, rel_tol=1e-13)


def test_exp_decay_zero_angle_is_k0(cfg):
    d = make_descriptor("EXP_DECAY_315", delta=0.0)
    for x in (0.5, 1.0, 10.0):
        assert math.isclose(
            evaluate_bound(d, EvaluationPoint(x, 7.0)), bessel_k0(x, cfg), rel_tol=1e-12
        )
    # tight as the index vanishes
    from klbessel.kernel import k_itau_oracle

    p = EvaluationPoint(1.0, 0.01)
    ratio = k_itau_oracle(p, cfg) / evaluate_bound(d, p)
    assert 0.999 <= ratio <= 1.0 + RATIO_SLACK


def test_whole_catalog_certifies_on_small_grid(small_grid, kernel_cache):
    for d in all_default_descriptors():
        cert = certify_bound(d, small_grid, kernel_values=kernel_cache[d.order_mu])
        assert cert.passed, (d.id, cert.max_ratio)
        assert cert.max_ratio <= 1.0 + RATIO_SLACK
        assert len(cert.ratios) == len(small_grid)
        assert not cert.indeterminate


def test_certificate_flags_indeterminate_points(small_grid, kernel_cache):
    d = make_descriptor("LEBEDEV_15")
    values = list(kernel_cache[0.0])
    values[5] = None  # emulate an accuracy failure at one grid point
    cert = certify_bound(d, small_grid, kernel_values=values)
    assert not cert.passed
    assert cert.indeterminate == (small_grid[5],)
    assert len(cert.ratios) == len(small_grid) - 1
    # bounds that leave float range: FAMILY_17 overflows at nu = 1000 and
    # LEBEDEV_15 underflows to 0 from tau of about 470
    wide = make_descriptor("FAMILY_17", nu=1000.0, mu=0.0)
    cert = certify_bound(wide, small_grid, kernel_values=kernel_cache[0.0])
    assert not cert.passed and cert.indeterminate == small_grid and cert.ratios == ()
    # no point measured: no ratio and no worst point, not a sentinel
    assert cert.max_ratio is None and cert.worst_point is None
    far = default_grid(2, 2, 0.01, 100.0, 500.0, 600.0)
    cert = certify_bound(d, far)
    assert not cert.passed and cert.indeterminate == far


def _pointwise_certificate(d, grid, values):
    """(ratios, worst point, indeterminate points) with `evaluate_bound`
    taken at one point at a time, as the certificate reads them."""
    ratios, kept, indeterminate = [], [], []
    for p, kv in zip(grid, values):
        try:
            bound = evaluate_bound(d, p)
        except OverflowError:
            bound = math.inf
        if kv is None or not 0.0 < bound < math.inf:
            indeterminate.append(p)
            continue
        part = {"abs": abs(kv), "real_abs": abs(kv.real), "imag_abs": abs(kv.imag)}
        ratios.append(part[d.kernel_part] / bound)
        kept.append(p)
    worst = kept[ratios.index(max(ratios))] if ratios else None
    return ratios, worst, tuple(indeterminate)


def test_grid_certificate_matches_the_bound_point_by_point():
    # the array formulas over a whole grid against one-point calls, on a
    # window wide enough that some bounds underflow (EXP_DECAY_315 at
    # large x) and sinh(pi tau) is nearly pi tau
    grid = default_grid(12, 12, 1e-6, 1e3, 1e-4, 200.0)
    mus = sorted({d.order_mu for d in all_default_descriptors()})
    values = {mu: kernel_grid_values(grid, mu) for mu in mus}
    seen_indeterminate = False
    for d in all_default_descriptors():
        kv = values[d.order_mu]
        cert = certify_bound(d, grid, kernel_values=kv)
        ratios, worst, indeterminate = _pointwise_certificate(d, grid, kv)
        assert cert.ratios == pytest.approx(ratios, rel=1e-15, abs=0.0), d.id
        assert cert.worst_point == worst and cert.indeterminate == indeterminate, d.id
        # Python floats: the CSV prints repr(max_ratio)
        assert type(cert.max_ratio) is float and all(type(r) is float for r in cert.ratios)
        assert type(cert.passed) is bool
        seen_indeterminate |= bool(indeterminate)
    assert seen_indeterminate


# pyproject.toml turns warnings into errors: an overflow the certificate
# masks as indeterminate must stay silent
@pytest.mark.parametrize(("bound_id", "params"), [
    ("COMPOSITE_126", dict(M=200, N=200)),  # Gamma(2M - 1/2) overflows
    ("ITER_130", dict(n=2000)),  # 2^(n - 1) overflows
])
def test_parameter_overflow_makes_every_point_indeterminate(
        bound_id, params, small_grid, kernel_cache):
    d = make_descriptor(bound_id, **params)
    cert = certify_bound(d, small_grid, kernel_values=kernel_cache[0.0])
    assert not cert.passed and cert.indeterminate == small_grid and cert.ratios == ()
    assert cert.max_ratio is None and cert.worst_point is None
    with pytest.raises(OverflowError):
        evaluate_bound(d, POINT_1_1)


def test_point_dependent_overflow_is_indeterminate_where_it_happens(small_grid, kernel_cache):
    # (1 + tau)^1000 leaves float range from tau of about 1.03 on
    d = make_descriptor("COMPOSITE_126", delta=1000.0)
    cert = certify_bound(d, small_grid, kernel_values=kernel_cache[0.0])
    over = tuple(p for p in small_grid
                 if 1000.0 * math.log1p(p.tau) > math.log(sys.float_info.max))
    assert 0 < len(over) < len(small_grid)
    assert not cert.passed and cert.indeterminate == over
    assert len(cert.ratios) == len(small_grid) - len(over)
    with pytest.raises(OverflowError):
        evaluate_bound(d, over[0])


def test_certify_rejects_kernel_values_not_matching_the_grid():
    d = make_descriptor("LEBEDEV_15")
    grid = default_grid(5, 5)
    kv = kernel_grid_values(grid, 0.0)
    with pytest.raises(ValueError, match="3 kernel values for a grid of 25"):
        certify_bound(d, grid, kernel_values=kv[:3])
    with pytest.raises(ValueError, match="26 kernel values"):
        certify_bound(d, grid, kernel_values=kv + kv[:1])


def test_certify_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        certify_bound(make_descriptor("LEBEDEV_15"), ())


@pytest.mark.parametrize("mu", sorted({d.order_mu for d in all_default_descriptors()}))
def test_batched_grid_matches_scalar_bit_for_bit(mu):
    # 169 points span several row blocks of the batched evaluator, and the
    # reversed grid blocks them differently; no value may depend on that
    grid = default_grid(nx=13, ntau=13)
    batched = kernel_grid_values(grid, mu)
    if mu == 0.0:
        scalar = tuple(complex(k_itau_oracle(p)) for p in grid)
    else:
        scalar = tuple(k_complex_order(OrderSpec(mu, p.tau), p.x) for p in grid)
    assert batched == scalar
    assert kernel_grid_values(grid[::-1], mu) == batched[::-1]


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 625
    xs = {p.x for p in grid}
    taus = {p.tau for p in grid}
    assert min(xs) == 0.01 and max(xs) == 100.0
    assert min(taus) == 0.1 and max(taus) == 40.0


def test_representation_residuals():
    assert verify_representation("EQ_1_27", EvaluationPoint(1.0, 1.0)) <= 1e-8
    assert verify_representation("EQ_1_4", EvaluationPoint(0.5, 1.0)) <= 1e-6
    assert verify_representation("EQ_1_21", EvaluationPoint(0.5, 2.0)) <= 1e-4
    assert verify_representation("EQ_1_6", EvaluationPoint(1.0, 1.0)) <= 1e-8


@pytest.mark.parametrize("rep_id", ["EQ_1_21", "EQ_1_4", "EQ_1_6", "EQ_1_27"])
def test_representation_sweep(rep_id):
    # a 4x4 sweep, so that the one point of criterion 4 is not the only
    # guard of the panel geometry: worst 8.3e-13 (EQ_1_21), 9.4e-14
    # (EQ_1_6), 2.6e-14 (EQ_1_27) and 1.4e-14 (EQ_1_4)
    worst = max(verify_representation(rep_id, EvaluationPoint(x, tau))
                for x in (0.3, 0.5, 1.0, 2.0) for tau in (0.5, 1.0, 2.0, 3.0))
    assert worst <= 2e-12


def test_eq_1_6_off_the_default_point():
    # the integrand's y^{2 nu + 1} endpoint at y = 0 must be resolved
    # everywhere, (0.1, 0.5) included, not only at the default point
    for x, tau in ((1.0, 1.0), (0.5, 1.0), (2.0, 3.0), (0.1, 0.5), (5.0, 2.0), (10.0, 10.0),
                   (0.2, 5.0)):
        assert verify_representation("EQ_1_6", EvaluationPoint(x, tau)) <= 1e-12, (x, tau)


def test_representation_validation():
    with pytest.raises(ValueError):
        verify_representation("EQ_9_99", POINT_1_1)
    with pytest.raises(ValueError):
        verify_representation("EQ_1_6", POINT_1_1, nu=-1.5)


@pytest.mark.parametrize("rep_id, x, tau, message", [
    ("EQ_1_4", 5.5, 1.0, r"x must be in \[0.01, 5\] for EQ_1_4, got 5.5"),
    ("EQ_1_4", 1.0, 26.0, r"tau must be in \[0, 25\] for EQ_1_4, got 26.0"),
    ("EQ_1_6", 0.005, 1.0, r"x must be in \[0.01, 10\] for EQ_1_6, got 0.005"),
    ("EQ_1_21", 1.0, 0.05, r"tau must be in \[0.1, 50\] for EQ_1_21, got 0.05"),
    ("EQ_1_27", 1.0, 30.0, r"tau must be in \[0, 25\] for EQ_1_27, got 30.0"),
    ("INDEX_RAISING", 101.0, 1.0, r"x must be in \[0.01, 100\] for INDEX_RAISING"),
])
def test_representation_refuses_a_point_outside_its_domain(rep_id, x, tau, message, monkeypatch):
    # refused before either side is evaluated
    monkeypatch.setattr(bounds, "k_itau_oracle", None)
    with pytest.raises(ValueError, match=message):
        verify_representation(rep_id, EvaluationPoint(x, tau))


@pytest.mark.parametrize("rep_id", ["EQ_1_4", "EQ_1_21", "EQ_1_27"])
def test_representation_refuses_a_parameter_it_does_not_take(rep_id):
    # only EQ_1_6 takes nu; the others ignored it and returned a residual
    with pytest.raises(ValueError, match=rf"{rep_id} does not take parameters \['nu'\]"):
        verify_representation(rep_id, POINT_1_1, nu=0.3)
    with pytest.raises(ValueError, match=r"does not take parameters \['mu'\]"):
        verify_representation("EQ_1_6", POINT_1_1, mu=0.3)


def test_catalog_json_round_trip():
    # the catalog record as the CLI's one JSON writer emits it
    text = cli._json_text({"bounds": [cli._descriptor_record(d) for d in all_default_descriptors()]})
    doc = json.loads(text)
    assert len(doc["bounds"]) == 17
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    by_id = {rec["id"]: rec for rec in doc["bounds"]}
    assert by_id["LEBEDEV_15"]["label"] == "1.5"
    assert by_id["FAMILY_17"]["params"] == {"nu": 0.3, "mu": 0.1}


def test_certificate_json_round_trip(small_grid, kernel_cache):
    cert = certify_bound(
        make_descriptor("MODIFIED_110"), small_grid, kernel_values=kernel_cache[0.0]
    )
    text = cli._json_text(cli._certificate_record(cert))
    doc = json.loads(text)
    assert doc["pass"] is True
    assert len(doc["ratios"]) == len(small_grid)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
