import math

import numpy as np
import pytest

from klbessel import kernel, quadrature
from klbessel.kernel import EvaluationPoint, k_itau_oracle
from klbessel.quadrature import (
    MAX_CROSSINGS,
    MAX_NODES,
    AccuracyError,
    QuadratureConfig,
    averaged_tail,
    integrate,
    panel_sums,
    phase_edges,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)
    # the refinement rounds and the tail cut are fixed, not configurable
    for field in ("max_refinements", "truncation_threshold"):
        with pytest.raises(TypeError):
            QuadratureConfig(**{field: 1})


def test_panel_sums_exact_on_polynomial():
    # the Kronrod rule is exact through degree 49, the embedded Gauss rule 31
    edges = np.array([0.0, 0.3, 1.0])
    for got in panel_sums(lambda x: 6.0 * x**5, edges):
        assert got.shape == (2,)
        assert math.isclose(got.sum(), 1.0, rel_tol=1e-14)
        assert math.isclose(got[0], 0.3**6, rel_tol=1e-14)


def test_panel_sums_complex():
    edges = np.linspace(0.0, 1.0, 5)
    want = (np.exp(1j) - 1.0) / 1j
    for got in panel_sums(lambda x: np.exp(1j * x), edges):
        assert abs(got.sum() - want) < 1e-14


def _worst_moment_error(nodes, weights):
    """Largest error in ulps of 2/(k+1) of the rule on x^k, k <= 49, each
    sum taken exactly of the rounded products."""
    worst = 0.0
    for k in range(50):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(weights * nodes**k)
        worst = max(worst, abs(got - exact) / np.spacing(2.0 / (k + 1)))
    return worst


def test_kronrod_rule_extends_the_gauss_rule():
    nodes, weights = quadrature._NODES, quadrature._WEIGHTS
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(16)
    # the embedded rule is leggauss(16) bit for bit, at the odd positions
    assert nodes.size == weights.size == 33
    assert np.array_equal(nodes[1::2], gauss_nodes)
    assert np.array_equal(quadrature._GAUSS_WEIGHTS, gauss_weights)
    assert np.all(np.diff(nodes) > 0.0) and np.array_equal(nodes, -nodes[::-1])
    assert np.all(weights > 0.0) and np.array_equal(weights, weights[::-1])
    assert abs(math.fsum(weights) - 2.0) <= 4 * np.spacing(2.0)
    # degree 49 is integrated exactly, to a few ulps: the rounding of each
    # node moves x^k by up to k/2 ulps, so the worst is at the top degrees
    assert _worst_moment_error(nodes, weights) <= 8.0
    moved = weights.copy()
    moved[5] += 1e-12
    assert _worst_moment_error(nodes, moved) > 1e3


def test_phase_resolved_smooth_integrand_is_accepted_at_its_first_level(cfg, panel_nodes):
    integrate(np.exp, np.linspace(-1.0, 1.0, 4), cfg)
    edges = phase_edges(lambda u: 7.0 * u, 0.0, 20.0 * math.pi)
    integrate(lambda u: np.cos(7.0 * u) * np.exp(-u / 10.0), edges, cfg)
    assert panel_nodes == [33 * 3, 33 * (edges.size - 1)]


def test_under_resolved_integrand_refines_to_its_closed_form(cfg, panel_nodes):
    # one panel across about 20 periods of e^{i t}: the Gauss and Kronrod
    # sums must disagree until the panels resolve the oscillation
    hi = 125.0
    got = integrate(lambda t: np.exp(1j * t), np.array([0.0, hi]), cfg)
    want = (np.exp(1j * hi) - 1.0) / 1j
    assert len(panel_nodes) > 3
    assert panel_nodes == [33 << k for k in range(len(panel_nodes))]
    assert abs(got - want) <= cfg.abs_tol + cfg.rel_tol * abs(want)


def test_integrate_smooth(cfg):
    val = integrate(np.exp, np.linspace(-1.0, 1.0, 4), cfg)
    assert math.isclose(val, math.e - 1.0 / math.e, rel_tol=1e-13)


def test_integrate_raises_on_stubborn_singularity():
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
    with pytest.raises(AccuracyError) as exc:
        integrate(lambda x: 1.0 / np.sqrt(x), np.array([0.0, 1.0]), cfg)
    assert exc.value.achieved is not None and exc.value.achieved > 1e-15


@pytest.mark.parametrize("f", [np.exp, lambda x: np.exp(-x)], ids=["exp", "mirrored"])
def test_integrate_refuses_tolerance_below_roundoff(f):
    # the mirrored integrand has the same integral with its panel sums in
    # reverse order; two levels that agree bit for bit must not certify 1e-30
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-30)
    with pytest.raises(AccuracyError) as exc:
        integrate(f, np.linspace(-1.0, 1.0, 4), cfg)
    assert exc.value.achieved >= np.finfo(float).eps * math.e


@pytest.mark.parametrize("x, tau", [(0.01, 40.0), (1.0, 1.0)])
def test_tolerance_below_roundoff_refused_within_two_halvings(x, tau, monkeypatch):
    # integrand evaluations of the oracle's trapezoid rule, one entry per level
    nodes = []
    row_sums = kernel._row_sums

    def counting(f, rows, h, k, dtype):
        nodes.append(rows.size * k.size)
        return row_sums(f, rows, h, k, dtype)

    monkeypatch.setattr(kernel, "_row_sums", counting)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-30)
    with pytest.raises(AccuracyError) as exc:
        k_itau_oracle(EvaluationPoint(x, tau), cfg)
    # one level, at the Poisson count, and no refinement
    assert len(nodes) == 1
    assert exc.value.achieved > 1e-30 * abs(k_itau_oracle(EvaluationPoint(x, tau)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_level_that_is_not_finite_is_refused_at_once(bad, panel_nodes):
    # a level that is not finite can never be accepted, so no halving is taken
    with pytest.raises(AccuracyError, match="not finite") as exc:
        integrate(lambda x: np.where(x > 0.5, bad, 1.0), np.linspace(0.0, 1.0, 5))
    assert len(panel_nodes) == 1
    assert exc.value.achieved == math.inf


def test_level_above_the_node_cap_is_refused_before_it_is_evaluated(panel_nodes):
    # a jump keeps every level off the tolerance, so each round halves
    def f(x):
        return np.where(x > 1.0 / 3.0, 1.0, 0.0)

    panels = MAX_NODES // 33  # the most panels of 33 nodes a level may take
    with pytest.raises(AccuracyError, match="exceeds the cap") as exc:
        integrate(f, np.linspace(0.0, 1.0, panels + 2))
    assert panel_nodes == [] and exc.value.achieved == math.inf
    with pytest.raises(AccuracyError, match="exceeds the cap") as exc:
        integrate(f, np.linspace(0.0, 1.0, panels // 2 + 1))
    assert panel_nodes == [33 * (panels // 2), 66 * (panels // 2)]
    assert 0.0 < exc.value.achieved < math.inf


@pytest.mark.parametrize("phase", [lambda y: np.log1p(y * y), lambda y: np.full(y.shape, np.nan)])
def test_phase_span_that_is_not_finite_is_refused(phase):
    # y * y overflows: no warning, and no "cannot convert float infinity"
    with pytest.raises(ValueError, match="is not finite"):
        phase_edges(phase, 0.0, 1e200)


def test_phase_edges_refuse_more_crossings_than_the_cap():
    edges = phase_edges(lambda y: MAX_CROSSINGS * 2.0 * math.pi * y, 0.0, 1.0)
    assert edges.size >= MAX_CROSSINGS
    with pytest.raises(AccuracyError, match="cap of 16384 crossings"):
        phase_edges(lambda y: (MAX_CROSSINGS + 1) * 2.0 * math.pi * y, 0.0, 1.0)


@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0, 40.0, 1e3])
def test_one_period_panel_needs_no_more_than_the_gauss_rule(omega):
    # a panel spans 2 pi of phase: the embedded 16-point Gauss rule already
    # integrates e^{i omega t} there to roundoff, so Kronrod and Gauss agree
    # to 1e-15 of the integral of |f|, whatever the phase at the left edge
    width = 2.0 * math.pi / omega
    for start in (0.0, 0.37, 2.0):
        kronrod, gauss = panel_sums(lambda t: np.exp(1j * (omega * t + start)), [0.0, width])
        assert abs(kronrod[0] - gauss[0]) <= 1e-15 * width


@pytest.mark.parametrize("phase, hi", [
    (lambda t: 7.0 * t, 300.0),
    (lambda t: t * t, 30.0),
    (lambda t: 50.0 * t * t, 30.0),
])
def test_phase_edges_span_one_period_per_panel(phase, hi):
    # linear and chirped phases: no panel wider than 2 pi of phase, up to
    # the interpolation of the inverse phase on its grid (about 2e-5 here),
    # and no more edges than the crossings and the 8-panel uniform split
    edges = phase_edges(phase, 0.0, hi)
    assert np.max(np.diff(phase(edges))) <= 2.0 * math.pi * (1.0 + 1e-4)
    assert edges.size <= int(phase(hi) / (2.0 * math.pi)) + 10


def _linspace_phase_edges(phase, lo, hi):
    """`phase_edges` as it was built on np.linspace and np.unique, the
    reference its unit-grid form must equal bit for bit."""
    grid = np.linspace(lo, hi, 4097)
    pv = np.asarray(phase(grid), dtype=float)
    n_cross = int((pv[-1] - pv[0]) / (2.0 * np.pi))
    if n_cross > 512:
        grid = np.linspace(lo, hi, 8 * n_cross + 1)
        pv = np.asarray(phase(grid), dtype=float)
    crossings = np.interp(pv[0] + 2.0 * np.pi * np.arange(1, n_cross + 1), pv, grid)
    edges = np.unique(np.concatenate((crossings, np.linspace(lo, hi, 9))))
    edges = edges[(edges >= lo) & (edges <= hi)]
    if edges[0] != lo:
        edges = np.concatenate(([lo], edges))
    if edges[-1] != hi:
        edges = np.concatenate((edges, [hi]))
    return edges


def test_phase_edges_equal_their_linspace_form_bit_for_bit():
    # seeded spans from 1e-3 to 400 wide, starting at 0, at 1e-12 (as
    # `_verify_eq_1_4` does) or anywhere in [0, 50], with hi rounded to six
    # digits so that lo + (hi - lo) is not always hi; linear, chirped and
    # arcsinh phases, some past 512 crossings onto the refined grid
    rng = np.random.default_rng(32)
    refined = 0
    for i in range(600):
        lo = (0.0, 1e-12, rng.uniform(0.0, 50.0))[i % 3]
        hi = float(f"{lo + math.exp(rng.uniform(math.log(1e-3), math.log(400.0))):.6g}")
        k = math.exp(rng.uniform(math.log(0.01), math.log(40.0)))
        for phase in (lambda t: k * t, lambda t: k * t * t / hi, lambda t: k * np.arcsinh(t) + t):
            want = _linspace_phase_edges(phase, lo, hi)
            refined += want.size > 513 + 9
            assert phase_edges(phase, lo, hi).tobytes() == want.tobytes(), (lo, hi, k)
    assert refined > 0


def test_phase_edges_cover_and_order():
    edges = phase_edges(lambda u: 3.0 * u, 0.0, 10.0)
    assert edges[0] == 0.0 and edges[-1] == 10.0
    assert np.all(np.diff(edges) > 0)
    # the 4 crossings of 2 pi phase and the 9 edges of the uniform split
    assert edges.size >= int(30.0 / (2.0 * math.pi)) + 9


def test_phase_edges_track_chirp():
    # frequency grows with u, so edges must get denser toward the right end
    edges = phase_edges(lambda u: u * u, 0.1, 20.0)
    left = np.diff(edges[edges < 5.0])
    right = np.diff(edges[edges > 15.0])
    assert right.mean() < left.mean()


def test_integrate_oscillatory_with_phase_edges(cfg):
    # int_0^{20pi} cos(7u) e^{-u/10} du has a closed form
    def f(u):
        return np.cos(7.0 * u) * np.exp(-u / 10.0)

    hi = 20.0 * math.pi
    edges = phase_edges(lambda u: 7.0 * u, 0.0, hi)
    got = integrate(f, edges, cfg)
    a = -0.1
    want = ((a * math.cos(7 * hi) + 7 * math.sin(7 * hi)) * math.exp(a * hi) - a) / (a * a + 49.0)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14)


def test_averaged_tail_alternating_geometric():
    k = np.arange(64)
    panels = (-0.97) ** k
    got, spread = averaged_tail(panels)
    want = 1.0 / 1.97
    assert abs(got - want) < 1e-10
    assert abs(spread) < 1e-8


def test_averaged_tail_short_converged_input():
    # a tail that has already converged must come back unchanged
    panels = np.array([2.0, 0.0, 0.0])
    got, spread = averaged_tail(panels)
    assert got == 2.0
    assert spread == 0.0
