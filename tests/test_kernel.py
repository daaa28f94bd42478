import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from scipy import special

from klbessel import kernel
from klbessel.asymptotic import remainder_explicit, remainder_measured
from klbessel.kernel import (
    EvaluationPoint,
    OrderSpec,
    contour_values,
    k_complex_order,
    k_itau_defseries,
    k_itau_keyformula,
    k_itau_oracle,
    k_itau_smallx,
    natural_scale,
)
from klbessel.quadrature import AccuracyError
from klbessel.special import bessel_k0, complex_log_gamma

# Frozen reference values, computed once with 50-digit arithmetic from the
# definitional series in the index and pinned here.
ORACLE_PINS = {
    (1.0, 1.0): 0.28942803702599213,
    (0.5, 0.5): 0.79173430541261812,
    (2.0, 3.0): 0.014238040755583181,
    (1.0, 5.0): 0.00038046182799756373,
    (10.0, 10.0): 9.8241574381992468e-08,
    (1.0, 10.0): 1.1294550821681802e-07,
    (1.0, 2.0): 0.080616997622365979,
    (1.0, 40.0): -1.7004412809804201e-28,
    (5.0, 40.0): 8.2429354939537821e-29,
    (0.01, 40.0): -3.4839334554752914e-29,
    (100.0, 40.0): 1.4577751747902302e-48,
    (0.1, 1.0): 0.2253818853015678,
    (0.25, 5.0): 0.00043408080033387927,
    (1.0, 20.0): -1.1699083627287349e-14,
    (2.0, 4.0): 0.0013951624312788747,
    (10.0, 2.0): 1.4682032629621981e-05,
    (10.0, 0.5): 1.7569107704141348e-05,
    (5.0, 10.0): -1.0825398134796981e-07,
    (5.0, 5.0): 0.0003185910251867459,
    (0.01, 0.1): 4.5141924451990133,
    (100.0, 0.1): 4.6563965552537267e-45,
    (2.0, 1.0): 0.092385459890391182,
    (0.5, 2.0): 0.016502018949481443,
}

COMPLEX_PINS = {
    (0.5, 1.0, 1.0): 0.29882498908739135 + 0.11894469430135909j,
    (0.1, 1.0, 1.0): 0.28980724348949198 + 0.022325634675164246j,
    (0.25, 2.0, 0.5): -0.00024285214005731559 + 0.045841561052075675j,
    (1.0, 3.0, 2.0): 0.0018610519511282289 + 0.021357061133374772j,
    (1.0, 1.0, 1.0): 0.32545977186584141 + 0.28942803702599213j,
}

# K_{mu + i tau}(x) keyed by (mu, x, tau): mpmath 1.3 besselk at 30 digits
# (agreeing with 50 digits to 1e-25), rounded to double.  Generated once by
#   for each key: mp.mp.dps = 30; v = mp.besselk(mp.mpf(mu) + 1j * mp.mpf(tau), mp.mpf(x))
# and printed as repr(float(v.real)), or complex(re, im) when mu != 0.
# The grid corners (0.01, 0.1), (0.01, 40), (100, 0.1), (100, 40) appear at every mu.
CONTOUR_REFERENCE = {
    (0.0, 0.01, 0.1): 4.514192445199013,
    (0.0, 0.01, 40.0): -3.4839334554752916e-29,
    (0.0, 100.0, 0.1): 4.656396555253727e-45,
    (0.0, 100.0, 40.0): 1.4577751747902302e-48,
    (0.0, 1.0, 1.0): 0.2894280370259921,
    (0.0, 5.0, 10.0): -1.0825398134796981e-07,
    (0.1, 0.01, 0.1): complex(4.708509169574868, 0.42022397755209806),
    (0.1, 0.01, 40.0): complex(-1.6750545571590764e-29, -2.1169137583793816e-28),
    (0.1, 100.0, 0.1): complex(4.656628206197887e-45, 4.633593324115345e-49),
    (0.1, 100.0, 40.0): complex(1.456633921920053e-48, 5.963427685498951e-50),
    (0.1, 0.3, 2.0): complex(-0.05808660198098138, 0.0038246003375025017),
    (0.1, 30.0, 20.0): complex(2.3313550695507622e-17, 1.6611354541642137e-18),
    (0.25, 0.01, 0.1): complex(5.82646022266958, 1.2254657362899193),
    (0.25, 0.01, 40.0): complex(2.087079228030333e-28, -9.334537616606212e-28),
    (0.25, 100.0, 0.1): complex(4.6578445621221857e-45, 1.158699946667072e-48),
    (0.25, 100.0, 40.0): complex(1.4506458479671818e-48, 1.4890953507340356e-49),
    (0.25, 2.0, 0.5): complex(0.10940961541478283, 0.005695376581448793),
    (0.25, 10.0, 30.0): complex(6.732810498916322e-22, -4.896943548934534e-22),
    (0.5, 0.01, 0.1): complex(11.444831615669585, 4.09712007084513),
    (0.5, 0.01, 40.0): complex(5.29056366962239e-27, -7.454463373299981e-27),
    (0.5, 100.0, 0.1): complex(4.662191276184641e-45, 2.3195555690387707e-48),
    (0.5, 100.0, 40.0): complex(1.4293078951253966e-48, 2.9656212910967858e-49),
    (0.5, 0.05, 5.0): complex(-0.0027050061774169984, 0.0014384353984062382),
    (0.5, 50.0, 1.0): complex(3.3847701966107686e-23, 3.351902329449169e-25),
    (1.0, 0.01, 0.1): complex(88.29131292930022, 45.141924451990135),
    (1.0, 0.01, 40.0): complex(8.057352405928455e-25, -1.3935733821901166e-25),
    (1.0, 100.0, 0.1): complex(4.679618600925284e-45, 4.656396555253727e-48),
    (1.0, 100.0, 40.0): complex(1.3447049961084527e-48, 5.831100699160921e-49),
    (1.0, 3.0, 3.0): complex(0.006154114095819953, 0.008730481324018713),
    (1.0, 0.5, 15.0): complex(-1.1323746192066306e-09, -8.544176014349835e-11),
}

CROSS_GRID_X = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
CROSS_GRID_TAU = (0.5, 1.0, 2.0, 5.0, 10.0)


def test_point_validation():
    with pytest.raises(ValueError):
        EvaluationPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        EvaluationPoint(1.0, -1.0)
    with pytest.raises(ValueError):
        EvaluationPoint(math.inf, 1.0)
    with pytest.raises(ValueError):
        OrderSpec(0.5, 0.0)


def test_natural_scale():
    tau = 3.0
    want = math.sqrt(2.0 * math.pi / tau) * math.exp(-0.5 * math.pi * tau)
    assert math.isclose(natural_scale(tau), want, rel_tol=1e-15)


@pytest.mark.parametrize("key", sorted(ORACLE_PINS))
def test_oracle_pins(cfg, key):
    x, tau = key
    want = ORACLE_PINS[key]
    got = k_itau_oracle(EvaluationPoint(x, tau), cfg)
    assert abs(got - want) <= 1e-11 * abs(want)


def test_oracle_continuity_at_zero_index(cfg):
    got = k_itau_oracle(EvaluationPoint(1.0, 1e-8), cfg)
    assert math.isclose(got, bessel_k0(1.0, cfg), rel_tol=1e-10)


def test_oracle_oscillates_in_x(cfg):
    # for large index the kernel changes sign on (0, 2 tau)
    tau = 5.0
    xs = np.linspace(0.2, 2.0 * tau - 0.2, 60)
    signs = np.sign([k_itau_oracle(EvaluationPoint(float(x), tau), cfg) for x in xs])
    assert np.sum(signs[1:] != signs[:-1]) >= 1


@pytest.mark.parametrize("key", sorted(COMPLEX_PINS))
def test_complex_order_pins(cfg, key):
    mu, tau, x = key
    want = COMPLEX_PINS[key]
    got = k_complex_order(OrderSpec(mu, tau), x, cfg)
    assert abs(got - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("mu", sorted({key[0] for key in CONTOUR_REFERENCE}))
def test_contour_values_match_frozen_reference(cfg, mu):
    keys = [key for key in CONTOUR_REFERENCE if key[0] == mu]
    xs = [key[1] for key in keys]
    taus = [key[2] for key in keys]
    values, _ = contour_values(xs, taus, mu, cfg)
    assert values.dtype == (float if mu == 0.0 else complex)
    for key, got in zip(keys, values):
        want = CONTOUR_REFERENCE[key]
        assert abs(got - want) <= 1e-12 * max(natural_scale(key[2]), abs(want)), key


@pytest.mark.parametrize("x, tau, mu", [
    ([1.0, -1.0], [1.0, 1.0], 0.0),
    ([1.0, 2.0], [1.0, 0.0], 0.0),
    ([1.0], [math.inf], 0.0),
    ([1.0], [1.0], math.nan),
    ([1.0, 2.0], [1.0, 2.0, 3.0], 0.0),
])
def test_contour_values_domain(x, tau, mu):
    with pytest.raises(ValueError):
        contour_values(x, tau, mu)


def _full_scan_angles(x, tau):
    """The first of 512 grid angles within 3 nats of the grid minimum of
    g(t) = -tau t + log K_0(x cos t), scanning every angle, and log K_0(x cos t)
    at every 16th angle."""
    angles = np.linspace(0.0, 0.5 * math.pi - 1e-4, 512)
    c = np.asarray(x)[:, None] * np.cos(angles)
    log_k0 = np.log(special.k0e(c)) - c
    g = log_k0 - np.asarray(tau)[:, None] * angles
    return angles[np.argmax(g <= g.min(axis=1, keepdims=True) + 3.0, axis=1)], log_k0[:, ::16]


def _same(got, want):
    return all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


CATALOG_CORNERS = ([0.01, 100.0, 0.01, 100.0], [0.1, 0.1, 40.0, 40.0])


def test_contour_angles_match_full_scan():
    rng = np.random.default_rng(20221)
    n = 10_000
    x = np.exp(rng.uniform(math.log(0.005), math.log(150.0), n))
    tau = np.exp(rng.uniform(math.log(0.05), math.log(60.0), n))
    parts = [_full_scan_angles(x[i:i + 500], tau[i:i + 500]) for i in range(0, n, 500)]
    want = [np.concatenate(p) for p in zip(*parts)]
    assert _same(kernel._contour_angles(x, tau), want)
    grid_x, grid_tau = np.geomspace(0.01, 100.0, 25), np.geomspace(0.1, 40.0, 25)
    x, tau = (a.ravel() for a in np.meshgrid(grid_x, grid_tau))
    assert _same(kernel._contour_angles(x, tau), _full_scan_angles(x, tau))
    for xi, ti in zip(*CATALOG_CORNERS):
        one = kernel._contour_angles(np.array([xi]), np.array([ti]))
        assert _same(one, _full_scan_angles([xi], [ti])), (xi, ti)


@pytest.mark.parametrize("mu", [0.0, 0.1, 0.25, 0.5, 1.0])
def test_contour_values_at_catalog_corners_match_full_scan(cfg, mu, monkeypatch):
    got = contour_values(*CATALOG_CORNERS, mu, cfg)
    monkeypatch.setattr(kernel, "_contour_angles", _full_scan_angles)
    want = contour_values(*CATALOG_CORNERS, mu, cfg)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _start_levels(x, tau, mu, cfg, monkeypatch, poisson=True):
    """contour_values' integrand, widths, start counts and accepted integrals;
    with poisson=False, the phase-rate start alone."""
    seen = {}
    trapezoid = kernel._trapezoid

    def recording(f, width, n0, cfg, dtype):
        value, err = trapezoid(f, width, n0, cfg, dtype)
        seen.update(f=f, width=width, n0=n0, value=value, dtype=dtype)
        return value, err

    with monkeypatch.context() as m:
        m.setattr(kernel, "_trapezoid", recording)
        if not poisson:
            m.setattr(kernel, "_poisson_count", lambda *args, **kwargs: np.inf)
        contour_values(x, tau, mu, cfg)
    return seen


def test_poisson_start_alone_meets_the_tolerance(cfg, monkeypatch):
    # Poisson summation and bound (3.15) put the start's aliasing error
    # below abs_tol/32, so the start level alone must already agree with
    # the accepted value.  At mu = 0 the integral is of unit size and the
    # test is abs_tol itself; at mu != 0 and small x it reaches 1e8, where
    # the levels differ by rounding of the sum, so the test is the
    # tolerance the accepted value was judged by
    grid_x, grid_tau = (a.ravel() for a in np.meshgrid(np.geomspace(0.01, 100.0, 25),
                                                       np.geomspace(0.1, 40.0, 25)))
    cases = [(mu, grid_x, grid_tau) for mu in (0.0, 0.1, 0.25, 0.5, 1.0)]
    rng = np.random.default_rng(20170)
    for mu in (0.0, 0.3, 1.0, 2.5, -3.0):
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), 400))
        cases.append((mu, x, np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 400))))
    used_total = 0
    for mu, x, tau in cases:
        new = _start_levels(x, tau, mu, cfg, monkeypatch)
        rate = _start_levels(x, tau, mu, cfg, monkeypatch, poisson=False)["n0"]
        used = np.flatnonzero(new["n0"] < rate)
        assert np.all(rate[used] >= 1024)
        used_total += used.size
        for n in np.unique(new["n0"][used]):
            rows = used[new["n0"][used] == n]
            h = new["width"][rows] / n
            total, _ = kernel._row_sums(new["f"], rows, h, np.arange(1.0, n + 1.0), new["dtype"])
            accepted = new["value"][rows]
            slack = cfg.abs_tol + (0.0 if mu == 0.0 else cfg.rel_tol * np.abs(accepted))
            assert np.all(np.abs(h * (0.5 + total) - accepted) <= slack), (mu, n)
    assert used_total >= 500


def test_contour_nodes_on_the_default_grid_stay_capped(cfg, monkeypatch):
    # the phase-rate start alone takes 2,015,840 trapezoid nodes here
    nodes = []
    row_sums = kernel._row_sums

    def counting(f, rows, h, k, dtype):
        nodes.append(rows.size * k.size)
        return row_sums(f, rows, h, k, dtype)

    monkeypatch.setattr(kernel, "_row_sums", counting)
    x, tau = (a.ravel() for a in np.meshgrid(np.geomspace(0.01, 100.0, 25), np.geomspace(0.1, 40.0, 25)))
    for mu in (0.0, 0.1, 0.25, 0.5, 1.0):
        values, _ = contour_values(x, tau, mu, cfg)
        assert not np.isnan(values).any()
    assert sum(nodes) <= 1_200_000


def test_index_raising_sweep(cfg):
    # tau K_{i tau}(x) = x Im K_{1+i tau}(x) divides by |K|, which is small
    # near its zeros, so a coarser or noisier start shows here first;
    # 10,000 points jittered by up to 10% in log space around criterion 3's grid
    rng = np.random.default_rng(30303)
    grid_x, grid_tau = np.meshgrid(np.geomspace(0.1, 10.0, 5), [0.5, 1.0, 2.0, 5.0, 10.0])
    x = np.repeat(grid_x.ravel(), 400) * np.exp(rng.uniform(-0.1, 0.1, 10_000))
    tau = np.repeat(grid_tau.ravel(), 400) * np.exp(rng.uniform(-0.1, 0.1, 10_000))
    k0, _ = contour_values(x, tau, 0.0, cfg)
    k1, _ = contour_values(x, tau, 1.0, cfg)
    residual = np.abs(tau * k0 - x * k1.imag) / np.abs(tau * k0)
    assert residual.max() <= 1e-10


def _fuzz_draw(seed, n=300):
    """Log-uniform points far beyond every contract, with a depth N each."""
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(1e-40), math.log(1e3), n))
    taus = np.exp(rng.uniform(math.log(1e-12), 3.5 * math.log(10.0), n))
    return [(EvaluationPoint(float(x), float(tau)), int(N))
            for x, tau, N in zip(xs, taus, rng.integers(0, 21, n))]


def test_evaluators_are_finite_or_refuse_on_seeded_fuzz(cfg):
    # each call returns a finite number or raises a contract exception,
    # never anything else; the oracle's value rounds to zero with no nodes
    # where its bound is below the least subnormal (tau of a few hundred up)
    for p, N in _fuzz_draw(1717):
        calls = [lambda: k_itau_keyformula(p, N, cfg), lambda: remainder_explicit(p, N, cfg),
                 lambda: remainder_measured(p, N, cfg), lambda: k_itau_oracle(p, cfg)]
        for call in calls:
            try:
                value = call()
            except (ValueError, AccuracyError):
                continue
            assert math.isfinite(value), (p, N)


def test_complex_order_reduces_to_real_kernel(cfg):
    p = EvaluationPoint(2.0, 3.0)
    got = k_complex_order(OrderSpec(0.0, 3.0), 2.0, cfg)
    assert got.imag == 0.0
    assert math.isclose(got.real, k_itau_oracle(p, cfg), rel_tol=1e-12)


@pytest.mark.parametrize("tau", CROSS_GRID_TAU)
@pytest.mark.parametrize("x", CROSS_GRID_X)
def test_index_raising_identity(cfg, x, tau):
    # tau*K_{i tau}(x) = x*Im K_{1 + i tau}(x)
    lhs = tau * k_itau_oracle(EvaluationPoint(x, tau), cfg)
    rhs = x * k_complex_order(OrderSpec(1.0, tau), x, cfg).imag
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs) + 1e-14


def test_index_raising_identity_pinned(cfg):
    lhs = 3.0 * k_itau_oracle(EvaluationPoint(2.0, 3.0), cfg)
    assert abs(lhs - 0.042714122266749543) <= 1e-10 * lhs


@pytest.mark.parametrize("n_terms", [0, 2, 4])
def test_keyformula_matches_oracle(cfg, n_terms):
    worst = 0.0
    for x in CROSS_GRID_X:
        for tau in CROSS_GRID_TAU:
            p = EvaluationPoint(x, tau)
            a = k_itau_keyformula(p, n_terms, cfg)
            b = k_itau_oracle(p, cfg)
            worst = max(worst, abs(a - b) / natural_scale(tau))
    assert worst <= 1e-8


def test_truncation_depth_sweep(cfg):
    # every depth N in 0..20 gives the same kernel and the same remainder:
    # the entire part G(w) of the remainder integral starts at
    # 1/(2^{N+1} (N+1)!), so its stopping test must be relative; at
    # (18, 10) the N = 0 integral cancels over its oscillation, so it is
    # judged against what the bracket needs, not against |T_0|
    worst_kernel = worst_remainder = 0.0
    for N in range(21):
        for x, tau in ((0.5, 0.5), (2.0, 1.0), (8.0, 2.0), (18.0, 1.0), (12.0, 5.0), (4.0, 10.0),
                       (18.0, 10.0)):
            p = EvaluationPoint(x, tau)
            kf = k_itau_keyformula(p, N, cfg)
            worst_kernel = max(worst_kernel, abs(kf - k_itau_oracle(p, cfg)) / natural_scale(tau))
            explicit = remainder_explicit(p, N, cfg)
            worst_remainder = max(worst_remainder, abs(explicit - remainder_measured(p, N, cfg)))
    assert worst_kernel <= 1e-8
    assert worst_remainder <= 1e-8


def _running_g(w, N):
    """G(w) = I_{N+1}(sqrt w) / (sqrt w)^{N+1} by its running-term series, each
    node to its own 1e-18 cut, in extended precision (80-bit on x86-64)."""
    w = np.asarray(w, dtype=np.longdouble)
    term = np.full(w.shape, np.longdouble(1) / (np.longdouble(2) ** (N + 1) * math.factorial(N + 1)))
    total = term.copy()
    for k in range(1, 400):
        term = term * w / (4 * k * (k + N + 1))
        total += term
        if np.all(term <= 1e-18 * total):
            return total
    raise AssertionError("series did not converge")


@pytest.mark.parametrize("w_max", [1e-6, 1.0, 100.0, 1e4])
def test_entire_g_by_horner_matches_the_running_series(w_max):
    rng = np.random.default_rng(18)
    for N in range(21):
        w = np.append(rng.uniform(0.0, w_max, 1000), w_max)
        coeffs, scale, g_max = kernel._entire_g(w_max, N)
        got = kernel._horner(coeffs, w / scale)
        want = _running_g(w, N)
        assert np.max(np.abs(got - want) / want) <= 2e-15, (w_max, N)
        assert abs(g_max - want[-1]) <= 2e-15 * want[-1]
        # the length fixed at w_max meets the cut at every smaller w
        assert np.all(coeffs[0] * (w / scale) ** (len(coeffs) - 1) <= 1e-18 * got)


def test_ill_conditioned_remainder_refuses_before_quadrature(cfg, panel_nodes):
    # the remainder integral cancels below its roundoff floor by a factor
    # of about 1e37 here; the full quadrature took 5.5 s to refuse
    p = EvaluationPoint(199.4737033116583, 2770.0524604895263)
    for evaluator in (k_itau_keyformula, remainder_explicit):
        with pytest.raises(AccuracyError) as exc:
            evaluator(p, 11, cfg)
        assert exc.value.achieved > 1e-8
    assert panel_nodes == []


def test_remainder_quadrature_work_stays_bounded_on_seeded_fuzz(cfg, panel_nodes):
    for p, N in _fuzz_draw(1717):
        for evaluator in (k_itau_keyformula, remainder_explicit):
            panel_nodes.clear()
            try:
                evaluator(p, N, cfg)
            except (ValueError, AccuracyError):
                pass
            assert sum(panel_nodes) <= 2_000_000, (p, N, evaluator.__name__)


def _perfbench_inputs():
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_remainder_refusal_spares_the_benchmark_inputs(cfg, monkeypatch):
    # the key formula's points of the paper checks at seeds 0-19, 32
    # repetitions each (a 40 s run makes about 25), and the explicit
    # remainder's fixed grid: the refusal before the quadrature never fires
    inputs = _perfbench_inputs()
    points = {(x, tau, N) for x in (0.25, 1.0, 5.0) for tau in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
              for N in (1, 2, 3)}
    for seed in range(20):
        for rep in range(32):
            points |= {(x, tau, N) for x, tau in inputs.paper_inputs(seed, rep)["cross"]
                       for N in (0, 2, 4)}

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(kernel, "phase_edges", reached)
    for x, tau, N in points:
        try:
            kernel._remainder_integral(x, tau, N, cfg)  # T_N = 0 where it is below eps
        except Reached:
            pass


@pytest.mark.parametrize("x", [30.0, 100.0])
@pytest.mark.parametrize("n_terms", [0, 4])
def test_keyformula_refuses_below_roundoff_floor(cfg, x, n_terms):
    # the bracket grows like e^x, K like e^{-x}: the real part cancels far
    # below the bracket's roundoff (K is 2.1e-14 at x=30, 4.6e-45 at x=100)
    with pytest.raises(AccuracyError) as exc:
        k_itau_keyformula(EvaluationPoint(x, 1.0), n_terms, cfg)
    assert exc.value.achieved > 1e-8


def test_keyformula_rejects_bad_order_count(cfg):
    p = EvaluationPoint(1.0, 1.0)
    with pytest.raises(ValueError):
        k_itau_keyformula(p, -1, cfg)
    with pytest.raises(ValueError):
        k_itau_keyformula(p, 21, cfg)


def test_keyformula_small_x_leading_term(cfg):
    x, tau = 1e-4, 1.0
    got = k_itau_keyformula(EvaluationPoint(x, tau), 2, cfg)
    lead = (cmath.exp(complex_log_gamma(1j * tau)) * (0.5 * x) ** (-1j * tau)).real
    assert abs(got - lead) <= 1e-9


def test_defseries_matches_pins():
    for (x, tau), want in ORACLE_PINS.items():
        if x > 10.0 or tau > 10.0:
            continue
        got = k_itau_defseries(EvaluationPoint(x, tau))
        assert abs(got - want) <= 1e-9 * natural_scale(tau), (x, tau)


def test_defseries_domain():
    with pytest.raises(ValueError):
        k_itau_defseries(EvaluationPoint(10.5, 1.0))
    with pytest.raises(ValueError):
        k_itau_defseries(EvaluationPoint(1.0, 10.5))


def test_smallx_evaluator(cfg):
    for tau in (0.5, 1.0, 5.0, 20.0):
        p = EvaluationPoint(0.01, tau)
        a = k_itau_smallx(p)
        b = k_itau_oracle(p, cfg)
        assert abs(a - b) <= 1e-11 * abs(b), tau
    with pytest.raises(ValueError):
        k_itau_smallx(EvaluationPoint(0.06, 1.0))
