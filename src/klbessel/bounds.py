"""Executable catalog of printed upper bounds for the Macdonald kernel.

Each catalog entry evaluates the right-hand side of one printed inequality,
exactly as displayed, in log space (the sinh and gamma factors overflow
float64 well inside the certification grid).  A grid certifier checks
|K| <= bound pointwise against the kernel evaluators, and representation
verifiers confirm the integral identities the bounds are derived from.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .kernel import EvaluationPoint, _checked_contour, contour_values, k_itau_oracle
from .quadrature import (
    DEFAULT_CONFIG,
    averaged_tail,
    integrate,
    panel_sums,
    phase_edges,
)
from .special import bessel_k0, log_abs_gamma, log_sinh

__all__ = [
    "LANDAU_B",
    "OLENKO_ALPHA",
    "RATIO_SLACK",
    "BoundDescriptor",
    "BoundCertificate",
    "olenko_c",
    "measure_c",
    "catalog_ids",
    "make_descriptor",
    "default_descriptor",
    "all_default_descriptors",
    "evaluate_bound",
    "certify_bound",
    "kernel_grid_values",
    "default_grid",
    "verify_representation",
    "catalog_to_json",
    "certificate_to_json",
]

LANDAU_B = 0.674885
OLENKO_ALPHA = 1.855757

# Certification slack absorbing kernel-oracle and bound-arithmetic roundoff.
RATIO_SLACK = 1e-9

_LN2 = math.log(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def olenko_c(nu):
    """Olenko's upper estimate for c_nu = sup sqrt(x)|J_nu(x)|, nu > 0."""
    if not nu > 0.0:
        raise ValueError("olenko_c requires nu > 0")
    cube = nu ** (1.0 / 3.0)
    return LANDAU_B * math.sqrt(cube + OLENKO_ALPHA / cube + 0.3 * OLENKO_ALPHA ** 2 / nu)


def measure_c(nu, x_max=3000.0, step_density=40):
    """Numerical sup of sqrt(x)|J_nu(x)| over (0, x_max].

    A dense vectorized scan locates the global maximum bracket, then a
    golden-section polish refines it.  For |nu| <= 1/2 the sup is approached
    as x grows (Szego), so x_max controls the achievable accuracy there:
    the envelope is off by O(1/x_max^2), below 1e-6 from ~2000 on.

    Parameters
    ----------
    nu : float
        Order, nu >= -1/2.
    x_max : float
        Scan limit, at least 100.
    step_density : int
        Samples per unit of x in the scan.
    """
    if nu < -0.5:
        raise ValueError("measure_c requires nu >= -1/2")
    if x_max < 100.0:
        raise ValueError("x_max must be at least 100")
    n = int(x_max * step_density)
    xs = np.linspace(x_max / n, x_max, n)
    vals = np.sqrt(xs) * np.abs(_sp.jv(nu, xs))
    i = int(np.argmax(vals))
    best_scan = float(vals[i])

    def f(t):
        return math.sqrt(t) * abs(_sp.jv(nu, t))

    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, n - 1)])
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(best_scan, fc, fd)


def _c_nu(nu):
    """The constant c_nu used by the bound family: Szego value on |nu| <= 1/2,
    Olenko's estimate beyond."""
    if abs(nu) <= 0.5:
        return _SQRT_2_OVER_PI
    return olenko_c(nu)


@dataclass(frozen=True)
class BoundDescriptor:
    """One parameterized member of the inequality catalog.

    Attributes
    ----------
    id : str
        Catalog identifier.
    params : tuple of (name, value) pairs
        The entry's parameters, already validated.
    order_mu : float
        Real part of the order of the kernel being bounded (0 for pure
        imaginary order).
    kernel_part : str
        Which part of the kernel the bound controls: "abs", "real_abs",
        or "imag_abs".
    label : str
        Printed-equation tag for serialization.
    validity : str
        Human-readable description of the validity region.
    """

    id: str
    params: tuple
    order_mu: float
    kernel_part: str
    label: str
    validity: str

    def param(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class BoundCertificate:
    """Result of certifying one descriptor over a grid."""

    descriptor: BoundDescriptor
    grid: tuple
    max_ratio: float
    worst_point: EvaluationPoint
    passed: bool
    ratios: tuple = field(default=(), repr=False)
    indeterminate: tuple = ()


# ---------------------------------------------------------------------------
# log-space bound formulas

def _lg(x):
    return float(_sp.gammaln(x))


def _log_bound_lebedev_15(params, x, tau):
    return _lg(0.25) - 0.5 * _LN2 - 0.25 * math.log(x) - 0.5 * log_sinh(math.pi * tau)


def _log_bound_family_17(params, x, tau):
    nu = params["nu"]
    mu = params["mu"]
    return (
        (nu - mu - 1.0) * _LN2
        + math.log(_c_nu(nu))
        + _lg(0.5 * (nu + 1.5))
        + _lg(0.5 * (nu - 2.0 * mu + 0.5))
        - _lg(nu - mu + 1.0)
        + log_abs_gamma(complex(nu - mu + 1.0, tau))
        + (mu - nu - 0.5) * math.log(x)
    )


def _log_bound_half_range_18(params, x, tau):
    nu = params["nu"]
    return (
        _lg(nu + 0.5)
        - _lg(nu + 1.0)
        + log_abs_gamma(complex(nu + 1.0, tau))
        - (nu + 0.5) * math.log(x)
    )


def _log_bound_olenko_19(params, x, tau):
    nu = params["nu"]
    return math.log(olenko_c(nu)) + _log_bound_half_range_18(params, x, tau)


def _log_bound_modified_110(params, x, tau):
    return 0.5 * (2.0 * math.log(math.pi) + math.log(tau) - math.log(x) - log_sinh(math.pi * tau))


def _log_bound_delta_111(params, x, tau):
    delta = params["delta"]
    return (
        _lg(delta)
        - delta * math.log(x)
        - _lg(delta + 0.5)
        + log_abs_gamma(complex(0.5 + delta, tau))
    )


def _log_bound_mu_eq_nu_112(params, x, tau):
    nu = params["nu"]
    return (
        _lg(0.5 * (nu + 1.5))
        + _lg(0.5 * (0.5 - nu))
        + 0.5 * (math.log(tau) - _LN2 - math.log(x) - log_sinh(math.pi * tau))
    )


def _log_bound_ls_113_114(params, x, tau):
    return 0.5 * (
        2.0 * math.log(math.pi) + math.log(tau) - _LN2 - math.log(x) - log_sinh(math.pi * tau)
    )


def _log_bound_k1_115(params, x, tau):
    nu = params["nu"]
    return (
        (nu - 2.0) * _LN2
        + math.log(_c_nu(nu))
        + _lg(0.5 * (nu + 1.5))
        + _lg(0.5 * (nu - 1.5))
        - _lg(nu)
        + log_abs_gamma(complex(nu, tau))
        + (0.5 - nu) * math.log(x)
    )


def _log_bound_via_116_117(params, x, tau):
    nu = params["nu"]
    return (
        (nu - 2.0) * _LN2
        + math.log(_c_nu(nu))
        + _lg(0.5 * (nu + 1.5))
        + _lg(0.5 * (nu - 1.5))
        - math.log(tau)
        - _lg(nu)
        + log_abs_gamma(complex(nu, tau))
        + (1.5 - nu) * math.log(x)
    )


def _log_bound_delta_118(params, x, tau):
    delta = params["delta"]
    nu = 1.5 + delta
    return (
        (delta - 0.5) * _LN2
        + math.log(_c_nu(nu))
        + _lg(0.5 * (3.0 + delta))
        + _lg(0.5 * delta)
        - math.log(tau)
        - _lg(nu)
        + log_abs_gamma(complex(nu, tau))
        - delta * math.log(x)
    )


def _composite_126_bracket(delta, m_cap, n_cap, x, tau):
    root_x = math.sqrt(x)
    sum_n = sum(
        2.0 ** (2 * n - 1) * math.gamma(2 * n - 0.5) * _sp.beta(2 * n + 1.5, 2 * n - 0.5)
        for n in range(1, n_cap)
    )
    sum_m = sum(
        4.0 ** n * math.gamma(2 * n + 0.5) * _sp.beta(2 * n + 2.5, 2 * n + 0.5)
        for n in range(0, m_cap)
    )
    tail = 4.0 ** n_cap * math.gamma(2 * n_cap - 1.5) * _sp.beta(2 * n_cap - 1.5, 2 * n_cap + 0.5)
    tail += 4.0 ** (m_cap - 1) * math.gamma(2 * m_cap - 0.5) * _sp.beta(2 * m_cap - 0.5, 2 * m_cap + 1.5)
    return (
        2.0 / math.sqrt(math.pi * x) * (1.0 + 2.0 * tau) * (1.0 + tau) ** (-delta)
        + 4.0 * root_x / math.sqrt(math.pi) * ((1.0 + tau) ** delta - 1.0)
        + 1.0
        + 2.0 * LANDAU_B * math.sqrt(2.0 * x)
        * math.sqrt(1.0 + OLENKO_ALPHA + 0.3 * OLENKO_ALPHA ** 2)
        + 4.0 * root_x / math.pi * (sum_n + sum_m)
        + 2.0 * root_x / math.pi ** 2 * tail
    )


def _log_bound_composite_126(params, x, tau):
    bracket = _composite_126_bracket(params["delta"], params["M"], params["N"], x, tau)
    return 0.5 * (
        math.log(math.pi) - math.log(tau) - log_sinh(math.pi * tau) + math.log(bracket)
    )


def _log_bound_iter_130(params, x, tau):
    n = params["n"]
    q = 2.0 ** (-n)
    return (
        _lg(0.5 * q)
        - (1.0 - q) * _LN2
        - q * (0.5 * math.log(x) + log_sinh(2.0 ** (n - 1) * math.pi * tau))
    )


def _log_bound_iter_128(params, x, tau):
    return _log_bound_iter_130({"n": 2}, x, tau)


def _log_bound_iter_129(params, x, tau):
    return _log_bound_iter_130({"n": 3}, x, tau)


def _log_bound_exp_decay_315(params, x, tau):
    delta = params["delta"]
    return -delta * tau + math.log(bessel_k0(x * math.cos(delta)))


# ---------------------------------------------------------------------------
# catalog registry

def _positive_int(value, name):
    if value != int(value) or int(value) < 1:
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def _validate_family_17(params):
    nu, mu = params["nu"], params["mu"]
    if nu < -0.5:
        raise ValueError("nu must be >= -1/2 (the constant c_nu is not defined below)")
    if not mu < 0.5 * (nu + 0.5):
        raise ValueError("mu must satisfy mu < (nu + 1/2)/2")
    return params


def _validate_half_range_18(params):
    if not -0.5 < params["nu"] <= 0.5:
        raise ValueError("nu must lie in (-1/2, 1/2]")
    return params


def _validate_olenko_19(params):
    if not params["nu"] > 0.0:
        raise ValueError("nu must be positive")
    return params


def _validate_delta_111(params):
    if not 0.0 < params["delta"] < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return params


def _validate_mu_eq_nu_112(params):
    if not -0.5 <= params["nu"] < 0.5:
        raise ValueError("nu must lie in [-1/2, 1/2)")
    return params


def _validate_above_three_halves(params):
    # the gamma factor Gamma((nu - 3/2)/2) has a pole at nu = 3/2; keep a
    # fixed margin so the bound never evaluates arbitrarily close to it
    if not params["nu"] >= 1.5 + 1e-3:
        raise ValueError("nu must be at least 3/2 + 1e-3")
    return params


def _validate_delta_118(params):
    if not params["delta"] > 0.0:
        raise ValueError("delta must be positive")
    return params


def _validate_composite_126(params):
    if not params["delta"] > 0.0:
        raise ValueError("delta must be positive")
    params["M"] = _positive_int(params["M"], "M")
    params["N"] = _positive_int(params["N"], "N")
    return params


def _validate_iter_130(params):
    params["n"] = _positive_int(params["n"], "n")
    return params


def _validate_exp_decay_315(params):
    if not 0.0 <= params["delta"] < 0.5 * math.pi:
        raise ValueError("delta must lie in [0, pi/2)")
    return params


def _no_params(params):
    return params


@dataclass(frozen=True)
class _CatalogEntry:
    label: str
    param_names: tuple
    defaults: dict
    validate: callable
    log_bound: callable
    kernel_part: str
    validity: str
    order_mu: callable  # params -> float


_CATALOG = {
    "LEBEDEV_15": _CatalogEntry(
        "1.5", (), {}, _no_params, _log_bound_lebedev_15, "abs",
        "x > 0, tau > 0", lambda p: 0.0,
    ),
    "FAMILY_17": _CatalogEntry(
        "1.7", ("nu", "mu"), {"nu": 0.3, "mu": 0.1}, _validate_family_17,
        _log_bound_family_17, "abs",
        "x > 0, tau > 0; nu >= -1/2, mu < (nu + 1/2)/2; bounds |K_{mu + i tau}|",
        lambda p: p["mu"],
    ),
    "HALF_RANGE_18": _CatalogEntry(
        "1.8", ("nu",), {"nu": 0.25}, _validate_half_range_18,
        _log_bound_half_range_18, "abs",
        "x > 0, tau > 0; -1/2 < nu <= 1/2", lambda p: 0.0,
    ),
    "OLENKO_19": _CatalogEntry(
        "1.9", ("nu",), {"nu": 1.0}, _validate_olenko_19,
        _log_bound_olenko_19, "abs",
        "x > 0, tau > 0; nu > 0", lambda p: 0.0,
    ),
    "MODIFIED_110": _CatalogEntry(
        "1.10", (), {}, _no_params, _log_bound_modified_110, "abs",
        "x > 0, tau > 0", lambda p: 0.0,
    ),
    "DELTA_111": _CatalogEntry(
        "1.11", ("delta",), {"delta": 0.5}, _validate_delta_111,
        _log_bound_delta_111, "abs",
        "x > 0, tau > 0; 0 < delta < 1", lambda p: 0.0,
    ),
    "MU_EQ_NU_112": _CatalogEntry(
        "1.12", ("nu",), {"nu": 0.25}, _validate_mu_eq_nu_112,
        _log_bound_mu_eq_nu_112, "abs",
        "x > 0, tau > 0; -1/2 <= nu < 1/2; bounds |K_{nu + i tau}|",
        lambda p: p["nu"],
    ),
    "LS_RE_113": _CatalogEntry(
        "1.13", (), {}, _no_params, _log_bound_ls_113_114, "real_abs",
        "x > 0, tau > 0; bounds |Re K_{1/2 + i tau}|", lambda p: 0.5,
    ),
    "LS_IM_114": _CatalogEntry(
        "1.14", (), {}, _no_params, _log_bound_ls_113_114, "imag_abs",
        "x > 0, tau > 0; bounds |Im K_{1/2 + i tau}|", lambda p: 0.5,
    ),
    "K1_115": _CatalogEntry(
        "1.15", ("nu",), {"nu": 2.0}, _validate_above_three_halves,
        _log_bound_k1_115, "abs",
        "x > 0, tau > 0; nu > 3/2; bounds |K_{1 + i tau}|", lambda p: 1.0,
    ),
    "VIA_116_117": _CatalogEntry(
        "1.17", ("nu",), {"nu": 2.0}, _validate_above_three_halves,
        _log_bound_via_116_117, "abs",
        "x > 0, tau > 0; nu > 3/2", lambda p: 0.0,
    ),
    "DELTA_118": _CatalogEntry(
        "1.18", ("delta",), {"delta": 0.5}, _validate_delta_118,
        _log_bound_delta_118, "abs",
        "x > 0, tau > 0; delta > 0", lambda p: 0.0,
    ),
    "COMPOSITE_126": _CatalogEntry(
        "1.26", ("delta", "M", "N"), {"delta": 1.0, "M": 1, "N": 1},
        _validate_composite_126, _log_bound_composite_126, "abs",
        "x > 0, tau > 0; delta > 0, M >= 1, N >= 1", lambda p: 0.0,
    ),
    "ITER_128": _CatalogEntry(
        "1.28", (), {}, _no_params, _log_bound_iter_128, "abs",
        "x > 0, tau > 0", lambda p: 0.0,
    ),
    "ITER_129": _CatalogEntry(
        "1.29", (), {}, _no_params, _log_bound_iter_129, "abs",
        "x > 0, tau > 0", lambda p: 0.0,
    ),
    "ITER_130": _CatalogEntry(
        "1.30", ("n",), {"n": 3}, _validate_iter_130, _log_bound_iter_130, "abs",
        "x > 0, tau > 0; n >= 1", lambda p: 0.0,
    ),
    "EXP_DECAY_315": _CatalogEntry(
        "3.15", ("delta",), {"delta": math.pi / 6.0}, _validate_exp_decay_315,
        _log_bound_exp_decay_315, "abs",
        "x > 0, tau > 0; 0 <= delta < pi/2", lambda p: 0.0,
    ),
}


def catalog_ids():
    """All catalog identifiers, in catalog order."""
    return tuple(_CATALOG)


def make_descriptor(bound_id, **params):
    """Build a validated BoundDescriptor for one catalog entry.

    Unspecified parameters take the entry's defaults; unknown parameter
    names and domain violations raise ValueError.
    """
    try:
        entry = _CATALOG[bound_id]
    except KeyError:
        raise ValueError(f"unknown catalog id {bound_id!r}") from None
    unknown = set(params) - set(entry.param_names)
    if unknown:
        raise ValueError(f"{bound_id} does not take parameters {sorted(unknown)}")
    merged = dict(entry.defaults)
    merged.update(params)
    merged = entry.validate(merged)
    return BoundDescriptor(
        id=bound_id,
        params=tuple((name, merged[name]) for name in entry.param_names),
        order_mu=float(entry.order_mu(merged)),
        kernel_part=entry.kernel_part,
        label=entry.label,
        validity=entry.validity,
    )


def default_descriptor(bound_id):
    """Descriptor with the entry's default parameters."""
    return make_descriptor(bound_id)


def all_default_descriptors():
    """Default descriptors for the whole catalog."""
    return tuple(make_descriptor(i) for i in catalog_ids())


def evaluate_bound(d, p):
    """The right-hand side of the printed inequality at one point.

    All gamma/sinh factors are assembled in log space and exponentiated
    once, so the value stays finite and positive over the whole grid.
    """
    entry = _CATALOG[d.id]
    return math.exp(entry.log_bound(dict(d.params), p.x, p.tau))


# ---------------------------------------------------------------------------
# certification

def default_grid(nx=25, ntau=25, x_lo=0.01, x_hi=100.0, tau_lo=0.1, tau_hi=40.0):
    """The certification grid: log-spaced in both variables.

    Log spacing matches the bounds' power-law behavior in x and the
    kernel's exponential behavior in tau.
    """
    xs = np.geomspace(x_lo, x_hi, nx)
    taus = np.geomspace(tau_lo, tau_hi, ntau)
    return tuple(EvaluationPoint(float(x), float(t)) for t in taus for x in xs)


def kernel_grid_values(grid, order_mu, cfg=DEFAULT_CONFIG):
    """Kernel values over a grid at fixed order, for sharing across descriptors.

    One `contour_values` call; a tuple of complex values, each equal to the
    scalar oracle's bit for bit, None where the accuracy contract failed.
    """
    values, _ = contour_values([p.x for p in grid], [p.tau for p in grid], order_mu, cfg)
    return tuple(None if np.isnan(v) else complex(v) for v in values)


def _extract_part(value, part):
    if part == "abs":
        return abs(value)
    if part == "real_abs":
        return abs(value.real)
    if part == "imag_abs":
        return abs(value.imag)
    raise ValueError(f"unknown kernel part {part!r}")


def certify_bound(d, grid, cfg=DEFAULT_CONFIG, kernel_values=None):
    """Certify |K| <= bound pointwise over a grid.

    Parameters
    ----------
    d : BoundDescriptor
    grid : sequence of EvaluationPoint
    cfg : QuadratureConfig
    kernel_values : sequence of complex, optional
        Precomputed kernel values at ``d.order_mu`` over ``grid`` (see
        `kernel_grid_values`); descriptors sharing an order reuse them.

    Returns
    -------
    BoundCertificate
        ``passed`` holds iff the worst ratio is <= 1 + RATIO_SLACK; points
        whose kernel evaluation failed its accuracy contract are listed as
        indeterminate and excluded from the ratio.
    """
    grid = tuple(grid)
    if kernel_values is None:
        kernel_values = kernel_grid_values(grid, d.order_mu, cfg)
    ratios = []
    indeterminate = []
    worst = -1.0
    worst_point = grid[0]
    for p, kv in zip(grid, kernel_values):
        if kv is None:
            indeterminate.append(p)
            continue
        ratio = _extract_part(kv, d.kernel_part) / evaluate_bound(d, p)
        ratios.append(ratio)
        if ratio > worst:
            worst = ratio
            worst_point = p
    return BoundCertificate(
        descriptor=d,
        grid=grid,
        max_ratio=worst,
        worst_point=worst_point,
        passed=worst <= 1.0 + RATIO_SLACK and not indeterminate,
        ratios=tuple(ratios),
        indeterminate=tuple(indeterminate),
    )


# ---------------------------------------------------------------------------
# integral-representation verifiers

_REPRESENTATIONS = ("EQ_1_4", "EQ_1_6", "EQ_1_21", "EQ_1_27")


def _tail_by_averaging(f, start, period, count=64):
    """Sum an oscillatory tail by half-period panels plus repeated averaging."""
    edges = start + period * np.arange(count + 1)
    panels = panel_sums(f, edges)
    value, _ = averaged_tail(panels)
    return value


def _verify_eq_1_27(p, cfg):
    # squared kernel as an integral of the kernel at doubled index:
    # K^2_{i tau}(x) = 2 int_1^inf K_{2 i tau}(2 x y) / sqrt(y^2 - 1) dy,
    # smooth after y = cosh(w).
    x, tau = p.x, p.tau
    lhs = k_itau_oracle(p, cfg) ** 2
    budget = math.log(1.0 / cfg.truncation_threshold)
    w_max = math.acosh(1.0 + budget / (2.0 * x)) + 1.0

    def f(w):
        # libm's cosh: numpy's differs in the last bit at about a fifth of
        # nodes, which would move the residual by roundoff
        xs = np.fromiter((2.0 * x * math.cosh(v) for v in w), float, w.size)
        return _checked_contour(xs, 2.0 * tau, 0.0, cfg)

    n_panels = max(8, int(2.0 * tau * w_max / math.pi) + 4)
    rhs = 2.0 * float(np.real(integrate(f, np.linspace(0.0, w_max, n_panels + 1), cfg)))
    return abs(lhs - rhs) / (abs(lhs) + 1e-300)


def _verify_eq_1_4(p, cfg):
    # pi/sinh(pi tau) int_0^inf J_0(2 x sinh t) sin(2 tau t) dt = K^2; the
    # substitution u = sinh t makes the head phase x-linear, and the tail is
    # summed over half-periods of the Bessel oscillation with averaging.
    x, tau = p.x, p.tau
    lhs = k_itau_oracle(p, cfg) ** 2

    def f(u):
        u = np.asarray(u, dtype=float)
        return _sp.j0(2.0 * x * u) * np.sin(2.0 * tau * np.arcsinh(u)) / np.sqrt(1.0 + u * u)

    u0 = max(40.0 / x, 30.0)
    edges = phase_edges(lambda u: 2.0 * x * u + 2.0 * tau * np.arcsinh(u), 0.0, u0)
    head = float(np.real(integrate(f, edges, cfg)))
    tail = float(np.real(_tail_by_averaging(f, u0, 0.5 * math.pi / x)))
    rhs = math.pi * math.exp(-log_sinh(math.pi * tau)) * (head + tail)
    return abs(lhs - rhs) / (abs(lhs) + 1e-300)


def _verify_eq_1_21(p, cfg):
    # (2 tau / pi) sinh(pi tau) K^2 = 1 - 2x int_0^inf J_1(2xy) cos(2 tau asinh y) dy.
    # The derivation chain carries a 1/(2 tau) prefactor into the limit; the
    # factor implemented here is the one the identity actually satisfies.
    x, tau = p.x, p.tau
    lhs = (
        2.0 * tau / math.pi
        * math.exp(log_sinh(math.pi * tau) + 2.0 * math.log(abs(k_itau_oracle(p, cfg)) + 1e-300))
    )

    def f(y):
        y = np.asarray(y, dtype=float)
        return _sp.j1(2.0 * x * y) * np.cos(2.0 * tau * np.arcsinh(y))

    y0 = 200.0 / x
    edges = phase_edges(lambda y: 2.0 * x * y + 2.0 * tau * np.arcsinh(y), 0.0, y0)
    head = float(np.real(integrate(f, edges, cfg)))
    tail = float(np.real(_tail_by_averaging(f, y0, 0.5 * math.pi / x)))
    rhs = 1.0 - 2.0 * x * (head + tail)
    return abs(lhs - rhs) / (abs(lhs) + 1e-300)


def _verify_eq_1_6(p, cfg, nu=0.3):
    # kernel as a J-transform: with rho = nu + 1 + i tau the left side is
    # K_{-i tau}(x) = K_{i tau}(x); the right side is evaluated as printed.
    x, tau = p.x, p.tau
    if not -1.0 < nu:
        raise ValueError("nu must exceed -1")
    rho = complex(nu + 1.0, tau)
    if not nu < 2.0 * rho.real - 0.5:
        raise ValueError("parameters must satisfy nu < 2 Re rho - 1/2")
    lhs = complex(k_itau_oracle(p, cfg))

    def f(y):
        y = np.asarray(y, dtype=float)
        logs = (nu + 1.0) * np.log(y) - rho * np.log1p(y * y)
        return np.exp(logs) * _sp.jv(nu, x * y)

    y0 = max(60.0 / x, 40.0)
    edges = phase_edges(lambda y: x * y + tau * np.log1p(y * y), 1e-12, y0)
    head = complex(integrate(f, edges, cfg))
    # the Bessel argument is x*y, so half a period of the oscillation is pi/x
    tail = complex(_tail_by_averaging(f, y0, math.pi / x, count=96))
    prefactor = cmath.exp(_sp.loggamma(rho) + (rho - 1.0) * (_LN2 - math.log(x)))
    rhs = prefactor * (head + tail)
    return abs(lhs - rhs) / (abs(lhs) + 1e-300)


def verify_representation(rep_id, p, cfg=DEFAULT_CONFIG, **params):
    """Relative residual of one integral representation at one point.

    Both sides are evaluated by independent quadratures; the result is
    |LHS - RHS| / (|LHS| + tiny).

    Parameters
    ----------
    rep_id : str
        One of EQ_1_4, EQ_1_6, EQ_1_21, EQ_1_27.
    p : EvaluationPoint
    params : for EQ_1_6, the order ``nu`` of the J-transform (default 0.3).
    """
    if rep_id == "EQ_1_27":
        return _verify_eq_1_27(p, cfg)
    if rep_id == "EQ_1_4":
        return _verify_eq_1_4(p, cfg)
    if rep_id == "EQ_1_21":
        return _verify_eq_1_21(p, cfg)
    if rep_id == "EQ_1_6":
        return _verify_eq_1_6(p, cfg, **params)
    raise ValueError(f"unknown representation {rep_id!r}; choose from {_REPRESENTATIONS}")


# ---------------------------------------------------------------------------
# serialization

def _descriptor_record(d):
    return {
        "id": d.id,
        "label": d.label,
        "params": dict(d.params),
        "order_mu": d.order_mu,
        "kernel_part": d.kernel_part,
        "validity": d.validity,
    }


def catalog_to_json(descriptors=None):
    """JSON document describing the catalog (default parameters unless given)."""
    if descriptors is None:
        descriptors = all_default_descriptors()
    doc = {"bounds": [_descriptor_record(d) for d in descriptors]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def certificate_to_json(cert):
    """JSON document for one certificate: grid, ratios, worst point, verdict."""
    doc = {
        "descriptor": _descriptor_record(cert.descriptor),
        "grid": [{"x": p.x, "tau": p.tau} for p in cert.grid],
        "ratios": list(cert.ratios),
        "max_ratio": cert.max_ratio,
        "worst_point": {"x": cert.worst_point.x, "tau": cert.worst_point.tau},
        "pass": cert.passed,
        "indeterminate": [{"x": p.x, "tau": p.tau} for p in cert.indeterminate],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
