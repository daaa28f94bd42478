"""Executable catalog of printed upper bounds for the Macdonald kernel.

Each catalog entry evaluates the right-hand side of one printed inequality,
exactly as displayed, in log space (the sinh and gamma factors overflow
float64 well inside the certification grid), on arrays of x and tau; the
factors of the parameters alone are scalars, taken once a call.  The
catalog is a few families and their members, each member evaluated through
its family's formula:

- (1.7) FAMILY_17: MU_EQ_NU_112 (1.12) at mu = nu, K1_115 (1.15) at mu = 1,
  VIA_116_117 (1.17) as (1.15) times x/tau, and DELTA_118 (1.18) as (1.17)
  at nu = 3/2 + delta;
- (1.8) HALF_RANGE_18: DELTA_111 (1.11) at nu = delta - 1/2, and OLENKO_19
  (1.9) as (1.8) times Olenko's estimate of c_nu;
- (1.10) MODIFIED_110: LS_RE_113 (1.13) and LS_IM_114 (1.14) as (1.10)
  over sqrt 2;
- (1.30) ITER_130: ITER_128 (1.28) at n = 2 and ITER_129 (1.29) at n = 3.

Each entry declares its parameter domain, which `make_descriptor` checks.
A grid certifier checks |K| <= bound against the kernel evaluators with
one formula call for the whole grid, and representation verifiers confirm
the integral identities the bounds are derived from.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .kernel import (EvaluationPoint, OrderSpec, _checked_contour, contour_values,
                     k_complex_order, k_itau_oracle)
from .quadrature import (
    DEFAULT_CONFIG,
    TRUNCATION,
    averaged_tail,
    integrate,
    panel_sums,
    phase_edges,
)
from .special import log_sinh

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
    "all_default_descriptors",
    "evaluate_bound",
    "certify_bound",
    "kernel_grid_values",
    "default_grid",
    "verify_representation",
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


def _golden_max(f, a, b):
    """Largest value of a unimodal ``f`` seen by golden-section search on [a, b]."""
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
    return max(fc, fd)


_STEP_DENSITY = 40  # samples per unit of x in `measure_c`'s scan


def measure_c(nu, x_max=3000.0):
    """Numerical sup of sqrt(x)|J_nu(x)| over (0, x_max].

    u = sqrt(x) J_nu(x) solves u'' + (1 - (nu^2 - 1/4)/x^2) u = 0, so by
    the Sonine-Polya theorem (Watson, *A Treatise on the Theory of Bessel
    Functions*, section 15.31) the maxima of |u| do not increase for
    nu >= 1/2 and increase for nu < 1/2.  One window of (0, x_max] is
    scanned at the spacing x_max / int(40 x_max):

    - nu >= 1/2: the first maximum, between the first zeros of J_nu' and
      J_nu, in (0, min(x_max, nu + 2 nu^{1/3} + 2 pi)];
    - nu < 1/2: zeros are less than pi apart, so the last complete
      maximum and any rise toward x_max lie in [x_max - 2 pi, x_max].

    Every grid-local maximum in the window is polished by golden-section
    search, since neighbouring maxima can differ by less than the grid's
    sampling error.  For |nu| < 1/2 the sup tends to sqrt(2/pi) as x_max
    grows (Szego), with a gap O(1/x_max^2), below 1e-6 from about 2000 on.

    Parameters
    ----------
    nu : float
        Order, finite and nu >= -1/2.
    x_max : float
        Scan limit, finite and at least 100.
    """
    if not -0.5 <= nu < math.inf:
        raise ValueError(f"measure_c requires a finite nu >= -1/2, got {nu!r}")
    if not 100.0 <= x_max < math.inf:
        raise ValueError(f"x_max must be finite and at least 100, got {x_max!r}")
    n = int(x_max * _STEP_DENSITY)
    if nu >= 0.5:
        first = 1
        last = min(n, math.ceil((nu + 2.0 * nu ** (1.0 / 3.0) + 2.0 * math.pi) / x_max * n))
    else:
        first, last = max(1, math.floor((x_max - 2.0 * math.pi) / x_max * n)), n
    xs = x_max * (np.arange(first, last + 1) / n)
    vals = np.sqrt(xs) * np.abs(_sp.jv(nu, xs))
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    peaks = np.flatnonzero((vals >= padded[:-2]) & (vals >= padded[2:]))

    def f(t):
        return math.sqrt(t) * abs(_sp.jv(nu, t))

    polished = (
        _golden_max(f, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)]))
        for i in peaks
    )
    return max(float(vals.max()), *polished)


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


@dataclass(frozen=True)
class BoundCertificate:
    """Result of certifying one descriptor over a grid."""

    descriptor: BoundDescriptor
    grid: tuple
    max_ratio: float | None
    worst_point: EvaluationPoint | None
    passed: bool
    ratios: tuple = field(default=(), repr=False)
    indeterminate: tuple = ()


# ---------------------------------------------------------------------------
# log-space bound formulas: x and tau are float arrays of one shape, and the
# factors that depend only on the parameters are scalars, taken once a call

def _log_bound_lebedev_15(params, x, tau):
    return _sp.gammaln(0.25) - 0.5 * _LN2 - 0.25 * np.log(x) - 0.5 * log_sinh(math.pi * tau)


def _log_bound_family_17(params, x, tau):
    nu, mu = params["nu"], params["mu"]
    return (
        (nu - mu - 1.0) * _LN2
        + math.log(_c_nu(nu))
        + _sp.gammaln(0.5 * (nu + 1.5))
        + _sp.gammaln(0.5 * (nu - 2.0 * mu + 0.5))
        - _sp.gammaln(nu - mu + 1.0)
        + _sp.loggamma(nu - mu + 1.0 + 1j * tau).real
        + (mu - nu - 0.5) * np.log(x)
    )


def _log_bound_half_range_18(params, x, tau):
    nu = params["nu"]
    return (
        _sp.gammaln(nu + 0.5)
        - _sp.gammaln(nu + 1.0)
        + _sp.loggamma(nu + 1.0 + 1j * tau).real
        - (nu + 0.5) * np.log(x)
    )


def _log_bound_modified_110(params, x, tau):
    return 0.5 * (2.0 * math.log(math.pi) + np.log(tau) - np.log(x) - log_sinh(math.pi * tau))


def _log_bound_composite_126(params, x, tau):
    delta, m_cap, n_cap = params["delta"], params["M"], params["N"]
    root_x = np.sqrt(x)
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
    bracket = (
        2.0 / np.sqrt(math.pi * x) * (1.0 + 2.0 * tau) * (1.0 + tau) ** (-delta)
        + 4.0 * root_x / math.sqrt(math.pi) * ((1.0 + tau) ** delta - 1.0)
        + 1.0
        + 2.0 * LANDAU_B * np.sqrt(2.0 * x)
        * math.sqrt(1.0 + OLENKO_ALPHA + 0.3 * OLENKO_ALPHA ** 2)
        + 4.0 * root_x / math.pi * (sum_n + sum_m)
        + 2.0 * root_x / math.pi ** 2 * tail
    )
    return 0.5 * (
        math.log(math.pi) - np.log(tau) - log_sinh(math.pi * tau) + np.log(bracket)
    )


def _log_bound_iter_130(params, x, tau):
    n = params["n"]
    q = 2.0 ** (-n)
    return (
        _sp.gammaln(0.5 * q)
        - (1.0 - q) * _LN2
        - q * (0.5 * np.log(x) + log_sinh(2.0 ** (n - 1) * math.pi * tau))
    )


def _log_bound_exp_decay_315(params, x, tau):
    delta = params["delta"]
    z = x * math.cos(delta)
    return -delta * tau + np.log(_sp.k0e(z)) - z


# ---------------------------------------------------------------------------
# catalog registry: each family member calls its family's formula (see the
# module docstring); (1.12) is (1.7) at mu = nu because c_nu = sqrt(2/pi)
# on |nu| <= 1/2, so |Gamma(1 + i tau)|^2 = pi tau / sinh(pi tau) closes it

def _log_bound_via_117(params, x, tau):
    return _log_bound_family_17({"nu": params["nu"], "mu": 1.0}, x, tau) + np.log(x) - np.log(tau)


@dataclass(frozen=True)
class _CatalogEntry:
    label: str
    log_bound: callable  # (params, x, tau) -> log of the bound
    validity: str
    defaults: dict = field(default_factory=dict)  # parameter name -> default, in order
    admissible: callable = lambda **p: True  # whether the parameters lie in the domain
    domain_error: str = ""  # the ValueError message where they do not
    order_mu: callable = lambda **p: 0.0
    kernel_part: str = "abs"


# the gamma factor Gamma((nu - 3/2)/2) of (1.15) and (1.17) has a pole at
# nu = 3/2; a fixed margin keeps the bound clear of it
_ABOVE_POLE, _ABOVE_POLE_ERROR = (lambda nu: nu >= 1.5 + 1e-3), "nu must be at least 3/2 + 1e-3"

_CATALOG = {
    "LEBEDEV_15": _CatalogEntry("1.5", _log_bound_lebedev_15, "x > 0, tau > 0"),
    "FAMILY_17": _CatalogEntry(
        "1.7", _log_bound_family_17,
        "x > 0, tau > 0; nu >= -1/2, mu < (nu + 1/2)/2; bounds |K_{mu + i tau}|",
        {"nu": 0.3, "mu": 0.1}, lambda nu, mu: nu >= -0.5 and mu < 0.5 * (nu + 0.5),
        "nu must be >= -1/2 (the constant c_nu is not defined below) and mu < (nu + 1/2)/2",
        order_mu=lambda nu, mu: mu,
    ),
    "HALF_RANGE_18": _CatalogEntry(
        "1.8", _log_bound_half_range_18, "x > 0, tau > 0; -1/2 < nu <= 1/2",
        {"nu": 0.25}, lambda nu: -0.5 < nu <= 0.5, "nu must lie in (-1/2, 1/2]",
    ),
    "OLENKO_19": _CatalogEntry(
        "1.9", lambda p, x, tau: math.log(olenko_c(p["nu"])) + _log_bound_half_range_18(p, x, tau),
        "x > 0, tau > 0; nu > 0", {"nu": 1.0}, lambda nu: nu > 0.0, "nu must be positive",
    ),
    "MODIFIED_110": _CatalogEntry("1.10", _log_bound_modified_110, "x > 0, tau > 0"),
    "DELTA_111": _CatalogEntry(
        "1.11", lambda p, x, tau: _log_bound_half_range_18({"nu": p["delta"] - 0.5}, x, tau),
        "x > 0, tau > 0; 0 < delta < 1",
        {"delta": 0.5}, lambda delta: 0.0 < delta < 1.0, "delta must lie in (0, 1)",
    ),
    "MU_EQ_NU_112": _CatalogEntry(
        "1.12", lambda p, x, tau: _log_bound_family_17({"nu": p["nu"], "mu": p["nu"]}, x, tau),
        "x > 0, tau > 0; -1/2 <= nu < 1/2; bounds |K_{nu + i tau}|",
        {"nu": 0.25}, lambda nu: -0.5 <= nu < 0.5, "nu must lie in [-1/2, 1/2)",
        order_mu=lambda nu: nu,
    ),
    "LS_RE_113": _CatalogEntry(
        "1.13", lambda p, x, tau: _log_bound_modified_110(p, x, tau) - 0.5 * _LN2,
        "x > 0, tau > 0; bounds |Re K_{1/2 + i tau}|",
        order_mu=lambda: 0.5, kernel_part="real_abs",
    ),
    "LS_IM_114": _CatalogEntry(
        "1.14", lambda p, x, tau: _log_bound_modified_110(p, x, tau) - 0.5 * _LN2,
        "x > 0, tau > 0; bounds |Im K_{1/2 + i tau}|",
        order_mu=lambda: 0.5, kernel_part="imag_abs",
    ),
    "K1_115": _CatalogEntry(
        "1.15", lambda p, x, tau: _log_bound_family_17({"nu": p["nu"], "mu": 1.0}, x, tau),
        "x > 0, tau > 0; nu > 3/2; bounds |K_{1 + i tau}|",
        {"nu": 2.0}, _ABOVE_POLE, _ABOVE_POLE_ERROR, order_mu=lambda nu: 1.0,
    ),
    "VIA_116_117": _CatalogEntry(
        "1.17", _log_bound_via_117, "x > 0, tau > 0; nu > 3/2",
        {"nu": 2.0}, _ABOVE_POLE, _ABOVE_POLE_ERROR,
    ),
    "DELTA_118": _CatalogEntry(
        "1.18", lambda p, x, tau: _log_bound_via_117({"nu": 1.5 + p["delta"]}, x, tau),
        "x > 0, tau > 0; delta > 0",
        {"delta": 0.5}, lambda delta: delta > 0.0, "delta must be positive",
    ),
    "COMPOSITE_126": _CatalogEntry(
        "1.26", _log_bound_composite_126, "x > 0, tau > 0; delta > 0, M >= 1, N >= 1",
        {"delta": 1.0, "M": 1, "N": 1}, lambda delta, M, N: delta > 0.0, "delta must be positive",
    ),
    "ITER_128": _CatalogEntry("1.28", lambda p, x, tau: _log_bound_iter_130({"n": 2}, x, tau),
                              "x > 0, tau > 0"),
    "ITER_129": _CatalogEntry("1.29", lambda p, x, tau: _log_bound_iter_130({"n": 3}, x, tau),
                              "x > 0, tau > 0"),
    "ITER_130": _CatalogEntry("1.30", _log_bound_iter_130, "x > 0, tau > 0; n >= 1", {"n": 3}),
    "EXP_DECAY_315": _CatalogEntry(
        "3.15", _log_bound_exp_decay_315, "x > 0, tau > 0; 0 <= delta < pi/2",
        {"delta": math.pi / 6.0}, lambda delta: 0.0 <= delta < 0.5 * math.pi,
        "delta must lie in [0, pi/2)",
    ),
}


def catalog_ids():
    """All catalog identifiers, in catalog order."""
    return tuple(_CATALOG)


def make_descriptor(bound_id, **params):
    """Build a validated BoundDescriptor for one catalog entry.

    Unspecified parameters take the entry's defaults; unknown parameter
    names, values that are not finite and domain violations raise ValueError.
    """
    try:
        entry = _CATALOG[bound_id]
    except KeyError:
        raise ValueError(f"unknown catalog id {bound_id!r}") from None
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise ValueError(f"{bound_id} does not take parameters {sorted(unknown)}")
    merged = dict(entry.defaults)
    merged.update(params)
    if not all(math.isfinite(v) for v in merged.values()):
        raise ValueError(f"{bound_id} parameters must be finite, got {merged}")
    for name in [k for k in merged if k in ("M", "N", "n")]:  # counts of terms or iterations
        if merged[name] != int(merged[name]) or merged[name] < 1:
            raise ValueError(f"{name} must be a positive integer")
        merged[name] = int(merged[name])
    if not entry.admissible(**merged):
        raise ValueError(entry.domain_error)
    return BoundDescriptor(
        id=bound_id,
        params=tuple((name, merged[name]) for name in entry.defaults),
        order_mu=float(entry.order_mu(**merged)),
        kernel_part=entry.kernel_part,
        label=entry.label,
        validity=entry.validity,
    )


def all_default_descriptors():
    """Default descriptors for the whole catalog."""
    return tuple(make_descriptor(i) for i in catalog_ids())


def _bounds(d, x, tau):
    """The bound on arrays ``x``, ``tau`` by one formula call: inf where it
    overflows (everywhere if a parameter-only factor does), 0 where it underflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return np.exp(_CATALOG[d.id].log_bound(dict(d.params), x, tau))
        except OverflowError:
            return np.full(x.shape, math.inf)


def evaluate_bound(d, p):
    """The right-hand side of the printed inequality at one point.

    A one-point call of the array formulas `certify_bound` uses.  All
    gamma/sinh factors are assembled in log space and exponentiated once.
    Raises OverflowError where the bound overflows; 0.0 where it underflows.
    """
    bound = float(_bounds(d, np.array([p.x]), np.array([p.tau]))[0])
    if bound == math.inf:
        raise OverflowError(f"{d.id} at x={p.x!r}, tau={p.tau!r} overflows float range")
    return bound


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
    failed = np.isnan(values).tolist()
    return tuple(None if bad else complex(v) for v, bad in zip(values.tolist(), failed))


# the part of the kernel values each bound controls, by `kernel_part`
_PARTS = {"abs": np.abs, "real_abs": lambda v: np.abs(v.real), "imag_abs": lambda v: np.abs(v.imag)}


def certify_bound(d, grid, cfg=DEFAULT_CONFIG, kernel_values=None):
    """Certify |K| <= bound pointwise over a grid.

    One call of the entry's array formula gives the bound at every point.

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
        ``passed`` holds iff the worst ratio is <= 1 + RATIO_SLACK and no
        point is indeterminate.  A point is indeterminate, and excluded
        from the ratio, where its kernel evaluation failed its accuracy
        contract (None) or its bound leaves float range (underflows to 0 or
        overflows, at every point if a parameter-only factor does).
        ``ratios`` are Python floats in grid order, ``worst_point`` is the
        first point of the largest.  ``max_ratio`` and ``worst_point`` are
        None where every point is indeterminate.

    Raises `ValueError` for an empty grid, or ``kernel_values`` of another
    length than the grid.
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("the certification grid is empty")
    if kernel_values is None:
        kernel_values = kernel_grid_values(grid, d.order_mu, cfg)
    if len(kernel_values) != len(grid):
        raise ValueError(f"{len(kernel_values)} kernel values for a grid of {len(grid)} points")
    x = np.fromiter((p.x for p in grid), float, len(grid))
    tau = np.fromiter((p.tau for p in grid), float, len(grid))
    values = np.array(kernel_values, dtype=complex)  # None reads NaN
    bound = _bounds(d, x, tau)
    ok = ~np.isnan(values) & (bound > 0.0) & (bound < math.inf)
    ratios = _PARTS[d.kernel_part](values[ok]) / bound[ok]
    max_ratio = float(ratios.max()) if ratios.size else None
    indeterminate = tuple(grid[i] for i in np.flatnonzero(~ok))
    return BoundCertificate(
        descriptor=d,
        grid=grid,
        max_ratio=max_ratio,
        worst_point=None if max_ratio is None else grid[np.flatnonzero(ok)[np.argmax(ratios)]],
        passed=not indeterminate and max_ratio <= 1.0 + RATIO_SLACK,
        ratios=tuple(ratios.tolist()),
        indeterminate=indeterminate,
    )


# ---------------------------------------------------------------------------
# integral-representation verifiers

def _tail_by_averaging(f, start, period, count=64):
    """Sum an oscillatory tail by half-period panels plus repeated averaging."""
    edges = start + period * np.arange(count + 1)
    panels, _ = panel_sums(f, edges)
    value, _ = averaged_tail(panels)
    return value


def _head_and_tail(f, x, tau, cut, cfg):
    """The real part of int_0^inf f: panels along the phase 2xy + 2 tau asinh(y)
    up to ``cut``, then half periods pi/(2x) summed by `_tail_by_averaging`."""
    edges = phase_edges(lambda y: 2.0 * x * y + 2.0 * tau * np.arcsinh(y), 0.0, cut)
    head = float(np.real(integrate(f, edges, cfg)))
    return head + float(np.real(_tail_by_averaging(f, cut, 0.5 * math.pi / x)))


def _verify_eq_1_27(p, cfg):
    # squared kernel as an integral of the kernel at doubled index:
    # K^2_{i tau}(x) = 2 int_1^inf K_{2 i tau}(2 x y) / sqrt(y^2 - 1) dy,
    # smooth after y = cosh(w).
    x, tau = p.x, p.tau
    lhs = k_itau_oracle(p, cfg) ** 2
    w_max = math.acosh(1.0 + math.log(1.0 / TRUNCATION) / (2.0 * x)) + 1.0

    def f(w):
        return _checked_contour(2.0 * x * np.cosh(w), 2.0 * tau, 0.0, cfg)

    # 2 pi per panel of the phase, about 2 tau w where the kernel oscillates
    n_panels = max(8, int(tau * w_max / math.pi) + 4)
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

    integral = _head_and_tail(f, x, tau, max(40.0 / x, 30.0), cfg)
    rhs = math.pi * math.exp(-log_sinh(math.pi * tau)) * integral
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

    rhs = 1.0 - 2.0 * x * _head_and_tail(f, x, tau, 200.0 / x, cfg)
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
    # the integrand behaves like y^{2 nu + 1} at the origin: panels graded
    # geometrically toward it resolve that endpoint at the first level, where
    # uniform panels take six halvings
    graded = edges[1] * 0.5 ** np.arange(1, 64)
    edges = np.union1d(edges, graded[graded > edges[0]])
    head = complex(integrate(f, edges, cfg))
    # the Bessel argument is x*y, so half a period of the oscillation is pi/x
    tail = complex(_tail_by_averaging(f, y0, math.pi / x, count=96))
    prefactor = cmath.exp(_sp.loggamma(rho) + (rho - 1.0) * (_LN2 - math.log(x)))
    rhs = prefactor * (head + tail)
    return abs(lhs - rhs) / (abs(lhs) + 1e-300)


def _verify_index_raising(p, cfg):
    # tau K_{i tau}(x) = x Im K_{1+i tau}(x), the step from (1.15) to (1.17);
    # Re x K_{1+i tau}(x) = -x K'_{i tau}(x), which does not vanish where K
    # does, so near a zero of K the residual is read against that
    lhs = p.tau * k_itau_oracle(p, cfg)
    z = p.x * k_complex_order(OrderSpec(1.0, p.tau), p.x, cfg)
    return abs(lhs - z.imag) / (max(abs(lhs), abs(z.real)) + 1e-300)


# each representation's verifier, the parameters it takes and its domain,
# the x and tau ranges inside the contour's contract (0.01 <= x <= 100,
# tau <= 50) where its residual measures the identity: past them it
# measures cancellation (EQ_1_4 reads 6e11 at (30, 0.1), EQ_1_6 6e-4 at
# (30, 0.1), EQ_1_21 2e-4 at (0.01, 1e-6), EQ_1_27 1e-2 at (0.01, 50))
_REPRESENTATIONS = {
    "EQ_1_4": (_verify_eq_1_4, (), (0.01, 5.0), (0.0, 25.0)),
    "EQ_1_6": (_verify_eq_1_6, ("nu",), (0.01, 10.0), (0.0, 25.0)),
    "EQ_1_21": (_verify_eq_1_21, (), (0.01, 5.0), (0.1, 50.0)),
    "EQ_1_27": (_verify_eq_1_27, (), (0.01, 100.0), (0.0, 25.0)),
    "INDEX_RAISING": (_verify_index_raising, (), (0.01, 100.0), (0.0, 50.0)),
}


def verify_representation(rep_id, p, cfg=DEFAULT_CONFIG, **params):
    """Relative residual of one integral representation at one point.

    Both sides are evaluated by independent methods; the result is
    |LHS - RHS| / (|LHS| + tiny), where INDEX_RAISING (tau K_{i tau}(x) =
    x Im K_{1+i tau}(x)) takes max(|LHS|, |x Re K_{1+i tau}(x)|) for |LHS|.

    Parameters
    ----------
    rep_id : str
        One of EQ_1_4, EQ_1_6, EQ_1_21, EQ_1_27, INDEX_RAISING.
    p : EvaluationPoint
        Inside the representation's domain: 0.01 <= x <= 5 and tau <= 25
        for EQ_1_4, x <= 10 and tau <= 25 for EQ_1_6, x <= 5 and
        0.1 <= tau <= 50 for EQ_1_21, x <= 100 and tau <= 25 for EQ_1_27,
        x <= 100 and tau <= 50 for INDEX_RAISING.  A point outside it
        raises `ValueError` naming x or tau, before any evaluation.
    params : for EQ_1_6, the order ``nu`` of the J-transform (default 0.3);
        the others take none.  A parameter the representation does not
        take raises `ValueError` naming it.
    """
    try:
        verify, names, x_range, tau_range = _REPRESENTATIONS[rep_id]
    except KeyError:
        raise ValueError(
            f"unknown representation {rep_id!r}; choose from {tuple(_REPRESENTATIONS)}"
        ) from None
    unknown = set(params) - set(names)
    if unknown:
        raise ValueError(f"{rep_id} does not take parameters {sorted(unknown)}")
    for name, value, (lo, hi) in (("x", p.x, x_range), ("tau", p.tau, tau_range)):
        if not lo <= value <= hi:
            raise ValueError(f"{name} must be in [{lo:g}, {hi:g}] for {rep_id}, got {value!r}")
    return verify(p, cfg, **params)
