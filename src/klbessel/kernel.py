"""Evaluators for the Macdonald function of imaginary and complex order.

Three independent routes are provided for K_{i tau}(x): a rotated-contour
trapezoid oracle, a series-plus-remainder key formula (Gauss-Kronrod panels
for the remainder), and the definitional series through I_{+-i tau}.  They
share no numerical machinery beyond the roundoff floor a value is judged
against, so pairwise agreement is a genuine cross-check.  The oracle and the
complex-order evaluator are single points of one array evaluator,
`contour_values`, which the package's quadratures also call once per node
array.  The definitional series is one array core, `_defseries_scaled`,
broadcasting x against tau and returning the scaled value K e^{pi tau/2}
with its roundoff monitors; `k_itau_defseries`, the small-x route
`k_itau_smallx` and the summability quadratures (at large tau, where it
is the large-order identity, too) all take it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _sp

from .quadrature import (AccuracyError, DEFAULT_CONFIG, ROUNDOFF_FLOOR, TRUNCATION, integrate,
                         phase_edges)

__all__ = [
    "EvaluationPoint",
    "OrderSpec",
    "natural_scale",
    "contour_values",
    "k_itau_oracle",
    "k_complex_order",
    "k_itau_keyformula",
    "k_itau_smallx",
    "k_itau_defseries",
]

# Relative-accuracy budgets of the definitional series and the key formula,
# quoted against the natural magnitude scale; beyond them the evaluator
# refuses rather than returning cancellation noise.
_DEFSERIES_BUDGET = 1e-9
_KEYFORMULA_BUDGET = 1e-8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EvaluationPoint:
    """A positive argument and positive imaginary-order index."""

    x: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x > 0.0):
            raise ValueError("x must be finite and positive")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError("tau must be finite and positive")


@dataclass(frozen=True)
class OrderSpec:
    """Complex order mu + i tau with tau > 0."""

    mu: float
    tau: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError("tau must be finite and positive")


def natural_scale(tau):
    """The magnitude scale sqrt(2 pi / tau) e^{-pi tau / 2} of K_{i tau}.

    Accuracy statements for large tau are quoted relative to this scale,
    since the kernel itself underflows any fixed relative target.  ``tau``
    must be finite and positive (else `ValueError`).
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"natural_scale needs a finite positive tau, got {tau!r}")
    return math.sqrt(2.0 * math.pi / tau) * math.exp(-0.5 * math.pi * tau)


# Every two-dimensional work array of the contour evaluator holds at most
# about _BLOCK elements (one row may exceed it): rows are taken in blocks.
_BLOCK = 1 << 15
_ANGLES = np.linspace(0.0, 0.5 * math.pi - 1e-4, 512)
_COS = np.cos(_ANGLES)
_STRIDE = 16  # the coarse scan takes every 16th grid angle
_COARSE = np.arange(0, _ANGLES.size, _STRIDE)
_LATE = np.resize(np.arange(_COARSE[-1] + 1, _ANGLES.size), _COARSE.size - 1)  # past the last coarse
_MAX_NODES = 1 << 20  # a row whose Poisson count exceeds this is refused


def _log_k(x, j, mu=0.0):
    """log K_mu(x cos t), a row per x, at the grid angles t = _ANGLES[j]
    (j: one row shared by every x, or a row per x)."""
    z = x[:, None] * _COS[j]
    k = _sp.k0e(z) if mu == 0.0 else _sp.k1e(z) if abs(mu) == 1.0 else _sp.kve(abs(mu), z)
    return np.log(k) - z


def _first(mask, start):
    """Per row, start plus the first True column of mask; the grid size where none is."""
    return np.where(mask.any(axis=1), start + np.argmax(mask, axis=1), _ANGLES.size)


def _angle_search(x, tau):
    """Per point, the first of 512 grid angles t within 3 nats of the grid
    minimum of g(t) = -tau t + log K_0(x cos t), the integrand magnitude on
    the contour rotated by t.  Cancellation there is at most e^3 times
    algebraic factors; any angle gives an exact representation.

    g is convex: g'(t) = -tau + x sin t K_1/K_0(x cos t) increases with t.
    So the grid minimum lies within one coarse step of the minimum over
    every 16th angle, and the first angle within 3 nats lies in the
    16-angle cell that ends at the first coarse angle within 3 nats, or
    next to the minimum when no coarse angle is.  Three passes, of 32
    coarse angles, 33 angles around the coarse minimum and that cell's 16,
    find the angle of a scan of the whole grid at 81 `k0e` calls per point.
    Rows are taken in order of x, so a block evaluates the coarse pass once
    per distinct x.  Returns ``(theta, log_k0)``, log_k0 the coarse pass's
    log K_0(x cos t), a row per point, which `_node_count` reuses.
    """
    theta, log_k0 = np.empty(x.shape), np.empty((x.size, _COARSE.size))
    order = np.argsort(x, kind="stable")
    near_k, cell_k = np.arange(2 * _STRIDE + 1), np.arange(_STRIDE)
    rows = _BLOCK // 64  # the widest pass takes 33 angles per point
    for i in range(0, x.size, rows):
        r = order[i:i + rows]
        xr, tr = x[r], tau[r, None]
        xs, which = np.unique(xr, return_inverse=True)
        log_k0[r] = _log_k(xs, _COARSE)[which]
        coarse = log_k0[r] - tr * _ANGLES[_COARSE]
        near = np.clip(_STRIDE * np.argmin(coarse, axis=1) - _STRIDE, 0, _ANGLES.size - near_k.size)
        j = near[:, None] + near_k
        g_near = _log_k(xr, j) - tr * _ANGLES[j]
        within = g_near.min(axis=1, keepdims=True) + 3.0
        cell = np.maximum(_STRIDE * np.argmax(coarse <= within, axis=1) - _STRIDE + 1, 0)
        j = cell[:, None] + cell_k
        g_cell = _log_k(xr, j) - tr * _ANGLES[j]
        theta[r] = _ANGLES[np.minimum(_first(g_near <= within, near), _first(g_cell <= within, cell))]
    return theta, log_k0


# The last point set `_contour_angles` searched: ((x bytes, tau bytes), (angles, log_k0)).
_last_angles = (None, None)


def _contour_angles(x, tau):
    """`_angle_search` on raveled float64 arrays, with a one-entry memo.

    The angle memo: the orders of one grid share one search, as the
    certification grid's five orders do.  It holds one point set (280
    bytes a point with its key), is read once and replaced whole, so
    under threads a caller never pairs its key with another caller's
    search; the returned arrays are read-only.  Repeated one-point calls
    are served before they get here, by the point memo of `_contour_point`.
    Tests reset both memos before each test (``tests/conftest.py``).
    """
    global _last_angles
    key = (x.tobytes(), tau.tobytes())
    last_key, search = _last_angles
    if last_key != key:
        search = _angle_search(x, tau)
        for a in search:
            a.flags.writeable = False
        _last_angles = (key, search)
    return search


def _cosh_cut(c, drift, budget):
    """Smallest u with c(cosh u - 1) - drift*u >= budget, per row, plus one safety unit."""
    u = np.arccosh(1.0 + budget / c)
    for _ in range(4):
        u = np.arccosh(1.0 + (budget + drift * u) / c)
    return u + 1.0


def _node_count(x, tau, theta, c, u_max, mu, log_k0, log_target):
    """Per row, the Poisson count of `contour_values`, at least 16, rounded
    up to 8 steps per octave; inf above `_MAX_NODES` or unbounded."""
    if mu == 0.0:
        log_k = log_k0[:, 1:]
    else:
        xs, which = np.unique(x, return_inverse=True)
        log_k = _log_k(xs, _COARSE[1:], mu)[which]
    lead, t = log_k + (c - log_target)[:, None], _ANGLES[_COARSE[1:]]
    past = theta >= _ANGLES[_COARSE[-1]]
    if past.any():  # no coarse angle past theta: these rows take the grid angles past the last
        t = np.where(past[:, None], _ANGLES[_LATE], t)
        lead[past] = _log_k(x[past], _LATE, mu) + (c - log_target)[past, None]
    ahead = t - theta[:, None]
    first = np.divide(lead, ahead, out=np.full(lead.shape, np.inf), where=ahead > 0.0).min(axis=1)
    omega = np.maximum(first - tau, np.maximum((lead / (t + theta[:, None])).min(axis=1), 0.0) + tau)
    m, e = np.frexp(np.maximum(omega * u_max / (2.0 * math.pi), 16.0))
    n = np.ldexp(np.ceil(16.0 * m), e - 4)
    return np.where(n <= _MAX_NODES, n, np.inf)


def _row_sums(f, rows, h, k, dtype):
    """Per row r, sums of f(r, h[r] k) and |f| over k; each row is reduced
    on its own, so its sums do not depend on its block."""
    total, mass = np.empty(rows.size, dtype), np.empty(rows.size)
    step = max(1, _BLOCK // k.size)
    for i in range(0, rows.size, step):
        vals = f(rows[i:i + step], h[i:i + step, None] * k)
        total[i:i + step], mass[i:i + step] = vals.sum(axis=1), np.abs(vals).sum(axis=1)
    return total, mass


def _trapezoid(f, width, n, dtype):
    """Folded whole-line trapezoid rule for an even f, f(0) = 1, one level
    of n[r] intervals on [0, width[r]] per row r, the rows of one n summed
    together: ``(integral, 8 eps h sum|f|)``, (0, 0) where n[r] = 0 and
    NaNs where n[r] is inf."""
    integral = np.where(n == 0, 0.0, np.nan).astype(dtype)
    roundoff = np.where(n == 0, 0.0, np.nan)
    for m in np.unique(n[(n > 0) & np.isfinite(n)]):
        rows = np.flatnonzero(n == m)
        h = width[rows] / m
        total, mass = _row_sums(f, rows, h, np.arange(1.0, m + 1.0), dtype)
        integral[rows], roundoff[rows] = h * (0.5 + total), ROUNDOFF_FLOOR * h * (0.5 + mass)
    return integral, roundoff


def contour_values(x, tau, mu=0.0, cfg=DEFAULT_CONFIG):
    """K_{mu + i tau}(x) at one real mu for arrays of x and tau (broadcast, flattened).

    Rotating K_nu(x) = int_0^inf e^{-x cosh u} cosh(nu u) du by a per-point
    angle theta (`_contour_angles`) gives, with c = x cos theta,
    s = x sin theta and phi(u) = tau u - s sinh u,

        K_{mu+i tau}(x) = e^{-c - tau theta + i mu theta}
            int_0^inf e^{-c (cosh u - 1)} cos(phi(u) - i mu u) du.

    The angles depend on (x, tau) alone, and `_contour_angles` keeps the
    last point set's, so the orders of one grid share one search.  At
    mu != 0 the integrand is taken in real arithmetic, cos(phi - i mu u) =
    cos(phi) cosh(mu u) + i sin(phi) sinh(mu u), each part times the
    damping e^{-c (cosh u - 1)}; a negative mu gives the conjugate bit for bit.

    The integrand F is entire, even and doubly-exponentially decaying, and
    one trapezoid level of the Poisson count serves (Trefethen and Weideman,
    SIAM Rev. 56 (2014), sections 3, 5): the folded rule of step
    h = u_max/n errs by sum_{m>=1} F^(2 pi m/h), and shifting u by
    -/+ i theta in the Fourier transform F^ gives

        |F^(w)| <= e^c [e^{(tau+w) theta} |K_{mu+i(tau+w)}(x)|
                        + e^{(tau-w) theta} |K_{mu+i(w-tau)}(x)|].

    Bound (3.15), |K_{mu+i nu}(x)| <= e^{-|nu| t} K_mu(x cos t), 0 <= t < pi/2,
    puts the terms below a target T once w >= L(t)/(t - theta) - tau for a
    grid angle t > theta and w >= tau + max(0, L(t')/(t' + theta)) for a
    t' > 0, L(t) = c + log K_mu(x cos t) - log T (`_node_count`); the count
    is w u_max/(2 pi).  T = abs_tol/1000 / max(1, e^{-c - tau theta} /
    natural_scale(tau)) holds in the answer's units too.  A row is accepted
    where its bound, T + 8 eps h sum|F| + 2 eps (1 + c + tau theta)
    |integral| (the last term the rounding of the factor's argument), is
    within abs_tol + rel_tol |integral|; the bound times e^{-c - tau theta}
    is its ``achieved``.  A row with no count up to `_MAX_NODES` (2^20) is
    refused (from tau of about 1250).  The default 25x25 grid at the five
    catalog orders takes 390,994 nodes, and its values err by at most
    4.8e-13 of max(natural scale, |K|), each within its ``achieved``
    (`tools/contour_accuracy.py`).  Taking e^{-c} out keeps the integral
    near unit size, so no tolerance is met by an integral that has simply
    underflowed.  As |F(u)| <= e^{|mu| u} and the folded weights total below
    2 u_max, a row with log(2 u_max) + |mu| u_max - c - tau theta below
    log 2^{-1075}, half the least subnormal, gets 0 with no nodes (never
    inside the contract, where tau <= 50).  Accuracy is contracted for
    |mu| <= 3, tau <= 50, 0.01 <= x <= 100; x and tau must be finite and
    positive (else `ValueError`).  Returns ``(values, achieved)``: values
    (real when mu = 0), NaN where the accuracy contract was not met, and
    each value's error bound (inf where it has none).
    """
    x, tau = (a.ravel() for a in np.broadcast_arrays(np.asarray(x, float), np.asarray(tau, float)))
    valid = np.isfinite(x) & (x > 0.0) & np.isfinite(tau) & (tau > 0.0)
    if not (np.all(valid) and math.isfinite(mu)):
        raise ValueError("x and tau must be finite and positive, and mu finite")
    theta, log_k0 = _contour_angles(x, tau)
    c, s = x * np.cos(theta), x * np.sin(theta)
    u_max = _cosh_cut(c, abs(mu), math.log(1.0 / TRUNCATION))
    log_factor = -c - tau * theta
    excess = np.maximum(0.0, log_factor - 0.5 * np.log(2.0 * math.pi / tau) + 0.5 * math.pi * tau)
    log_target = math.log(1e-3 * cfg.abs_tol) - excess  # T, abs_tol/1000 in the answer's units too
    n = _node_count(x, tau, theta, c, u_max, mu, log_k0, log_target)
    n[np.log(2.0 * u_max) + abs(mu) * u_max + log_factor < -1075.0 * math.log(2.0)] = 0

    def f(r, u):
        phi = tau[r, None] * u - s[r, None] * np.sinh(u)
        damp = np.exp(-c[r, None] * (np.cosh(u) - 1.0))
        if mu == 0.0:
            return damp * np.cos(phi)
        # cos(phi - i mu u) = cosh(mu u) cos phi + i sinh(mu u) sin phi
        out = np.empty(u.shape, complex)
        out.real = damp * np.cosh(mu * u) * np.cos(phi)
        out.imag = damp * np.sinh(mu * u) * np.sin(phi)
        return out

    integral, roundoff = _trapezoid(f, u_max, n, float if mu == 0.0 else complex)
    # the aliasing target, the sum's roundoff and the rounding of c + tau theta
    bound = np.exp(log_target) + roundoff + 2.0 * _EPS * (1.0 - log_factor) * np.abs(integral)
    accepted = bound <= cfg.abs_tol + cfg.rel_tol * np.abs(integral)
    phase = 1j * mu * theta if mu != 0.0 else 0.0
    values = np.where(accepted, np.exp(log_factor + phase) * integral, np.nan)
    return values, np.where(np.isnan(bound), np.inf, bound * np.exp(log_factor))


def _checked_contour(x, tau, mu, cfg):
    """`contour_values` without its error bounds, raising `AccuracyError`
    (``achieved``: the worst failed bound) if any value missed the tolerance."""
    values, achieved = contour_values(x, tau, mu, cfg)
    failed = np.isnan(values)
    if failed.any():
        raise AccuracyError("contour quadrature did not meet its tolerance",
                            achieved=float(np.max(achieved[failed])))
    return values


@functools.lru_cache(maxsize=1024)
def _contour_point(x, tau, mu, cfg):
    """One point of `contour_values` as Python numbers, ``(value, achieved)``,
    behind the point memo: a one-point call repeated with the same x, tau,
    mu and cfg returns the number (NaN where refused) its first call
    computed.  The memo holds at most 1024 points of immutable numbers."""
    values, achieved = contour_values(x, tau, mu, cfg)
    return values[0].item(), achieved[0].item()


def _checked_point(x, tau, mu, cfg):
    """`_contour_point`'s value, raising `AccuracyError` as `_checked_contour` does."""
    value, achieved = _contour_point(x, tau, mu, cfg)
    if cmath.isnan(value):
        raise AccuracyError("contour quadrature did not meet its tolerance", achieved=achieved)
    return value


def k_itau_oracle(p, cfg=DEFAULT_CONFIG):
    """K_{i tau}(x) at an `EvaluationPoint`: one point of `contour_values` at mu = 0.

    A repeated point is read from the point memo of `_contour_point` (at
    most 1024 points), bit for bit the value its first call computed.
    Raises `AccuracyError` if the trapezoid misses the tolerance.
    """
    return float(_checked_point(float(p.x), float(p.tau), 0.0, cfg))


def k_complex_order(o, x, cfg=DEFAULT_CONFIG):
    """K_{mu + i tau}(x) for an `OrderSpec`: one point of `contour_values`,
    memoized as `k_itau_oracle` is.

    Contracted for |mu| <= 3, tau <= 50, 0.01 <= x <= 100; x must be a
    finite, positive scalar (else `ValueError`).  Raises `AccuracyError` if
    the trapezoid misses the tolerance.
    """
    if np.ndim(x) != 0 or not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"k_complex_order needs a finite positive scalar x, got {x!r}")
    return complex(_checked_point(float(x), float(o.tau), float(o.mu), cfg))


def _series_tail(x, tau, N):
    """sum_{m=1}^{N} (x/2)^{2m} / (m! (1 - i tau)_m), running-term recurrence;
    elementwise over an array x."""
    q = 0.25 * x * x
    itau = 1j * tau
    term = complex(1.0)
    total = complex(0.0)
    for m in range(1, N + 1):
        term *= q / (m * (m - itau))
        total += term
    return total


def _gamma_over_scale(tau):
    """|Gamma(i tau)| / natural_scale(tau), a ratio that underflows for no tau."""
    return 1.0 / math.sqrt(-math.expm1(-2.0 * math.pi * tau))


def _horner(coeffs, t):
    """`np.polyval`(coeffs, t) for an array t, in place: K steps of y *= t; y += c."""
    y = np.full(t.shape, coeffs[0])
    for c in coeffs[1:]:
        y *= t
        y += c
    return y


def _entire_g(w_max, N):
    """G(w) = I_{N+1}(sqrt w) / (sqrt w)^{N+1}, entire, on 0 <= w <= w_max, as
    ``(coeffs, scale, G(w_max))`` with G(w) = `_horner`(coeffs, w / scale).

    Series (DLMF 10.25.2): sum_k w^k / (4^k k! Gamma(k+N+2) 2^{N+1}), its
    k-th coefficient taken at the scale, the largest power of two up to
    w_max (so w / scale is exact and no coefficient that matters underflows).
    The terms are positive and term K over the sum of terms 0..K,
    1 / sum_{k<=K} (c_k / c_K) w^{k-K}, increases with w: the first K that
    meets the cut "term <= 1e-18 sum" at w_max meets it at every w <= w_max.

    Raises `AccuracyError` if the sum overflows at w_max or has not
    converged within 400 terms (both happen for sqrt(w_max) of a few hundred).
    """
    scale = 0.5 * math.ldexp(1.0, math.frexp(w_max)[1])
    coeffs = [math.ldexp(1.0 / math.factorial(N + 1), -(N + 1))]
    term = total = coeffs[0]
    for k in range(1, 400):
        coeffs.append(coeffs[-1] * scale / (4.0 * k * (k + N + 1)))
        term = term * w_max / (4.0 * k * (k + N + 1))
        total += term
        if term <= 1e-18 * total:
            # an overflowed sum stops the loop too (inf <= inf)
            if math.isfinite(total):
                return coeffs[::-1], scale, total
            break
    raise AccuracyError("entire-part series overflowed or did not terminate")


def _remainder_integral(x, tau, N, cfg):
    """The key-formula remainder after removing the oscillatory power x^{2 i tau}.

    Substituting y = x sin(psi), then v = -log cos(psi), turns

        x^{2 i tau} / (2^N (1-i tau)_N) *
            int_0^x (x^2 - y^2)^{N - i tau} I_{N+1}(y) y^{-N} dy

    into a smooth damped-oscillatory integral on (0, inf):

        x^{2N+2} / (2^N (1-i tau)_N) *
            int_0^inf e^{-(2N+2) v} e^{2 i tau v} G(x^2 (1 - e^{-2v})) dv,

    with G entire (see `_entire_g`).  The substitution removes both the
    endpoint derivative blow-up at y = x and the x^{2 i tau} phase.  The
    kernel needs the bracket 1 + S_N + T_N only to the key-formula budget
    of its natural scale, so that budget is the integral's absolute
    tolerance; rel_tol of |T_N| alone refuses integrals that cancel over
    their oscillation (N = 0 at x = 18, tau = 10).  G increases, so
    |T_N| <= |x^{2N+2} / (2^N (1-i tau)_N)| G(x^2) / (2N+2); below machine
    epsilon, the bracket's own rounding, T_N is 0 with no quadrature (its
    prefactor may underflow there).

    The rounding of the panel sums is about 8 eps (2/pi) int E, the
    roundoff floor of half-period panels, with E(v) = e^{-(2N+2) v}
    G(x^2 (1 - e^{-2v})) the envelope.  Where that floor, int E bounded
    below by e^{-(2N+2) b} G(x^2 (1 - e^{-2a})) on 32 pieces [a, b] of
    [0, v_max], exceeds the tolerance 1000-fold, the
    integral cancels past recovery and `AccuracyError` is raised before any
    quadrature, ``achieved`` being that floor on the natural scale; the
    bound int E <= G(x^2)/(2N+2) skips the check where it cannot fire.
    Raises it too where `_entire_g` does or the integral fails.
    """
    coeffs, scale, g_far = _entire_g(x * x, N)

    def g(v):
        """G(x^2 (1 - e^{-2v})) on an array v."""
        return _horner(coeffs, x * x * (1.0 - np.exp(-2.0 * v)) / scale)

    log_bound = (2 * N + 2) * math.log(x) - N * math.log(2.0) + math.log(g_far / (2 * N + 2))
    if log_bound - sum(math.log(math.hypot(k, tau)) for k in range(1, N + 1)) < math.log(_EPS):
        return 0j
    v_max = (math.log(1.0 / TRUNCATION) + max(0.0, math.log(g_far))) / (2.0 * N + 2.0)
    rising = math.prod((1 - 1j * tau + k for k in range(N)), start=complex(1.0))  # (1 - i tau)_N
    prefactor = x ** (2 * N + 2) / (2.0 ** N * rising)
    need = _KEYFORMULA_BUDGET / (_gamma_over_scale(tau) * abs(prefactor))
    floor = 16.0 / math.pi * _EPS  # per unit of int E
    if floor * g_far / (2 * N + 2) > 1e3 * need:
        a = np.linspace(0.0, v_max, 33)
        floor *= float(np.sum(np.diff(a) * np.exp(-(2.0 * N + 2.0) * a[1:]) * g(a[:-1])))
        if floor > 1e3 * need:
            raise AccuracyError("remainder integral cancels below its roundoff floor",
                                achieved=floor / need * _KEYFORMULA_BUDGET)
    edges = phase_edges(lambda v: 2.0 * tau * v, 0.0, v_max)
    integral = integrate(lambda v: np.exp((-(2.0 * N + 2.0) + 2j * tau) * v) * g(v),
                         edges, replace(cfg, abs_tol=need))
    return prefactor * complex(integral)


def _series_and_remainder(x, tau, N, cfg):
    """S_N and T_N of the key formula's bracket 1 + S_N + T_N.

    Read against the natural scale, the bracket carries a roundoff floor
    of eps |Gamma(i tau)| (1 + |S_N| + |T_N|) / natural_scale(tau); where
    that exceeds the cross-method budget 1e-8, `AccuracyError` is raised
    with the floor as ``achieved``, as it is by `_remainder_integral`.
    """
    series = _series_tail(x, tau, N)
    remainder = _remainder_integral(x, tau, N, cfg)
    floor = _EPS * _gamma_over_scale(tau) * (1.0 + abs(series) + abs(remainder))
    if floor > _KEYFORMULA_BUDGET:
        raise AccuracyError("key formula cancels below its roundoff floor", achieved=floor)
    return series, remainder


def _depth(N):
    """The truncation depth N as an int; ValueError unless an integer in [0, 20]."""
    if N not in range(21):
        raise ValueError("N must be an integer in [0, 20]")
    return int(N)


def k_itau_keyformula(p, N, cfg=DEFAULT_CONFIG):
    """K_{i tau}(x) from the series-plus-remainder key formula.

    Evaluates, entirely in complex arithmetic with the real part taken once,

        Re[ Gamma(i tau) (x/2)^{-i tau} (1 + S_N + T_N) ],

    where S_N is the length-N Pochhammer series and T_N the explicit
    remainder integral; the value is independent of the truncation depth N,
    which makes N-agreement a free self-test.

    The bracket grows like e^x while K_{i tau}(x) decays like e^{-x}, so
    the real part cancels: the result carries a roundoff floor of about
    eps |Gamma(i tau)| (1 + |S_N| + |T_N|).  Where that floor exceeds the
    cross-method budget 1e-8 natural_scale(tau) (from x of about 20 at
    tau = 1), `AccuracyError` is raised instead.

    Parameters
    ----------
    p : EvaluationPoint
    N : int
        Truncation depth, an integer in [0, 20].
    cfg : QuadratureConfig

    Raises
    ------
    AccuracyError
        If the remainder integral misses its tolerance, or the bracket's
        roundoff floor exceeds the budget; ``achieved`` carries the floor
        relative to the natural scale.
    """
    x, tau = p.x, p.tau
    series, remainder = _series_and_remainder(x, tau, _depth(N), cfg)
    prefactor = cmath.exp(_sp.loggamma(1j * tau) - 1j * tau * math.log(0.5 * x))
    return (prefactor * (1.0 + series + remainder)).real


def _defseries_scaled(x, tau):
    """K_{i tau}(x) e^{pi tau/2} from the definitional series, on arrays x and
    tau broadcast against each other.

    Sums e^{-pi tau/2} I_{i tau}(x), with
    I_{i tau}(x) = (x/2)^{i tau} sum_k (x/2)^{2k} / (k! Gamma(k+1+i tau))
    (DLMF 10.25.2) and the e^{-pi tau/2} folded into the first term, and
    assembles (DLMF 10.27)

        K_{i tau}(x) e^{pi tau/2} = -2 pi Im[e^{-pi tau/2} I_{i tau}(x)] / (1 - e^{-2 pi tau}),

    the scaled form of -pi Im I_{i tau}(x) / sinh(pi tau), in which no
    factor overflows however large tau is.  The sum is e^{-pi tau/2} /
    Gamma(1 + i tau) times the conjugate of the key formula's bracket
    1 + S_inf, so at large tau this is the large-order identity.  A node
    stops once it has converged or lost all its digits (monitor >= 1): its
    term becomes 0, so a batched value equals a one-point call bit for bit.

    Returns
    -------
    (scaled, monitor, plain) : arrays of the broadcast shape
        ``monitor`` is machine epsilon times sum_k (k+1) |term_k| (term k
        carries the rounding of k recurrence steps), ``plain`` machine
        epsilon times sum_k |term_k|, both propagated through the same
        factors and quoted relative to the scaled natural scale
        sqrt(2 pi / tau); infinite where the series lost all its digits or
        did not converge within 400 terms.
    """
    tau = np.asarray(tau, dtype=float)
    itau = 1j * tau
    lead = np.exp(-_sp.loggamma(1.0 + itau) - 0.5 * math.pi * tau)
    # monitor = gain * weighted, with 2 pi / sqrt(2 pi / tau) = sqrt(2 pi tau)
    one_minus = -np.expm1(-2.0 * math.pi * tau)
    gain = _EPS * np.sqrt(2.0 * math.pi * tau) / one_minus
    lost = 1.0 / gain
    x = np.asarray(x, dtype=float)
    q = 0.25 * x * x
    shape = np.broadcast_shapes(x.shape, tau.shape)
    term = np.broadcast_to(lead, shape).copy()
    total = term.copy()
    weighted = np.abs(term)
    plain = weighted.copy()
    for k in range(1, 401):
        # out of place and both factors named: numpy rounds an in-place
        # complex product on one element apart, and computes term * (a
        # temporary of 256 KiB or more) in the temporary, factors swapped
        step = q / (k * (k + itau))
        term = term * step
        total += term
        mag = np.abs(term)
        weighted += (k + 1) * mag
        plain += mag
        stopped = (mag <= 1e-18 * weighted) | (weighted >= lost)
        if stopped.all():
            break
        term[stopped] = 0.0
    phase = np.exp(itau * np.log(0.5 * x))
    scaled = -2.0 * math.pi * (phase * total).imag / one_minus
    gain = np.where(stopped & (weighted < lost), gain, np.inf)
    return scaled, gain * weighted, gain * plain


def _defseries_values(x, tau):
    """K_{i tau}(x) from `_defseries_scaled` on an array x at one tau;
    `AccuracyError` (the worst monitor) where the monitor exceeds budget."""
    scaled, monitor, _ = _defseries_scaled(x, np.array([tau]))
    if not np.all(monitor <= _DEFSERIES_BUDGET):
        raise AccuracyError("definitional series lost too many digits to cancellation",
                            achieved=float(np.max(monitor)))
    return scaled * math.exp(-0.5 * math.pi * tau)


def k_itau_smallx(p):
    """The definitional series on x <= 0.05, the route of Mellin quadratures
    whose log-spaced nodes reach arbitrarily small x; as `k_itau_defseries`,
    it raises `AccuracyError` where the cancellation monitor exceeds budget.
    """
    if p.x > 0.05:
        raise ValueError("small-x series is only contracted for x <= 0.05")
    return float(_defseries_values(np.array([p.x]), p.tau)[0])


def k_itau_defseries(p):
    """K_{i tau}(x) = -pi Im I_{i tau}(x) / sinh(pi tau) from the definitional
    series of I_{i tau}: a one-point call of `_defseries_scaled`.

    The imaginary part cancels, so the core's running monitor guards the
    result; the contracted domain x <= 10, tau <= 10 keeps it far below
    budget.  Raises `AccuracyError` if the monitor exceeds the budget.
    """
    if p.x > 10.0 or p.tau > 10.0:
        raise ValueError("definitional series is contracted for x <= 10, tau <= 10")
    return float(_defseries_values(np.array([p.x]), p.tau)[0])
