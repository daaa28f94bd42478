"""Evaluators for the Macdonald function of imaginary and complex order.

Three independent routes are provided for K_{i tau}(x): a rotated-contour
trapezoid oracle, a series-plus-remainder key formula (Gauss-Legendre panels
for the remainder), and the definitional series through I_{+-i tau}.  They
share no numerical machinery beyond the rule that accepts a refinement
level, so pairwise agreement is a genuine cross-check.  The oracle and the
complex-order evaluator are single points of one array evaluator,
`contour_values`, which the package's quadratures also call once per node
array; the definitional series is one array core returning the scaled
value K e^{pi tau/2} and its cancellation monitor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _sp

from .quadrature import AccuracyError, DEFAULT_CONFIG, integrate, phase_edges, refinement_verdict

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
    since the kernel itself underflows any fixed relative target.
    """
    return math.sqrt(2.0 * math.pi / tau) * math.exp(-0.5 * math.pi * tau)


# Every two-dimensional work array of the contour evaluator holds at most
# about _BLOCK elements (one row may exceed it): rows are taken in blocks.
_BLOCK = 1 << 15
_ANGLES = np.linspace(0.0, 0.5 * math.pi - 1e-4, 512)
_COS = np.cos(_ANGLES)
_STRIDE = 16  # the coarse scan takes every 16th grid angle
_COARSE = np.arange(0, _ANGLES.size, _STRIDE)


def _log_k0(x, j):
    """log K_0(x cos t), a row per x, at the grid angles t = _ANGLES[j]
    (j: one row shared by every x, or a row per x)."""
    c = x[:, None] * _COS[j]
    return np.log(_sp.k0e(c)) - c


def _first(mask, start):
    """Per row, start plus the first True column of mask; the grid size where none is."""
    return np.where(mask.any(axis=1), start + np.argmax(mask, axis=1), _ANGLES.size)


def _contour_angles(x, tau):
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
    per distinct x.  Returns ``(theta, rows)``: rows[i] is log K_0(x_i cos t)
    at the 32 coarse angles, which `_poisson_count` reuses.
    """
    theta = np.empty(x.shape)
    log_k0 = np.empty((x.size, _COARSE.size))
    order = np.argsort(x, kind="stable")
    near_k, cell_k = np.arange(2 * _STRIDE + 1), np.arange(_STRIDE)
    rows = _BLOCK // 64  # the widest pass takes 33 angles per point
    for i in range(0, x.size, rows):
        r = order[i:i + rows]
        xr, tr = x[r], tau[r, None]
        xs, which = np.unique(xr, return_inverse=True)
        log_k0[r] = _log_k0(xs, _COARSE)[which]
        coarse = log_k0[r] - tr * _ANGLES[_COARSE]
        near = np.clip(_STRIDE * np.argmin(coarse, axis=1) - _STRIDE, 0, _ANGLES.size - near_k.size)
        j = near[:, None] + near_k
        g_near = _log_k0(xr, j) - tr * _ANGLES[j]
        within = g_near.min(axis=1, keepdims=True) + 3.0
        cell = np.maximum(_STRIDE * np.argmax(coarse <= within, axis=1) - _STRIDE + 1, 0)
        j = cell[:, None] + cell_k
        g_cell = _log_k0(xr, j) - tr * _ANGLES[j]
        theta[r] = _ANGLES[np.minimum(_first(g_near <= within, near), _first(g_cell <= within, cell))]
    return theta, log_k0


def _cosh_cut(c, drift, budget):
    """Smallest u with c(cosh u - 1) - drift*u >= budget, per row, plus one safety unit."""
    u = np.arccosh(1.0 + budget / c)
    for _ in range(4):
        u = np.arccosh(1.0 + (budget + drift * u) / c)
    return u + 1.0


def _poisson_count(x, tau, theta, c, u_max, log_k0, mu, cfg):
    """Per row, the Poisson count of `contour_values` before rounding up;
    log_k0: the rows of `_contour_angles`, which serve at mu = 0."""
    t, log_k = _ANGLES[_COARSE[1:]], log_k0[:, 1:]
    if mu != 0.0:
        xs, which = np.unique(x, return_inverse=True)
        z = xs[:, None] * _COS[_COARSE[1:]]
        log_k = (np.log(_sp.k1e(z) if abs(mu) == 1.0 else _sp.kve(mu, z)) - z)[which]
    lead = c[:, None] + log_k + math.log(32.0 / cfg.abs_tol)
    ahead = t - theta[:, None]
    first = np.divide(lead, ahead, out=np.full(lead.shape, np.inf), where=ahead > 0.0)
    second = np.maximum(lead / (t + theta[:, None]), 0.0)
    omega = np.maximum(first.min(axis=1) - tau, second.min(axis=1) + tau)
    return omega * u_max / (2.0 * math.pi)


def _row_sums(f, rows, h, k, dtype):
    """Per row r, sums of f(r, h[r] k) and |f| over k; each row is reduced
    on its own, so its sums do not depend on its block."""
    total, mass = np.empty(rows.size, dtype), np.empty(rows.size)
    step = max(1, _BLOCK // k.size)
    for i in range(0, rows.size, step):
        vals = f(rows[i:i + step], h[i:i + step, None] * k)
        total[i:i + step], mass[i:i + step] = vals.sum(axis=1), np.abs(vals).sum(axis=1)
    return total, mass


def _trapezoid(f, width, n0, cfg, dtype):
    """Folded whole-line trapezoid rule for an even f, f(0) = 1, on [0, width[r]].

    Row r starts at n0[r] intervals (n0[r] = 0: value 0, error 0, no nodes);
    rows not yet accepted by `refinement_verdict` (roundoff scale h sum|f|)
    get midpoints added, at most ``max_refinements`` times.  Returns
    ``(value, err)``: NaN where refused or not converged, and each row's
    last error estimate.
    """
    value = np.where(n0 == 0, 0.0, np.nan).astype(dtype)
    err = np.where(n0 == 0, 0.0, np.inf)
    for n in np.unique(n0[n0 > 0]):
        rows = np.flatnonzero(n0 == n)
        h = width[rows] / n
        total, mass = _row_sums(f, rows, h, np.arange(1.0, n + 1.0), dtype)
        total, mass = h * (0.5 + total), h * (0.5 + mass)
        for _ in range(cfg.max_refinements):
            h = 0.5 * h
            mid, mid_mass = _row_sums(f, rows, h, np.arange(1.0, 2 * n, 2.0), dtype)
            cur, mass = 0.5 * total + h * mid, 0.5 * mass + h * mid_mass
            err[rows], accepted, refused = refinement_verdict(cur, total, mass, cfg)
            value[rows[accepted]] = cur[accepted]
            go = ~(accepted | refused)
            if not go.any():
                break
            rows, h, total, mass, n = rows[go], h[go], cur[go], mass[go], 2 * n
    return value, err


def contour_values(x, tau, mu=0.0, cfg=DEFAULT_CONFIG):
    """K_{mu + i tau}(x) at one real mu for arrays of x and tau (broadcast, flattened).

    Rotating K_nu(x) = int_0^inf e^{-x cosh u} cosh(nu u) du by a per-point
    angle theta (`_contour_angles`) gives, with c = x cos theta,
    s = x sin theta and phi(u) = tau u - s sinh u,

        K_{mu+i tau}(x) = e^{-c - tau theta + i mu theta}
            int_0^inf e^{-c (cosh u - 1)} cos(phi(u) - i mu u) du.

    The integrand F is entire, even and doubly-exponentially decaying, so
    the trapezoid rule converges geometrically and a halving reuses the old
    nodes.  A point starts at one node per period of the phase rate
    tau + s cosh(u_max) + |mu| at the cut u_max, in a power of two of at
    least 16 intervals (from 8, (x, tau) = (1, 1) needs a third halving).
    From 1024 intervals up it starts at the Poisson count if that is
    smaller (Trefethen and Weideman, SIAM Rev. 56 (2014), sections 3, 5):
    the folded rule of step h = u_max/n errs by sum_{m>=1} F^(2 pi m/h), and
    shifting u by -/+ i theta in the Fourier transform F^ gives

        |F^(w)| <= e^c [e^{(tau+w) theta} |K_{mu+i(tau+w)}(x)|
                        + e^{(tau-w) theta} |K_{mu+i(w-tau)}(x)|].

    Bound (3.15), |K_{mu+i nu}(x)| <= e^{-|nu| t} K_mu(x cos t), 0 <= t < pi/2,
    puts the terms below abs_tol/32 once w >= L(t)/(t - theta) - tau for a
    coarse t > theta and w >= tau + max(0, L(t')/(t' + theta)) for a t' > 0,
    L(t) = c + log K_mu(x cos t) + log(32/abs_tol); n is the next power of
    two, at least 16, of w u_max/(2 pi).  Fewer nodes round the sum worse,
    about as 1/sqrt(n), and identities that divide by |K| near its zeros
    see that, so smaller starts stay.  `refinement_verdict` alone accepts a
    level.  Taking e^{-c} out keeps the integral near unit size, so no
    tolerance is met by an integral that has simply underflowed.  As
    |F(u)| <= e^{|mu| u} and the folded weights total below 2 u_max, a row
    with log(2 u_max) + |mu| u_max - c - tau theta below log 2^{-1075}, half
    the least subnormal, gets value 0 and error estimate 0 with no nodes:
    its value rounds to zero (never inside the contract, where tau <= 50).
    Accuracy is contracted for |mu| <= 3, tau <= 50, 0.01 <= x <= 100; x and
    tau must be finite and positive (else `ValueError`).  Returns
    ``(values, achieved)``: values (real when mu = 0), NaN where the
    accuracy contract was not met, and each integral's last error estimate.
    """
    x, tau = (a.ravel() for a in np.broadcast_arrays(np.asarray(x, float), np.asarray(tau, float)))
    valid = np.isfinite(x) & (x > 0.0) & np.isfinite(tau) & (tau > 0.0)
    if not (np.all(valid) and math.isfinite(mu)):
        raise ValueError("x and tau must be finite and positive, and mu finite")
    theta, log_k0 = _contour_angles(x, tau)
    c, s = x * np.cos(theta), x * np.sin(theta)
    u_max = _cosh_cut(c, abs(mu), math.log(1.0 / cfg.truncation_threshold))
    need = u_max * (tau + s * np.cosh(u_max) + abs(mu)) / (2.0 * math.pi)
    big = np.flatnonzero(need > 512.0)  # phase-rate starts of 1024 intervals and up
    if big.size:
        args = (a[big] for a in (x, tau, theta, c, u_max, log_k0))
        need[big] = np.fmin(need[big], _poisson_count(*args, mu=mu, cfg=cfg))
    n0 = 2 ** np.ceil(np.log2(np.maximum(16.0, need))).astype(int)
    n0[np.log(2.0 * u_max) + abs(mu) * u_max - c - tau * theta < -1075.0 * math.log(2.0)] = 0

    def f(r, u):
        phi = tau[r, None] * u - s[r, None] * np.sinh(u)
        if mu != 0.0:
            # cos(phi - i mu u) = cosh(mu u) cos phi + i sinh(mu u) sin phi
            phi = phi - 1j * mu * u
        return np.exp(-c[r, None] * (np.cosh(u) - 1.0)) * np.cos(phi)

    integral, achieved = _trapezoid(f, u_max, n0, cfg, float if mu == 0.0 else complex)
    phase = 1j * mu * theta if mu != 0.0 else 0.0
    return np.exp(-c - tau * theta + phase) * integral, achieved


def _checked_contour(x, tau, mu, cfg):
    """`contour_values` without its error estimates, raising `AccuracyError`
    (``achieved``: the worst failed estimate) if any value missed the tolerance."""
    values, achieved = contour_values(x, tau, mu, cfg)
    failed = np.isnan(values)
    if failed.any():
        raise AccuracyError("contour quadrature did not meet its tolerance",
                            achieved=float(np.max(achieved[failed])))
    return values


def k_itau_oracle(p, cfg=DEFAULT_CONFIG):
    """K_{i tau}(x) at an `EvaluationPoint`: one point of `contour_values` at mu = 0.

    Raises `AccuracyError` if the trapezoid refinement misses the tolerance.
    """
    return float(_checked_contour(p.x, p.tau, 0.0, cfg)[0])


def k_complex_order(o, x, cfg=DEFAULT_CONFIG):
    """K_{mu + i tau}(x) for an `OrderSpec`: one point of `contour_values`.

    Contracted for |mu| <= 3, tau <= 50, 0.01 <= x <= 100.  Raises
    `AccuracyError` if the trapezoid refinement misses the tolerance.
    """
    return complex(_checked_contour(x, o.tau, o.mu, cfg)[0])


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


def _bracket_series(x, tau):
    """1 + S_inf = sum_{k>=0} (x/2)^{2k} / (k! (1 - i tau)_k), for one x and a tau array.

    The key-formula bracket 1 + S_N + T_N at every N, and equal to
    Gamma(1 - i tau) (x/2)^{i tau} I_{-i tau}(x).  Its factor in the kernel
    has modulus about the natural scale, so its absolute error is quoted
    against that scale.  Returns ``(bracket, monitor)``: the monitor is
    machine epsilon times sum_k |term_k|, infinite where 400 terms did not
    converge.
    """
    tau = np.asarray(tau, dtype=float)
    itau = 1j * tau
    q = 0.25 * x * x
    term = np.ones(tau.shape, dtype=complex)
    total = term.copy()
    mass = np.ones(tau.shape)
    for k in range(1, 401):
        term *= q / (k * (k - itau))
        total += term
        mag = np.abs(term)
        mass += mag
        converged = mag <= 1e-18 * mass
        if np.all(converged):
            break
    return total, np.where(converged, _EPS * mass, np.inf)


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

    The panel sums' roundoff floor is about 8 eps (2/pi) int E, with
    E(v) = e^{-(2N+2) v} G(x^2 (1 - e^{-2v})) the envelope.  Where that
    floor, int E bounded below by e^{-(2N+2) b} G(x^2 (1 - e^{-2a})) on 32
    pieces [a, b] of [0, v_max], exceeds the tolerance 1000-fold, the
    integral cancels past recovery and `AccuracyError` is raised before any
    quadrature, ``achieved`` being that floor on the natural scale; the
    bound int E <= G(x^2)/(2N+2) skips the check where it cannot fire.
    Raises it too where `_entire_g` does or the integral fails.
    """
    from .special import pochhammer

    coeffs, scale, g_far = _entire_g(x * x, N)

    def g(v):
        """G(x^2 (1 - e^{-2v})) on an array v."""
        return _horner(coeffs, x * x * (1.0 - np.exp(-2.0 * v)) / scale)

    log_bound = (2 * N + 2) * math.log(x) - N * math.log(2.0) + math.log(g_far / (2 * N + 2))
    if log_bound - sum(math.log(math.hypot(k, tau)) for k in range(1, N + 1)) < math.log(_EPS):
        return 0j
    budget = math.log(1.0 / cfg.truncation_threshold)
    v_max = (budget + max(0.0, math.log(g_far))) / (2.0 * N + 2.0)
    prefactor = x ** (2 * N + 2) / (2.0 ** N * pochhammer(1.0 - 1j * tau, N))
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
        Truncation depth, 0 <= N <= 20.
    cfg : QuadratureConfig

    Raises
    ------
    AccuracyError
        If the remainder integral misses its tolerance, or the bracket's
        roundoff floor exceeds the budget; ``achieved`` carries the floor
        relative to the natural scale.
    """
    if N < 0 or N != int(N) or N > 20:
        raise ValueError("N must be an integer in [0, 20]")
    N = int(N)
    x, tau = p.x, p.tau
    series = _series_tail(x, tau, N)
    remainder = _remainder_integral(x, tau, N, cfg)
    prefactor = cmath.exp(_sp.loggamma(1j * tau) - 1j * tau * math.log(0.5 * x))
    floor = _EPS * _gamma_over_scale(tau) * (1.0 + abs(series) + abs(remainder))
    if floor > _KEYFORMULA_BUDGET:
        raise AccuracyError("key formula cancels below its roundoff floor", achieved=floor)
    return (prefactor * (1.0 + series + remainder)).real


def _smallx_values(x, tau):
    """Three key-formula series terms, no remainder, for an array x <= 0.05 and one tau."""
    prefactor = np.exp(_sp.loggamma(1j * tau) - 1j * tau * np.log(0.5 * x))
    return (prefactor * (1.0 + _series_tail(x, tau, 3))).real


def k_itau_smallx(p):
    """Truncated key-formula series, no remainder integral; for x <= 0.05 only.

    Three series terms leave a relative error below 1e-12 on its domain,
    which makes it the cheap kernel route inside Mellin-transform quadratures
    whose log-spaced nodes reach arbitrarily small x.  A one-point call of
    the array core `_smallx_values`, which those quadratures call on whole
    node arrays.
    """
    if p.x > 0.05:
        raise ValueError("small-x series is only contracted for x <= 0.05")
    return float(_smallx_values(np.array([p.x]), p.tau)[0])


def _defseries_scaled(x, tau):
    """K_{i tau}(x) e^{pi tau/2} from the definitional series, for one x and a tau array.

    Sums e^{-pi tau/2} I_{i tau}(x), with
    I_{i tau}(x) = (x/2)^{i tau} sum_k (x/2)^{2k} / (k! Gamma(k+1+i tau))
    and the e^{-pi tau/2} folded into the first term, and assembles

        K_{i tau}(x) e^{pi tau/2} = -2 pi Im[e^{-pi tau/2} I_{i tau}(x)] / (1 - e^{-2 pi tau}),

    the scaled form of -pi Im I_{i tau}(x) / sinh(pi tau), in which no
    factor overflows however large tau is.

    Returns
    -------
    (scaled, monitor) : arrays shaped like ``tau``
        ``monitor`` is machine epsilon times sum_k (k+1) |term_k| (term k
        carries the rounding of k recurrence steps), propagated through the
        same factors and quoted relative to the scaled natural scale
        sqrt(2 pi / tau).  Summation stops once every node has converged or
        lost all its digits (monitor >= 1); a node whose series did not
        converge gets an infinite monitor.
    """
    tau = np.asarray(tau, dtype=float)
    itau = 1j * tau
    term = np.exp(-_sp.loggamma(1.0 + itau) - 0.5 * math.pi * tau)
    total = term.copy()
    weighted = np.abs(term)
    # monitor = gain * weighted, with 2 pi / sqrt(2 pi / tau) = sqrt(2 pi tau)
    one_minus = -np.expm1(-2.0 * math.pi * tau)
    gain = _EPS * np.sqrt(2.0 * math.pi * tau) / one_minus
    lost = 1.0 / gain
    q = 0.25 * x * x
    converged = np.zeros(tau.shape, dtype=bool)
    for k in range(1, 401):
        term *= q / (k * (k + itau))
        total += term
        mag = np.abs(term)
        weighted += (k + 1) * mag
        converged = mag <= 1e-18 * weighted
        if np.all(converged | (weighted >= lost)):
            break
    phase = np.exp(itau * math.log(0.5 * x))
    scaled = -2.0 * math.pi * (phase * total).imag / one_minus
    monitor = np.where(converged, gain * weighted, np.inf)
    return scaled, monitor


def k_itau_defseries(p):
    """K_{i tau}(x) from the definitional series through I_{+-i tau}.

    Sums I_{i tau}(x) = (x/2)^{i tau} sum_k (x/2)^{2k} / (k! Gamma(k+1+i tau))
    in complex arithmetic and assembles

        K_{i tau}(x) = -pi Im I_{i tau}(x) / sinh(pi tau),

    in the scaled form of `_defseries_scaled`, the one implementation of
    the series.  The assembly divides a cancellation-prone imaginary part
    by sinh(pi tau), so the running cancellation monitor of that core
    guards the result; the contracted domain x <= 10, tau <= 10 keeps it
    far below budget.

    Raises
    ------
    AccuracyError
        If the cancellation monitor exceeds the accuracy budget.
    """
    x, tau = p.x, p.tau
    if x > 10.0 or tau > 10.0:
        raise ValueError("definitional series is contracted for x <= 10, tau <= 10")
    scaled, monitor = _defseries_scaled(x, np.array([tau]))
    if not monitor[0] <= _DEFSERIES_BUDGET:
        raise AccuracyError(
            "definitional series lost too many digits to cancellation",
            achieved=float(monitor[0]),
        )
    return float(scaled[0]) * math.exp(-0.5 * math.pi * tau)
