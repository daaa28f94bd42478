"""Regularized Kontorovich-Lebedev integrals and their weak limits.

The object of study is

    f_eps(x, a) = int_0^inf e^{-eps tau^2} [ psi1(tau) cosh((pi/2+a) tau)
                  + psi2(tau) tau sinh((pi/2+a) tau) ] K_{i tau}(x) dtau,

which diverges at eps = 0 for a > 0 and is summed in the Abel sense
against Mellin test functions e^{-x} x^{s-1}.  Pointwise, `f_epsilon`
integrates whole node arrays: each node takes the kernel from the
definitional series where its roundoff check passes, which at large tau
is the large-order identity, and from one contour evaluator call for the
nodes it rejects, each route checked per node.
Pairings are computed on the tau side (a convergent gamma-weighted
integral equal to the pairing by Fubini), closed forms for the two base
tau-integrals give exact targets, and the limit operator acts through
a-derivatives of e^{x sin a} and, for its closed Mellin target, of
(1 - sin a)^{-s}.  Both are read off truncated Taylor series in the
shift h, built by the exp and power recurrences of power-series
arithmetic.  psi1 and psi2 are even entire functions of exponential
type, carried as finite Taylor data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .kernel import _checked_contour, _defseries_scaled, _defseries_values
from .quadrature import AccuracyError, DEFAULT_CONFIG, TRUNCATION, integrate, panel_sums, phase_edges
from .special import log_sinh

__all__ = [
    "DEFAULT_SCHEDULE",
    "EntireFunctionSpec",
    "SummabilityQuery",
    "SummabilityReport",
    "PSI_ONE",
    "PSI_ZERO",
    "cos_spec",
    "type_threshold",
    "f_epsilon",
    "mellin_pair",
    "tau_integral_rhs",
    "closed_cosh",
    "closed_sinh",
    "mellin_k_identity",
    "gamma_product_identity",
    "deriv_exp_xsina",
    "theorem2_limit",
    "theorem3_value",
    "theorem3_target",
    "theorem2_check",
    "theorem3_check",
]

DEFAULT_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)

_LN2 = math.log(2.0)
_LOG_MAX = math.log(np.finfo(float).max)
_DERIV_CAP = 60
_MELLIN_S_MIN = 0.0625  # below about 0.0623 mellin_pair's x axis starts at an underflowed 0


def type_threshold(a):
    """Largest admissible exponential type at tilt a: (1 - sin a)/(2e)."""
    return (1.0 - math.sin(a)) / (2.0 * math.e)


@dataclass(frozen=True)
class EntireFunctionSpec:
    """Even entire function of exponential type, as finite Taylor data.

    ``even_coeffs[n]`` is the coefficient of tau^(2n).  The declared
    ``exp_type`` must dominate the supplied coefficients through the
    Cauchy estimate |c_{2n}| < (e b / 2n)^{2n}, checked for every nonzero
    coefficient with 2n > n0 (n0 exempts a finite head, 0 by default).
    """

    even_coeffs: tuple
    exp_type: float
    n0: int = 0

    def __post_init__(self):
        object.__setattr__(self, "even_coeffs", tuple(float(c) for c in self.even_coeffs))
        if not self.exp_type >= 0.0:
            raise ValueError("exp_type must be non-negative")
        if self.n0 < 0:
            raise ValueError("n0 must be non-negative")
        for n, c in enumerate(self.even_coeffs):
            if n == 0 or 2 * n <= self.n0 or c == 0.0:
                continue
            if self.exp_type == 0.0:
                raise ValueError(
                    f"coefficient of tau^{2 * n} is nonzero but the declared type is 0"
                )
            # log form of |c| < (e b / 2n)^{2n}
            if math.log(abs(c)) >= 2 * n * (1.0 + math.log(self.exp_type) - math.log(2 * n)):
                raise ValueError(
                    f"coefficient of tau^{2 * n} violates the Cauchy estimate "
                    f"for type {self.exp_type}"
                )

    @property
    def is_zero(self):
        return all(c == 0.0 for c in self.even_coeffs)

    def __call__(self, tau):
        """Evaluate the (finite) even series; vectorized over tau."""
        tau = np.asarray(tau, dtype=float)
        return np.polyval(self.even_coeffs[::-1], tau * tau)

    def abs_envelope(self, tau):
        """Scalar bound sum |c_{2n}| tau^{2n}, for truncation estimates."""
        return float(np.polyval(np.abs(self.even_coeffs[::-1]), tau * tau))


PSI_ONE = EntireFunctionSpec((1.0,), 0.0)
PSI_ZERO = EntireFunctionSpec((), 0.0)


def cos_spec(b, terms=16):
    """cos(b tau) as an EntireFunctionSpec with the given number of terms."""
    if not b > 0.0:
        raise ValueError("b must be positive")
    coeffs = []
    c = 1.0
    for n in range(terms):
        coeffs.append(c)
        c *= -b * b / ((2 * n + 1) * (2 * n + 2))
    return EntireFunctionSpec(tuple(coeffs), b)


@dataclass(frozen=True)
class SummabilityQuery:
    """One summability experiment: point, tilt, test exponent, schedule."""

    x: float = 1.0
    a: float = 0.0
    psi1: EntireFunctionSpec = PSI_ONE
    psi2: EntireFunctionSpec = PSI_ZERO
    epsilon_schedule: tuple = DEFAULT_SCHEDULE
    mellin_s: float = 1.0

    def __post_init__(self):
        if not self.x > 0.0:
            raise ValueError("x must be positive")
        if not 0.0 <= self.a < 0.5 * math.pi:
            raise ValueError("a must lie in [0, pi/2)")
        cap = type_threshold(self.a)
        for name, spec in (("psi1", self.psi1), ("psi2", self.psi2)):
            if not spec.exp_type < cap:
                raise ValueError(
                    f"{name} has exponential type {spec.exp_type}, "
                    f"which is not below (1 - sin a)/(2e) = {cap}"
                )
        sched = tuple(float(e) for e in self.epsilon_schedule)
        if not sched or any(e <= 0.0 for e in sched):
            raise ValueError("epsilon schedule must be positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        object.__setattr__(self, "epsilon_schedule", sched)
        if not self.mellin_s > 0.0:
            raise ValueError("mellin_s must be positive")


@dataclass(frozen=True)
class SummabilityReport:
    """Pairing trace along the epsilon schedule against the closed target."""

    query: SummabilityQuery
    pairing_values: tuple
    target: float
    errors: tuple
    converged: bool


# ---------------------------------------------------------------------------
# closed forms

def _check_sa(s, a):
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be finite and positive, got {s!r}")
    if not 0.0 <= a < 0.5 * math.pi:
        raise ValueError("a must lie in [0, pi/2)")


def closed_cosh(s, a):
    """int_0^inf cosh((pi/2+a)tau) |Gamma(s+i tau)|^2 dtau in closed form:
    pi Gamma(2s) 2^{-2s} cos(pi/4 + a/2)^{-2s}."""
    _check_sa(s, a)
    return math.pi * math.gamma(2.0 * s) * (2.0 * math.cos(0.25 * math.pi + 0.5 * a)) ** (-2.0 * s)


def closed_sinh(s, a):
    """The tau sinh((pi/2+a)tau) analog: the a-derivative of closed_cosh.

    pi Gamma(2s+1) 2^{-2s-1} cos(pi/4 + a/2)^{-2s-1} sin(pi/4 + a/2);
    Gamma(2s+1) = 2s Gamma(2s) makes this exactly d/da closed_cosh.
    """
    _check_sa(s, a)
    half = 0.25 * math.pi + 0.5 * a
    return (
        math.pi
        * math.gamma(2.0 * s + 1.0)
        * (2.0 * math.cos(half)) ** (-2.0 * s - 1.0)
        * math.sin(half)
    )


# ---------------------------------------------------------------------------
# tau-side integrals

def _log_cosh_arr(y):
    return y - _LN2 + np.log1p(np.exp(-2.0 * y))


def _exp_in_range(logs, cap):
    """e^logs for an array; OverflowError where an element exceeds e^cap."""
    if np.max(logs) > cap:
        raise OverflowError("the tau integrand leaves float range")
    return np.exp(logs)


def _psi_growth(psi1, psi2, tau):
    return math.log1p(psi1.abs_envelope(tau) + tau * psi2.abs_envelope(tau))


def _kl_weight(psi1, psi2, a, t, base, exp):
    """e^base [psi1 cosh((pi/2+a)t) + psi2 t sinh((pi/2+a)t)] on an array t,
    each term one ``exp`` of base plus the log of its hyperbolic factor."""
    c = 0.5 * math.pi + a
    out = np.zeros_like(t)
    if not psi1.is_zero:
        out = out + psi1(t) * exp(base + _log_cosh_arr(c * t))
    if not psi2.is_zero:
        out = out + psi2(t) * t * exp(base + log_sinh(c * t))
    return out


def _tau_cut(decay, power, eps, psi1, psi2, budget):
    """Index past which e^{-eps tau^2 - decay tau} kills an integrand that
    grows like tau^power times the psi envelope."""
    tau = 30.0
    for _ in range(4):
        need = budget + 15.0 + power * math.log1p(tau) + _psi_growth(psi1, psi2, tau)
        if eps > 0.0:
            tau = (-decay + math.sqrt(decay * decay + 4.0 * eps * need)) / (2.0 * eps)
        else:
            tau = need / decay
    return tau


def tau_integral_rhs(s, a, eps, psi1, psi2, cfg=DEFAULT_CONFIG):
    """Gamma-weighted tau integral equal to the Mellin pairing of f_eps.

    2^{-s} sqrt(pi)/Gamma(s+1/2) * int_0^inf e^{-eps tau^2}
    [psi1 cosh((pi/2+a)tau) + psi2 tau sinh((pi/2+a)tau)]
    |Gamma(s+i tau)|^2 dtau.

    Each node is assembled in log space (cosh and the gamma pair both
    overflow float64 on their own well inside the domain); eps = 0 is
    allowed since the gamma decay e^{-pi tau} always wins over the cosh
    growth for a < pi/2.  The integrand itself, before the prefactor, grows
    like Gamma(s)^2: where it, times the span of tau, leaves float range
    (from s of about 92 at a = 0, 73 at a = 1.4), OverflowError is raised.
    Panels: 0.5 wide on [0, min(tmax, 8)] for the unit-scale structure of
    the gamma pair near 0, plus one per nat of the steepest decay rate
    2 eps tmax + pi/2 - a on [0, tmax], at least 24.
    """
    _check_sa(s, a)
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps!r}")
    if psi1.is_zero and psi2.is_zero:
        return 0.0

    def f(t):
        t = np.asarray(t, dtype=float)
        base = -eps * t * t + 2.0 * np.real(_sp.loggamma(s + 1j * t))
        return _kl_weight(psi1, psi2, a, t, base, lambda v: _exp_in_range(v, cap))

    tmax = _tau_cut(0.5 * math.pi - a, s + 1.0, eps, psi1, psi2, -math.log(TRUNCATION))
    cap = _LOG_MAX - math.log1p(tmax)  # so that the panel sums over [0, tmax] stay finite
    per_nat = max(24, int((2.0 * eps * tmax + 0.5 * math.pi - a) * tmax))
    edges = np.union1d(np.arange(0.0, min(tmax, 8.0), 0.5), np.linspace(0.0, tmax, per_nat + 1))
    value = integrate(f, edges, cfg)
    prefactor = 2.0 ** (-s) * math.sqrt(math.pi) / math.gamma(s + 0.5)
    return float(prefactor * value)


def _scaled_kernel(x, tau, cfg):
    """K_{i tau}(x) e^{pi tau/2} on an array of tau, for `f_epsilon`.

    Each node takes the definitional series (`_defseries_scaled`) where its
    roundoff monitor meets ``cfg.rel_tol`` of the natural scale, and the
    contour evaluator, one `contour_values` call for all the rest, up to
    tau = 400, where e^{-pi tau/2} is still clear of float64 underflow.
    Nodes past tau = max(40, 2x), where the series is the large-order
    identity, are read against its plain monitor eps sum |term_k|, all
    others against the weighted one.  A node past tau = 400 that the series
    does not take raises `AccuracyError` naming x and the worst tau,
    ``achieved`` being the plain monitor there.
    """
    tau = np.asarray(tau, dtype=float)
    scaled, monitor, plain = _defseries_scaled(x, tau)
    far = tau > max(40.0, 2.0 * x)
    contour = ~(np.where(far, plain, monitor) <= cfg.rel_tol)
    stuck = contour & far & (tau > 400.0)
    if stuck.any():
        worst = np.argmax(np.where(stuck, plain, -np.inf))
        raise AccuracyError(
            "f_epsilon: no kernel route meets the tolerance at "
            f"x={x:.17g}, tau={tau[worst]:.17g}",
            achieved=float(plain[worst]),
        )
    if contour.any():
        t = tau[contour]
        scaled[contour] = _checked_contour(x, t, 0.0, cfg) * np.exp(0.5 * math.pi * t)
    return scaled


def f_epsilon(q, eps, cfg=DEFAULT_CONFIG):
    """Pointwise regularized integral; diagnostic only for a > 0.

    The integrand oscillates through the kernel with phase
    tau log(2 tau/(e x)); panels follow the phase, the hyperbolic and
    Gaussian factors are assembled in log space against the kernel's
    e^{-pi tau/2} decay.

    The scaled kernel comes from `_scaled_kernel` on each whole node array:
    the definitional series where its roundoff check passes (every node at
    x <= 5, and past tau = max(40, 2x) the large-order identity it becomes
    there), and the contour evaluator for the rejected nodes.  No node
    costs a quadrature of its own, and the whole range [0, tau_max] is one
    phase-resolved integral.

    Domain at a = 0: x up to 100 at eps = 1e-2 and 1e-3, up to 130 at
    eps = 2e-4.  Where the Gaussian reaches past tau = 400 and the series'
    roundoff misses the tolerance (x = 200, eps = 1e-4), AccuracyError
    names x and tau.

    For a > 0 the value is what is left after cancellation.  The
    weight e^{-eps tau^2 + a tau} peaks near tau = a/(2 eps) at
    e^{a^2/(4 eps)}, while the oscillating integral stays of order one,
    so no error estimate falls below about 8 eps_mach e^{a^2/(4 eps)}:
    1e-5 at a = 0.3, eps = 1e-3 and 2.5e12 at a = 0.5, eps = 1e-3.  A
    tolerance below that floor raises AccuracyError (at the default
    tolerances a^2/(4 eps) must stay below about 10); where the floor
    exceeds abs_tol + rel_tol 1000-fold, it is raised before any quadrature,
    naming a and eps.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if q.psi1.is_zero and q.psi2.is_zero:
        return 0.0
    x, a = q.x, q.a
    log_floor = math.log(8.0 * np.finfo(float).eps) + max(a, 0.0) ** 2 / (4.0 * eps)
    if log_floor > math.log(1e3 * (cfg.abs_tol + cfg.rel_tol)):
        raise AccuracyError(f"f_epsilon: roundoff floor 8 eps_mach e^(a^2/(4 eps)) exceeds the tolerance "
                            f"1000-fold at a={a!r}, eps={eps!r}", achieved=math.exp(min(log_floor, _LOG_MAX)))
    # envelope: e^{-eps tau^2 + a tau} times the bounded scaled kernel
    tmax = _tau_cut(-a, 0.0, eps, q.psi1, q.psi2, -math.log(TRUNCATION))

    def f(t):
        base = -eps * t * t - 0.5 * math.pi * t
        return _kl_weight(q.psi1, q.psi2, a, t, base, np.exp) * _scaled_kernel(x, t, cfg)

    edges = phase_edges(lambda t: t * np.log(2.0 * np.maximum(t, 1e-12) / (math.e * x)), 0.0, tmax)
    return float(integrate(f, edges, cfg))


# ---------------------------------------------------------------------------
# Mellin pairings and identities

def mellin_pair(g, s, cfg=DEFAULT_CONFIG, width=1.0):
    """int_0^inf e^{-x} g(x) x^{s-1} dx for an array-valued g.

    ``g`` is called once per node array, as `integrate` calls its
    integrand, and must return an array of the same shape or a scalar,
    which is broadcast.  Evaluated on the log axis x = e^w, from
    w = (log(TRUNCATION) - 5)/s, where x^s is negligible (`TRUNCATION`
    = 1e-18), to w = log(log(1/TRUNCATION) + 5 s) + 1/2, where e^{-x} is,
    in panels at most ``width`` wide (at least 8 panels); an oscillating g
    needs a width of a fraction of its period in log x.  The upper end then
    marches outward in panels of that width until a panel is negligible
    against the sum of the panels before it, so integrands whose decay rate
    e^{-(1-sin a)x} is much slower than e^{-x} are still covered.  That sum
    is formed only if the first outward panel is not already below
    `TRUNCATION` alone, so an integrand that needs no march costs one panel
    more than its quadrature.  Where g leaves float range (an OverflowError
    or a value that is not finite) the march ends.  ``s`` must be finite and
    at least 1/16 (below about 0.0623 the axis starts at an x that underflows
    to 0), ``width`` finite and positive (else `ValueError`).
    """
    if not _MELLIN_S_MIN <= s < math.inf:
        raise ValueError(f"s must be at least 1/16 and finite, got {s!r}")
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must be finite and positive, got {width!r}")

    def f(w):
        w = np.asarray(w, dtype=float)
        xs = np.exp(w)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(g(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise OverflowError("g leaves float range")
        return vals * np.exp(s * w - xs)

    w_lo = (math.log(TRUNCATION) - 5.0) / s
    w_hi = math.log(-math.log(TRUNCATION) + 5.0 * s) + 0.5
    n = max(8, int(math.ceil((w_hi - w_lo) / width)))
    edges = list(np.linspace(w_lo, w_hi, n + 1))
    total = None
    for _ in range(100):
        try:
            panel = float(panel_sums(f, np.array(edges[-1:] + [edges[-1] + width]))[0][0])
        except OverflowError:
            # g itself left float range; by the integrability contract the
            # true tail out there is negligible against e^{-x}
            break
        if abs(panel) <= TRUNCATION:
            break
        if total is None:
            total = float(np.sum(panel_sums(f, np.array(edges))[0]))
        if abs(panel) <= TRUNCATION * (abs(total) + 1.0):
            break
        edges.append(edges[-1] + width)
        total += panel
    return float(integrate(f, np.array(edges), cfg))


def _gamma_pair(s, tau):
    """Gamma(s + i tau) Gamma(s - i tau) = |Gamma(s + i tau)|^2 for real s."""
    return math.exp(2.0 * _sp.loggamma(complex(s, tau)).real)


def _resolvable(closed, s, tau, cfg):
    """``closed``; AccuracyError where it is at most abs_tol, all that the
    quadrature of the other side of the identity promises."""
    if not abs(closed) > cfg.abs_tol:
        raise AccuracyError(f"the closed side {closed:.3g} at s={s!r}, tau={tau!r} is within "
                            f"the quadrature's abs_tol {cfg.abs_tol!r}")
    return closed


def _kernel_nodes(xs, tau, cfg):
    """K_{i tau} on a node array by two array calls: the definitional series
    at x <= 0.05, where it is exact to roundoff in a few terms, and
    `contour_values` above."""
    small = xs <= 0.05
    vals = np.empty(xs.shape)
    vals[small] = _defseries_values(xs[small], tau)
    vals[~small] = _checked_contour(xs[~small], tau, 0.0, cfg)
    return vals


def mellin_k_identity(s, tau, cfg=DEFAULT_CONFIG):
    """Relative residual of the kernel's Mellin transform identity.

    int_0^inf e^{-x} K_{i tau}(x) x^{s-1} dx
        = 2^{-s} sqrt(pi) Gamma(s+i tau) Gamma(s-i tau) / Gamma(s+1/2).

    The left side is `mellin_pair` of the kernel with panels a quarter of
    the kernel's log-axis oscillation period wide; the right side is
    closed-form gamma arithmetic.  Domain: s >= 1/16 and finite tau > 0
    (else `ValueError`) where the right side, falling like e^{-pi tau},
    exceeds ``cfg.abs_tol`` (else `AccuracyError`): tau <= 10 at s = 1.
    """
    # the domain first: out of it the closed side can fail or underflow
    if not (s >= _MELLIN_S_MIN and 0.0 < tau < math.inf):
        raise ValueError(f"s must be at least 1/16 and tau finite and positive, got {s!r}, {tau!r}")
    rhs = _resolvable(2.0 ** (-s) * math.sqrt(math.pi) * _gamma_pair(s, tau)
                      / math.gamma(s + 0.5), s, tau, cfg)
    lhs = mellin_pair(lambda xs: _kernel_nodes(xs, tau, cfg), s, cfg,
                      width=min(1.0, 0.5 * math.pi / (tau + 1.0)))
    return float(abs(lhs - rhs) / abs(rhs))


def gamma_product_identity(s, tau, cfg=DEFAULT_CONFIG):
    """Relative residual of the doubled-index moment identity.

    Gamma(s+i tau) Gamma(s-i tau) = 2^{2(1-s)} int_0^inf K_{2 i tau}(x)
    x^{2s-1} dx.  The integral is `mellin_pair` of e^x K_{2 i tau}(x) at
    2s, in panels a quarter of the doubled-index kernel's log-axis period
    wide.  Domain: s >= 1/32 and finite tau > 0 (else `ValueError`) where
    the gamma product exceeds ``cfg.abs_tol`` (else `AccuracyError`): tau
    <= 10 at s = 1.
    """
    if not (2.0 * s >= _MELLIN_S_MIN and 0.0 < tau < math.inf):
        raise ValueError(f"s must be at least 1/32 and tau finite and positive, got {s!r}, {tau!r}")
    lhs = _resolvable(_gamma_pair(s, tau), s, tau, cfg)

    def g(xs):
        # e^x in halves: K has underflowed where e^x alone overflows
        half = np.exp(0.5 * xs)
        return _kernel_nodes(xs, 2.0 * tau, cfg) * half * half

    integral = mellin_pair(g, 2.0 * s, cfg, width=min(1.0, 0.5 * math.pi / (2.0 * tau + 1.0)))
    return float(abs(lhs - 2.0 ** (2.0 * (1.0 - s)) * integral) / abs(lhs))


# ---------------------------------------------------------------------------
# a-derivatives by truncated Taylor arithmetic in the shift h

def _finite(value, what):
    """``value`` itself (a float if it is a scalar); OverflowError where any
    element has left float range."""
    if not np.all(np.isfinite(value)):
        raise OverflowError(f"{what} leaves float range")
    return value if np.ndim(value) else float(value)


def _check_order(n):
    if not 0 <= n <= _DERIV_CAP:
        raise ValueError(f"derivative order must lie in [0, {_DERIV_CAP}], got {n}")


def _sin_series(a, m):
    """Taylor coefficients of sin(a + h) in h through h^m."""
    cycle = (math.sin(a), math.cos(a), -math.sin(a), -math.cos(a))
    return [cycle[k % 4] / math.factorial(k) for k in range(m + 1)]


def _exp_xsin_series(x, a, m):
    """Taylor coefficients of e^{x sin(a+h)} / e^{x sin a} through h^m,
    elementwise over an array x.

    The exp-of-series recurrence E_k = (1/k) sum_{j=1..k} j g_j E_{k-j}
    with g = x sin(a+h) (Knuth, TAOCP Vol. 2, 4.7).
    """
    g = _sin_series(a, m)
    e = [1.0]
    for k in range(1, m + 1):
        e.append(x * sum(j * g[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


def _power_series(s, a, m):
    """Taylor coefficients of (1 - sin(a+h))^{-s} / (1 - sin a)^{-s} through h^m.

    J.C.P. Miller's power recurrence P_k = 1/(k u_0) sum_{j=1..k}
    ((1-s) j - k) u_j P_{k-j} with u = 1 - sin(a+h), so u_j = -g_j.
    """
    g = _sin_series(a, m)
    u0 = 1.0 - g[0]
    p = [1.0]
    for k in range(1, m + 1):
        p.append(sum((k - (1.0 - s) * j) * g[j] * p[k - j] for j in range(1, k + 1)) / (k * u0))
    return p


def _apply_operator(psi1, psi2, series):
    """[sum_n c_{2n,1} D^{2n} + sum_n c_{2n,2} D^{2n+1}] of a function whose
    Taylor coefficients through h^m are ``series(m)``; D^m = m! [h^m]."""
    terms = [(2 * n, c) for n, c in enumerate(psi1.even_coeffs) if c != 0.0]
    terms += [(2 * n + 1, c) for n, c in enumerate(psi2.even_coeffs) if c != 0.0]
    m = max((k for k, _ in terms), default=0)
    _check_order(m)
    coeffs = series(m)
    return sum(c * math.factorial(k) * coeffs[k] for k, c in terms)


def deriv_exp_xsina(n, x, a):
    """n-th a-derivative of e^{x sin a}, for orders n in [0, 60].

    n! times the h^n Taylor coefficient of e^{x sin(a+h)}; raises
    OverflowError where e^{x sin a} or the derivative leaves float range.
    """
    _check_order(n)
    value = math.factorial(n) * _exp_xsin_series(x, a, n)[n] * math.exp(x * math.sin(a))
    return _finite(value, "derivative of e^{x sin a}")


def theorem2_limit(x, a):
    """Weak limit of f_eps with psi1 = 1, psi2 = 0: (pi/2) e^{x sin a}, as
    `theorem3_value` gives it (elementwise over an array x)."""
    return theorem3_value(x, a, PSI_ONE, PSI_ZERO)


def _check_types(a, psi1, psi2):
    cap = type_threshold(a)
    if not (psi1.exp_type < cap and psi2.exp_type < cap):
        raise ValueError(f"exponential types must be below (1 - sin a)/(2e) = {cap}")


def theorem3_value(x, a, psi1, psi2):
    """Operator form of the limit: psi1 and psi2 acting through a-derivatives.

    (pi/2) [ sum_n c_{2n,1} D^{2n} + sum_n c_{2n,2} D^{2n+1} ] e^{x sin a},
    D = d/da, summed over the supplied coefficients (orders up to 60).
    ``x`` is a positive number or an array of them (elementwise, so
    `mellin_pair` makes one call per node array).  ValueError if any x is
    not positive, OverflowError if any value leaves float range.
    """
    if not np.all(np.asarray(x) > 0.0):
        raise ValueError("x must be positive")
    if not 0.0 <= a < 0.5 * math.pi:
        raise ValueError("a must lie in [0, pi/2)")
    _check_types(a, psi1, psi2)
    # numpy signals overflow by a warning and inf; _finite turns it into OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _apply_operator(psi1, psi2, lambda m: _exp_xsin_series(x, a, m))
        value = 0.5 * math.pi * acc * np.exp(x * math.sin(a))
    return _finite(value, "operator limit")


def theorem3_target(s, a, psi1, psi2):
    """Mellin pairing of the operator limit, in closed form.

    (pi/2) Gamma(s) [ sum_n c_{2n,1} D^{2n} + sum_n c_{2n,2} D^{2n+1} ]
    (1 - sin a)^{-s}, the term-by-term a-derivatives of the base pairing
    (orders up to 60); OverflowError where the value leaves float range.
    """
    _check_sa(s, a)
    _check_types(a, psi1, psi2)
    acc = _apply_operator(psi1, psi2, lambda m: _power_series(s, a, m))
    value = 0.5 * math.pi * math.gamma(s) * acc * (1.0 - math.sin(a)) ** (-s)
    return _finite(value, "closed operator target")


def theorem3_check(q, cfg=DEFAULT_CONFIG):
    """Trace the pairing along the epsilon schedule against the closed target.

    Converged means the errors strictly decrease over the final three
    entries and the last one is within 1e-4 of the target in relative
    terms.
    """
    target = theorem3_target(q.mellin_s, q.a, q.psi1, q.psi2)
    pairings = tuple(
        tau_integral_rhs(q.mellin_s, q.a, e, q.psi1, q.psi2, cfg) for e in q.epsilon_schedule
    )
    errors = tuple(float(abs(p - target)) for p in pairings)
    tail_ok = len(errors) >= 3 and errors[-3] > errors[-2] > errors[-1]
    converged = bool(tail_ok and errors[-1] <= 1e-4 * abs(target))
    return SummabilityReport(
        query=q, pairing_values=pairings, target=target, errors=errors, converged=converged
    )


def theorem2_check(q, cfg=DEFAULT_CONFIG):
    """The psi1-constant special case of theorem3_check.

    Requires psi1 to carry a single constant coefficient and psi2 to
    vanish; the target closes to (pi/2) Gamma(s) c0 (1 - sin a)^{-s}.
    """
    if any(c != 0.0 for c in q.psi1.even_coeffs[1:]) or not q.psi2.is_zero:
        raise ValueError("theorem2_check requires constant psi1 and zero psi2")
    return theorem3_check(q, cfg)
