"""Regularized Kontorovich-Lebedev integrals and their weak limits.

The object of study is

    f_eps(x, a) = int_0^inf e^{-eps tau^2} [ psi1(tau) cosh((pi/2+a) tau)
                  + psi2(tau) tau sinh((pi/2+a) tau) ] K_{i tau}(x) dtau,

which diverges at eps = 0 for a > 0 and is summed in the Abel sense
against Mellin test functions e^{-x} x^{s-1}.  Pointwise, `f_epsilon`
integrates whole node arrays: each node takes the kernel from the
definitional series where its cancellation check passes, from one contour
evaluator call for the nodes it rejects, and at large tau from the
large-order identity with the key-formula bracket summed as a convergent
series, each route checked per node.
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

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .asymptotic import stirling_r_gamma
from .kernel import _bracket_series, _checked_contour, _defseries_scaled, _smallx_values
from .quadrature import AccuracyError, DEFAULT_CONFIG, integrate, panel_sums, phase_edges
from .special import complex_log_gamma

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
    "report_to_json",
]

DEFAULT_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)

_LN2 = math.log(2.0)
_DERIV_CAP = 60


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
        out = np.zeros_like(tau)
        t2 = tau * tau
        for c in reversed(self.even_coeffs):
            out = out * t2 + c
        return out

    def abs_envelope(self, tau):
        """Scalar bound sum |c_{2n}| tau^{2n}, for truncation estimates."""
        out = 0.0
        t2 = tau * tau
        for c in reversed(self.even_coeffs):
            out = out * t2 + abs(c)
        return out


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
    if not s > 0.0:
        raise ValueError("s must be positive")
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


def _log_sinh_arr(y):
    return y - _LN2 + np.log1p(-np.exp(-2.0 * y))


def _psi_growth(psi1, psi2, tau):
    return math.log1p(psi1.abs_envelope(tau) + tau * psi2.abs_envelope(tau))


def _tau_cut(s, a, eps, psi1, psi2, budget):
    """Index past which e^{-eps tau^2 - (pi/2 - a) tau} kills the integrand."""
    decay = 0.5 * math.pi - a
    tau = 30.0
    for _ in range(4):
        need = budget + 15.0 + (s + 1.0) * math.log1p(tau) + _psi_growth(psi1, psi2, tau)
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
    growth for a < pi/2.
    Panels: 0.5 wide on [0, min(tmax, 8)] for the unit-scale structure of
    the gamma pair near 0, plus one per nat of the steepest decay rate
    2 eps tmax + pi/2 - a on [0, tmax], at least 24.
    """
    _check_sa(s, a)
    if eps < 0.0:
        raise ValueError("eps must be non-negative")
    if psi1.is_zero and psi2.is_zero:
        return 0.0
    c = 0.5 * math.pi + a
    use1 = not psi1.is_zero
    use2 = not psi2.is_zero

    def f(t):
        t = np.asarray(t, dtype=float)
        base = -eps * t * t + 2.0 * np.real(_sp.loggamma(s + 1j * t))
        out = np.zeros_like(t)
        if use1:
            out = out + psi1(t) * np.exp(base + _log_cosh_arr(c * t))
        if use2:
            out = out + psi2(t) * t * np.exp(base + _log_sinh_arr(c * t))
        return out

    tmax = _tau_cut(s, a, eps, psi1, psi2, -math.log(cfg.truncation_threshold))
    per_nat = max(24, int((2.0 * eps * tmax + 0.5 * math.pi - a) * tmax))
    edges = np.union1d(np.arange(0.0, min(tmax, 8.0), 0.5), np.linspace(0.0, tmax, per_nat + 1))
    value = integrate(f, edges, cfg)
    prefactor = 2.0 ** (-s) * math.sqrt(math.pi) / math.gamma(s + 0.5)
    return float(prefactor * value)


def _scaled_kernel(x, tau, cfg):
    """K_{i tau}(x) e^{pi tau/2} on an array of tau, for `f_epsilon`.

    Each node takes the first of these routes that meets ``cfg.rel_tol`` of
    the natural scale: the definitional series (`_defseries_scaled`) where
    its cancellation monitor allows; the contour evaluator up to
    tau = max(40, 2x); past that the exact large-order identity
    sqrt(2 pi/tau) Re[e^{i phi} (1 + r)(1 + S_inf)], with r the Stirling
    factor and the bracket 1 + S_inf summed in full (`_bracket_series`),
    where its roundoff monitor allows; the contour evaluator again up to
    tau = 400, where e^{-pi tau/2} is still clear of float64 underflow.
    Both contour routes are one `contour_values` call.  A node no route
    takes raises `AccuracyError` naming x and the worst tau, ``achieved``
    being the bracket's monitor there.
    """
    tau = np.asarray(tau, dtype=float)
    scaled, monitor = _defseries_scaled(x, tau)
    contour = ~(monitor <= cfg.rel_tol)
    far = np.flatnonzero(contour & (tau > max(40.0, 2.0 * x)))
    if far.size:
        t = tau[far]
        bracket, bracket_monitor = _bracket_series(x, t)
        ok = bracket_monitor <= cfg.rel_tol
        stuck = ~ok & (t > 400.0)
        if stuck.any():
            worst = np.argmax(np.where(stuck, bracket_monitor, -np.inf))
            raise AccuracyError(
                "f_epsilon: no kernel route meets the tolerance at "
                f"x={x:.17g}, tau={t[worst]:.17g}",
                achieved=float(bracket_monitor[worst]),
            )
        far, t = far[ok], t[ok]
        phi = t * np.log(2.0 * t / (math.e * x)) - 0.25 * math.pi
        amplitude = (1.0 + stirling_r_gamma(t)) * bracket[ok]
        scaled[far] = np.sqrt(2.0 * math.pi / t) * np.real(np.exp(1j * phi) * amplitude)
        contour[far] = False
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
    the definitional series where its cancellation check passes (every
    node at x <= 5), the contour evaluator for the rejected nodes up to
    tau = max(40, 2x), and past that the large-order identity with the
    key-formula bracket summed in full.  No node costs a quadrature of its
    own, and the whole range [0, tau_max] is one phase-resolved integral.

    Domain at a = 0: x up to 100 at eps = 1e-2 and 1e-3.  Where the
    Gaussian reaches past tau = 400 and the bracket's roundoff misses the
    tolerance (x = 200, eps = 1e-4), AccuracyError names x and tau.

    For a > 0 the value is what is left after cancellation.  The
    weight e^{-eps tau^2 + a tau} peaks near tau = a/(2 eps) at
    e^{a^2/(4 eps)}, while the oscillating integral stays of order one,
    so no error estimate falls below about 8 eps_mach e^{a^2/(4 eps)}:
    1e-5 at a = 0.3, eps = 1e-3 and 2.5e12 at a = 0.5, eps = 1e-3.  A
    tolerance below that floor raises AccuracyError; with the default
    tolerances a^2/(4 eps) must stay below about 10.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if q.psi1.is_zero and q.psi2.is_zero:
        return 0.0
    x, a = q.x, q.a
    c = 0.5 * math.pi + a
    use1 = not q.psi1.is_zero
    use2 = not q.psi2.is_zero

    def weight(t):
        base = -eps * t * t - 0.5 * math.pi * t
        out = np.zeros_like(t)
        if use1:
            out = out + q.psi1(t) * np.exp(base + _log_cosh_arr(c * t))
        if use2:
            out = out + q.psi2(t) * t * np.exp(base + _log_sinh_arr(c * t))
        return out

    def phase_fn(t):
        return t * np.log(2.0 * np.maximum(t, 1e-12) / (math.e * x))

    # envelope: e^{-eps tau^2 + a tau} times the bounded scaled kernel
    budget = -math.log(cfg.truncation_threshold) + 15.0
    tmax = 30.0
    for _ in range(4):
        need = budget + _psi_growth(q.psi1, q.psi2, tmax)
        tmax = (a + math.sqrt(a * a + 4.0 * eps * need)) / (2.0 * eps)

    def f(t):
        return weight(t) * _scaled_kernel(x, t, cfg)

    return float(integrate(f, phase_edges(phase_fn, 0.0, tmax), cfg))


# ---------------------------------------------------------------------------
# Mellin pairings and identities

def mellin_pair(g, s, cfg=DEFAULT_CONFIG):
    """int_0^inf e^{-x} g(x) x^{s-1} dx for an array-valued g.

    ``g`` is called once per node array, as `integrate` calls its
    integrand, and must return an array of the same shape or a scalar,
    which is broadcast.  Evaluated on the log axis x = e^w; the upper end
    marches outward in unit panels until a panel is negligible, so
    integrands whose decay rate e^{-(1-sin a)x} is much slower than e^{-x}
    are still covered.  Where g leaves float range (an OverflowError or a
    value that is not finite) the march ends.
    """
    if not s > 0.0:
        raise ValueError("s must be positive")
    budget = -math.log(cfg.truncation_threshold)

    def f(w):
        w = np.asarray(w, dtype=float)
        xs = np.exp(w)
        with np.errstate(over="ignore"):
            vals = np.asarray(g(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise OverflowError("g leaves float range")
        return vals * np.exp(s * w - xs)

    w_lo = (math.log(cfg.truncation_threshold) - 5.0) / s
    w_hi = math.log(budget + 5.0 * s) + 0.5
    n = max(8, int(math.ceil(w_hi - w_lo)))
    edges = list(np.linspace(w_lo, w_hi, n + 1))
    total = float(np.sum(panel_sums(f, np.array(edges))))
    for _ in range(100):
        try:
            panel = float(panel_sums(f, np.array(edges[-1:] + [edges[-1] + 1.0]))[0])
        except OverflowError:
            # g itself left float range; by the integrability contract the
            # true tail out there is negligible against e^{-x}
            break
        if abs(panel) <= cfg.truncation_threshold * (abs(total) + 1.0):
            break
        edges.append(edges[-1] + 1.0)
        total += panel
    return float(integrate(f, np.array(edges), cfg))


def _gamma_pair(s, tau):
    """Gamma(s + i tau) Gamma(s - i tau) = |Gamma(s + i tau)|^2 for real s."""
    return math.exp(2.0 * complex_log_gamma(complex(s, tau)).real)


def mellin_k_identity(s, tau, cfg=DEFAULT_CONFIG):
    """Relative residual of the kernel's Mellin transform identity.

    int_0^inf e^{-x} K_{i tau}(x) x^{s-1} dx
        = 2^{-s} sqrt(pi) Gamma(s+i tau) Gamma(s-i tau) / Gamma(s+1/2).

    The left side is quadrature over the log axis with panels sized to a
    quarter of the kernel's log-axis oscillation period; the right side
    is closed-form gamma arithmetic.  Each node array takes the kernel
    from two array calls: the small-x series at x <= 0.05 and
    `contour_values` above.
    """
    if not s > 0.0 or not tau > 0.0:
        raise ValueError("s and tau must be positive")

    def f(w):
        w = np.asarray(w, dtype=float)
        xs = np.exp(w)
        small = xs <= 0.05
        vals = np.empty(xs.shape)
        vals[small] = _smallx_values(xs[small], tau)
        vals[~small] = _checked_contour(xs[~small], tau, 0.0, cfg)
        return vals * np.exp(s * w - xs)

    budget = -math.log(cfg.truncation_threshold)
    w_lo = (math.log(cfg.truncation_threshold) - 5.0) / s
    w_hi = math.log(budget + 5.0 * s) + 0.5
    width = min(1.0, 0.5 * math.pi / (tau + 1.0))
    n = max(8, int(math.ceil((w_hi - w_lo) / width)))
    lhs = integrate(f, np.linspace(w_lo, w_hi, n + 1), cfg)
    rhs = 2.0 ** (-s) * math.sqrt(math.pi) * _gamma_pair(s, tau) / math.gamma(s + 0.5)
    return float(abs(lhs - rhs) / abs(rhs))


def gamma_product_identity(s, tau, cfg=DEFAULT_CONFIG):
    """Relative residual of the doubled-index moment identity.

    Gamma(s+i tau) Gamma(s-i tau) = 2^{2(1-s)} int_0^inf K_{2 i tau}(x)
    x^{2s-1} dx.  Near x = 0 the kernel is pure oscillation in log x
    with constant amplitude, so the integral below x = 0.01 is taken in
    closed form from the two leading small-x terms; the rest is
    phase-resolved quadrature, one `contour_values` call per node array.
    """
    if not s > 0.0 or not tau > 0.0:
        raise ValueError("s and tau must be positive")
    w_cut = math.log(0.01)
    c0 = np.exp(complex_log_gamma(2j * tau) + 2j * tau * _LN2)
    pole1 = complex(2.0 * s, -2.0 * tau)
    pole2 = complex(2.0 * s + 2.0, -2.0 * tau)
    analytic = (c0 * np.exp(pole1 * w_cut) / pole1).real
    analytic += (c0 / (4.0 * complex(1.0, -2.0 * tau)) * np.exp(pole2 * w_cut) / pole2).real

    def f(w):
        w = np.asarray(w, dtype=float)
        # libm's exp: numpy's differs in the last bit at a few percent of
        # nodes, which would move the residual by roundoff
        xs = np.fromiter(map(math.exp, w), float, w.size)
        return _checked_contour(xs, 2.0 * tau, 0.0, cfg) * np.exp(2.0 * s * w)

    budget = -math.log(cfg.truncation_threshold)
    w_hi = math.log(budget + 10.0 * s)
    width = min(0.5, math.pi / (4.0 * tau + 1.0))
    n = max(8, int(math.ceil((w_hi - w_cut) / width)))
    numeric = integrate(f, np.linspace(w_cut, w_hi, n + 1), cfg)
    lhs = _gamma_pair(s, tau)
    rhs = 2.0 ** (2.0 * (1.0 - s)) * (analytic + numeric)
    return float(abs(lhs - rhs) / abs(lhs))


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
    """Weak limit of f_eps with psi1 = 1, psi2 = 0: (pi/2) e^{x sin a}.

    Elementwise over an array x, as `mellin_pair` calls it; OverflowError
    if any value leaves float range.
    """
    if not np.all(np.asarray(x) > 0.0):
        raise ValueError("x must be positive")
    if not 0.0 <= a < 0.5 * math.pi:
        raise ValueError("a must lie in [0, pi/2)")
    with np.errstate(over="ignore"):
        return _finite(0.5 * math.pi * np.exp(x * math.sin(a)), "weak limit")


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


def report_to_json(report):
    """SummabilityReport as a JSON document."""
    q = report.query
    doc = {
        "x": q.x,
        "a": q.a,
        "s": q.mellin_s,
        "psi1_coeffs": list(q.psi1.even_coeffs),
        "psi1_type": q.psi1.exp_type,
        "psi2_coeffs": list(q.psi2.even_coeffs),
        "psi2_type": q.psi2.exp_type,
        "epsilon_schedule": list(q.epsilon_schedule),
        "pairing_values": list(report.pairing_values),
        "target": report.target,
        "errors": list(report.errors),
        "converged": report.converged,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
