"""Evaluators for the Macdonald function of imaginary and complex order.

Three independent routes are provided for K_{i tau}(x): a rotated-contour
quadrature oracle, a series-plus-remainder key formula, and the definitional
series through I_{+-i tau}.  They share no numerical machinery beyond the
panel integrator, so pairwise agreement is a genuine cross-check.  A fourth
evaluator handles complex order mu + i tau.  The definitional series is
summed by one array core that returns the scaled value K e^{pi tau/2} and
its cancellation monitor for a whole array of orders at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .quadrature import AccuracyError, DEFAULT_CONFIG, integrate, phase_edges

__all__ = [
    "EvaluationPoint",
    "OrderSpec",
    "natural_scale",
    "k_itau_oracle",
    "k_complex_order",
    "k_itau_keyformula",
    "k_itau_smallx",
    "k_itau_defseries",
]

# Relative-accuracy budget of the definitional series, quoted against the
# natural magnitude scale; beyond it the evaluator refuses rather than
# returning cancellation noise.
_DEFSERIES_BUDGET = 1e-9
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


def _contour_angle(x, tau):
    """Rotation angle for the cosh-integral contour.

    The integrand magnitude along the rotated contour integrates to about
    e^{-tau t} K_0(x cos t) at angle t, so g(t) = -tau t + log K_0(x cos t)
    measures the achievable output magnitude.  g is convex; we locate its
    minimum and then back off to the smallest angle within 3 nats of it.
    At such an angle the cancellation between panels is at most e^3 times
    algebraic factors, which keeps the quadrature at near-full relative
    accuracy even where K itself is exponentially small.
    """
    if tau <= 0.0:
        return 0.0
    cap = 0.5 * math.pi - 1e-4

    def g(theta):
        c = x * math.cos(theta)
        # log K_0(c) = log k0e(c) - c
        return -tau * theta + math.log(_sp.k0e(c)) - c

    lo, hi = 0.0, cap
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) <= g(m2):
            hi = m2
        else:
            lo = m1
    theta_star = 0.5 * (lo + hi)
    target = g(theta_star) + 3.0
    if g(0.0) <= target:
        return 0.0
    lo, hi = 0.0, theta_star
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _cosh_cut(c, drift, budget):
    """Smallest u with c(cosh u - 1) - drift*u >= budget, plus one safety unit."""
    u = math.acosh(1.0 + budget / c)
    for _ in range(4):
        u = math.acosh(1.0 + (budget + drift * u) / c)
    return u + 1.0


def k_itau_oracle(p, cfg=DEFAULT_CONFIG):
    """K_{i tau}(x) by quadrature of the rotated cosh-cosine representation.

    Rotating the contour of the standard representation
    K_{i tau}(x) = int_0^inf e^{-x cosh u} cos(tau u) du
    by an angle theta trades oscillation against decay:

        K_{i tau}(x) = e^{-tau theta}
            int_0^inf e^{-x cos(theta) cosh u} cos(tau u - x sin(theta) sinh u) du.

    The angle is picked by `_contour_angle` so that panel cancellation stays
    algebraic; panel edges track the oscillation phase tau u + x sin(theta) sinh u.

    Parameters
    ----------
    p : EvaluationPoint
    cfg : QuadratureConfig

    Returns
    -------
    float

    Raises
    ------
    AccuracyError
        If panel refinement fails to converge.
    """
    x, tau = p.x, p.tau
    theta = _contour_angle(x, tau)
    c = x * math.cos(theta)
    s = x * math.sin(theta)
    budget = math.log(1.0 / cfg.truncation_threshold)
    u_max = _cosh_cut(c, 0.0, budget)
    edges = phase_edges(lambda u: tau * u + s * np.sinh(u), 0.0, u_max)

    def f(u):
        return np.exp(-c * np.cosh(u)) * np.cos(tau * u - s * np.sinh(u))

    val = integrate(f, edges, cfg)
    return math.exp(-tau * theta) * float(np.real(val))


def k_complex_order(o, x, cfg=DEFAULT_CONFIG):
    """K_{mu + i tau}(x) on the same rotated contour as the pure-imaginary oracle.

    The representation K_nu(x) = int_0^inf e^{-x cosh u} cosh(nu u) du rotated
    by theta gives, with phi(u) = tau u - x sin(theta) sinh(u),

        K_{mu+i tau}(x) = e^{-tau theta} e^{i mu theta}
            int_0^inf e^{-x cos(theta) cosh u}
                      [cosh(mu u) cos phi + i sinh(mu u) sin phi] du,

    so conjugate symmetry in tau holds by construction.  Accuracy is
    contracted for |mu| <= 3, tau <= 50, 0.01 <= x <= 100.
    """
    tau, mu = o.tau, o.mu
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError("x must be finite and positive")
    theta = _contour_angle(x, tau)
    c = x * math.cos(theta)
    s = x * math.sin(theta)
    budget = math.log(1.0 / cfg.truncation_threshold)
    u_max = _cosh_cut(c, abs(mu), budget)
    edges = phase_edges(lambda u: tau * u + s * np.sinh(u), 0.0, u_max)

    def f(u):
        phi = tau * u - s * np.sinh(u)
        damp = np.exp(-c * np.cosh(u))
        return damp * (np.cosh(mu * u) * np.cos(phi) + 1j * np.sinh(mu * u) * np.sin(phi))

    val = integrate(f, edges, cfg)
    return cmath.exp(complex(-tau * theta, mu * theta)) * complex(val)


def _series_tail(x, tau, N):
    """sum_{m=1}^{N} (x/2)^{2m} / (m! (1 - i tau)_m), running-term recurrence."""
    q = 0.25 * x * x
    itau = 1j * tau
    term = complex(1.0)
    total = complex(0.0)
    for m in range(1, N + 1):
        term *= q / (m * (m - itau))
        total += term
    return total


def _entire_g(w, N):
    """G(w) = I_{N+1}(sqrt w) / (sqrt w)^{N+1}, an entire function of w >= 0.

    Series: sum_k w^k / (4^k k! Gamma(k+N+2) 2^{N+1}); positive terms,
    super-geometric decay.
    """
    w = np.asarray(w, dtype=float)
    term = np.full(w.shape, math.exp(-_sp.gammaln(N + 2.0) - (N + 1) * math.log(2.0)))
    total = term.copy()
    for k in range(1, 400):
        term = term * w / (4.0 * k * (k + N + 1))
        total += term
        if np.all(term <= 1e-18 * (total + 1.0)):
            return total
    raise RuntimeError("entire-part series did not terminate")


def _remainder_integral(x, tau, N, cfg):
    """The key-formula remainder after removing the oscillatory power x^{2 i tau}.

    Substituting y = x sin(psi), then v = -log cos(psi), turns

        x^{2 i tau} / (2^N (1-i tau)_N) *
            int_0^x (x^2 - y^2)^{N - i tau} I_{N+1}(y) y^{-N} dy

    into a smooth damped-oscillatory integral on (0, inf):

        x^{2N+2} / (2^N (1-i tau)_N) *
            int_0^inf e^{-(2N+2) v} e^{2 i tau v} G(x^2 (1 - e^{-2v})) dv,

    with G entire (see `_entire_g`).  The substitution removes both the
    endpoint derivative blow-up at y = x and the x^{2 i tau} phase.
    """
    from .special import pochhammer

    g_far = float(_entire_g(np.array([x * x]), N)[0])
    budget = math.log(1.0 / cfg.truncation_threshold)
    v_max = (budget + max(0.0, math.log(g_far))) / (2.0 * N + 2.0)
    edges = phase_edges(lambda v: 2.0 * tau * v, 0.0, v_max)

    def f(v):
        return np.exp((-(2.0 * N + 2.0) + 2j * tau) * v) * _entire_g(
            x * x * (1.0 - np.exp(-2.0 * v)), N
        )

    integral = integrate(f, edges, cfg)
    prefactor = x ** (2 * N + 2) / (2.0 ** N * pochhammer(1.0 - 1j * tau, N))
    return prefactor * complex(integral)


def k_itau_keyformula(p, N, cfg=DEFAULT_CONFIG):
    """K_{i tau}(x) from the series-plus-remainder key formula.

    Evaluates, entirely in complex arithmetic with the real part taken once,

        Re[ Gamma(i tau) (x/2)^{-i tau} (1 + S_N + T_N) ],

    where S_N is the length-N Pochhammer series and T_N the explicit
    remainder integral; the value is independent of the truncation depth N,
    which makes N-agreement a free self-test.

    Parameters
    ----------
    p : EvaluationPoint
    N : int
        Truncation depth, 0 <= N <= 20.
    cfg : QuadratureConfig
    """
    if N < 0 or N != int(N) or N > 20:
        raise ValueError("N must be an integer in [0, 20]")
    N = int(N)
    x, tau = p.x, p.tau
    series = _series_tail(x, tau, N)
    remainder = _remainder_integral(x, tau, N, cfg)
    prefactor = cmath.exp(_sp.loggamma(1j * tau) - 1j * tau * math.log(0.5 * x))
    return (prefactor * (1.0 + series + remainder)).real


def k_itau_smallx(p):
    """Truncated key-formula series, no remainder integral; for x <= 0.05 only.

    Three series terms leave a relative error below 1e-12 on its domain,
    which makes it the cheap kernel route inside Mellin-transform quadratures
    whose log-spaced nodes reach arbitrarily small x.
    """
    x, tau = p.x, p.tau
    if x > 0.05:
        raise ValueError("small-x series is only contracted for x <= 0.05")
    prefactor = cmath.exp(_sp.loggamma(1j * tau) - 1j * tau * math.log(0.5 * x))
    return (prefactor * (1.0 + _series_tail(x, tau, 3))).real


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
