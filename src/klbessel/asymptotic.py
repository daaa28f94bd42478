"""Uniform large-index expansion of the kernel with an explicit remainder.

For tau >= tau0 and 0 < x <= X the kernel satisfies

    K_{i tau}(x) = sqrt(2 pi / tau) e^{-pi tau / 2} [cos(phi) + R_N(tau)],
    phi = tau log(2 tau / (e x)) - pi/4,

where R_N carries an explicit closed form (Stirling remainder plus an
N-term series and an entire-function integral) and a certified upper
bound that decays like 1/tau.  This module builds the remainder three
ways (measured against the oracle, assembled from the closed form,
bounded a priori) and reports whether the measurement sits under the
bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .kernel import _KEYFORMULA_BUDGET, EvaluationPoint, _depth, _series_and_remainder
from .kernel import k_itau_oracle, natural_scale
from .quadrature import AccuracyError, DEFAULT_CONFIG, integrate, phase_edges

__all__ = [
    "ExpansionReport",
    "leading_term",
    "phase",
    "stirling_r_gamma",
    "stirling_r_integral",
    "remainder_measured",
    "remainder_explicit",
    "remainder_bound",
    "expansion_report",
]

_QUARTER_PI = 0.25 * math.pi
# natural_scale(tau) < 1e-272 beyond this tau, so K read relative to it would
# lose digits to gradual underflow (the scale itself is 0 from tau = 474)
_MEASURED_TAU_MAX = 400.0

# Even-order series of the Binet integrand (1/2 - 1/t + 1/(e^t - 1))/t
# around t = 0; coefficients are B_{2k}/(2k)! for k = 1..6.  At the
# switch point t = 0.5 the first dropped term is below 4e-14 relative.
_BINET_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
)
_BINET_SWITCH = 0.5
_BINET_CUT = 36.0


@dataclass(frozen=True)
class ExpansionReport:
    """Snapshot of the expansion at one point: value, remainder, verdict.

    ``within_bound`` states whether |remainder_measured| is at most
    ``remainder_bound`` up to a 1e-9 certification slack.
    """

    point: EvaluationPoint
    N: int
    tau0: float
    X: float
    leading: float
    k_value: float
    remainder_measured: float
    remainder_explicit: float
    remainder_bound: float
    within_bound: bool


def phase(p):
    """The oscillation phase tau*log(2 tau/(e x)) - pi/4."""
    return p.tau * math.log(2.0 * p.tau / (math.e * p.x)) - _QUARTER_PI


def leading_term(p):
    """First term of the expansion: natural scale times the cosine factor."""
    return natural_scale(p.tau) * math.cos(phase(p))


def stirling_r_gamma(tau):
    """Stirling remainder r(tau) read off the gamma function itself.

    Defined by Gamma(i tau) = sqrt(2 pi / tau) e^{-pi tau/2}
    e^{i(tau log(tau/e) - pi/4)} (1 + r(tau)); this is the fast,
    quadrature-free construction.  ``tau`` is a number (complex result) or
    an array (complex array); every element must be positive.
    """
    t = np.asarray(tau, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("tau must be positive")
    log_rest = (0.5 * (math.pi * t + np.log(t / (2.0 * math.pi)))
                - 1j * (t * np.log(t / math.e) - _QUARTER_PI))
    r = np.exp(_sp.loggamma(1j * t) + log_rest) - 1.0
    return r if np.ndim(tau) else complex(r)


def _binet_integrand(t):
    t = np.asarray(t, dtype=float)
    series = np.polyval(_BINET_COEFFS[::-1], t * t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direct = np.where(
            t >= _BINET_SWITCH, (0.5 - 1.0 / t + 1.0 / np.expm1(t)) / t, 0.0
        )
    return np.where(t < _BINET_SWITCH, series, direct)


def stirling_r_integral(tau, cfg=DEFAULT_CONFIG):
    """Stirling remainder via the Binet-type integral.

    r(tau) = exp( int_0^inf e^{-i tau t} (1/2 - 1/t + 1/(e^t-1)) dt/t ) - 1.

    The head [0, 36] is integrated with phase-aware panels (the bracket is
    expanded in its even series below t = 0.5); past the cut the bracket is
    1/2 - 1/t up to 5e-18, so the tail is the exact exponential-integral
    pair (1/2) E_1(i tau T) - E_2(i tau T)/T.
    """
    if not 0.5 <= tau < math.inf:
        raise ValueError(f"tau must be finite and at least 0.5, got {tau!r}")

    def f(t):
        return np.exp(-1j * tau * t) * _binet_integrand(t)

    edges = phase_edges(lambda t: tau * t, 0.0, _BINET_CUT)
    head = integrate(f, edges, cfg)
    z = 1j * tau * _BINET_CUT
    e1 = _sp.exp1(z)
    e2 = cmath.exp(-z) - z * e1
    return cmath.exp(head + 0.5 * e1 - e2 / _BINET_CUT) - 1.0


def remainder_measured(p, N=0, cfg=DEFAULT_CONFIG):
    """Remainder read off the oracle: K/scale - cos(phase), for tau <= 400.

    The exact remainder is the same number for every N (the expansion is
    an identity); N is accepted for bookkeeping symmetry with the
    explicit form.
    """
    del N
    if p.tau > _MEASURED_TAU_MAX:
        raise ValueError(f"a measured remainder needs tau <= {_MEASURED_TAU_MAX:g}")
    return k_itau_oracle(p, cfg) / natural_scale(p.tau) - math.cos(phase(p))


def remainder_explicit(p, N, cfg=DEFAULT_CONFIG):
    """Remainder assembled from its closed form.

    Re[ e^{i phase} ( r + (1 + r)(S_N + T_N) ) ] where r is the Stirling
    remainder, S_N the N-term correction series and T_N the entire-function
    integral term; S_N and T_N are shared with the series evaluator of the
    kernel, the identity behind both, and so is its refusal: `AccuracyError`
    where the bracket's roundoff floor exceeds the budget 1e-8 of the
    natural scale.  N must be an integer in [0, 20] (else `ValueError`).
    """
    s_n, t_n = _series_and_remainder(p.x, p.tau, _depth(N), cfg)
    r = stirling_r_gamma(p.tau)
    return (cmath.exp(1j * phase(p)) * (r + (1.0 + r) * (s_n + t_n))).real


def remainder_bound(tau, tau0, X, N):
    """A priori bound on |R_N|, monotone 1/tau in the index.

    With A = e^{1/(6 tau0)}/6:

        (1/tau) [ A + (tau0 + A)( e^{X^2/(4 tau0)}
                  + (X^2/(2 tau0))^N ( I_N(X)/X^N - 1/(2^N N!) ) ) ]

    For N = 0 the series convention behind the bracket is empty and only
    the exponential term is kept; reports therefore check N = 0 runs
    against the N = 1 bound.  ValueError names X and tau0 where the bound
    is not a finite number (X^2/tau0 of a few thousand, or I_N(X) past
    float range from X of about 700), and X and N where X^N underflows.
    """
    if not tau0 > 0.0:
        raise ValueError("tau0 must be positive")
    if not tau >= tau0:
        raise ValueError("tau must be at least tau0")
    if not X > 0.0:
        raise ValueError("X must be positive")
    if not (N >= 0 and N % 1 == 0):
        raise ValueError("N must be a non-negative integer")
    N = int(N)
    a = math.exp(1.0 / (6.0 * tau0)) / 6.0
    try:
        bracket = math.exp(X * X / (4.0 * tau0))
        if N >= 1:
            bracket += (X * X / (2.0 * tau0)) ** N * (
                float(_sp.iv(N, X)) / X**N - 1.0 / (2.0**N * math.factorial(N))
            )
        bound = (a + (tau0 + a) * bracket) / tau
    except OverflowError:
        bound = math.inf
    except ZeroDivisionError:
        raise ValueError(f"X**N underflows in the remainder bound at X={X!r}, N={N!r}") from None
    if not math.isfinite(bound):
        raise ValueError(f"the remainder bound is not finite at X={X!r}, tau0={tau0!r}")
    return bound


def expansion_report(p, N, tau0, X, cfg=DEFAULT_CONFIG):
    """Evaluate the expansion at one point and check it against the bound.

    The measured remainder is read off the oracle's value, and ``k_value``
    is reported as ``leading + scale * remainder_measured`` (within an ulp
    of the natural scale of the oracle's value), so that identity holds
    exactly.  N = 0 is checked against the N = 1 bound.

    Raises `AccuracyError` where the explicit and measured remainders
    differ by more than the cross-method budget 1e-8, so no explicit
    remainder is reported unchecked.
    """
    if not (p.x <= X and tau0 <= p.tau <= _MEASURED_TAU_MAX):
        raise ValueError(f"point must satisfy x <= X and tau0 <= tau <= {_MEASURED_TAU_MAX:g}")
    scale, leading = natural_scale(p.tau), leading_term(p)
    measured = k_itau_oracle(p, cfg) / scale - math.cos(phase(p))
    explicit = remainder_explicit(p, N, cfg)
    if not abs(explicit - measured) <= _KEYFORMULA_BUDGET:
        raise AccuracyError(f"explicit remainder disagrees with the measured one at {p}, N={N}",
                            achieved=abs(explicit - measured))
    bound = remainder_bound(p.tau, tau0, X, max(N, 1))
    return ExpansionReport(
        point=p,
        N=N,
        tau0=tau0,
        X=X,
        leading=leading,
        k_value=leading + scale * measured,
        remainder_measured=measured,
        remainder_explicit=explicit,
        remainder_bound=bound,
        within_bound=abs(measured) <= bound * (1.0 + 1e-9),
    )
