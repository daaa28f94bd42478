"""Panel-based Gauss-Kronrod quadrature with phase-aware subdivision.

Every integral in this package but the kernel oracle's trapezoid rule is a
sum of panels of the 33-point Gauss-Kronrod rule.  Oscillatory integrands
get their panel edges from the zero-crossing grid of a monotone phase
majorant, so each panel sees at most one half-oscillation; smooth
integrands get uniform edges.  Each level is evaluated once: its value is
the Kronrod sum, and its error estimate the difference from the 16-point
Gauss-Legendre sum embedded in the same 33 nodes (Laurie, Math. Comp. 66
(1997) 1133-1145; Piessens et al., QUADPACK, 1983).  Only a level that
misses the tolerance is refined, by halving every panel.  The estimate is
floored at the roundoff of the panel sums (`ROUNDOFF_FLOOR`, shared with
the trapezoid rule), so a tolerance finer than double precision can certify
is refused rather than met by two sums that happen to round alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the non-negative half of the 33-point Kronrod extension of 16-point
# Gauss-Legendre, x = 0 first, as `tools/kronrod_rule.py` prints it (mpmath
# at 40 digits); the nodes at odd positions of the 33 are leggauss(16)'s
_HALF_NODES = (
    0.0, 0.09501250983763744, 0.18916857901808373, 0.2816035507792589,
    0.37148378087841627, 0.45801677765722737, 0.5404076763521397, 0.6178762444026438,
    0.6897411066817623, 0.755404408355003, 0.8142402870624444, 0.8656312023878318,
    0.9091576670123429, 0.9445750230732326, 0.9715059509693926, 0.9894009349916499,
    0.9982392741454446,
)
_HALF_WEIGHTS = (
    0.0951542160804983, 0.09472840124723005, 0.09343867406092123, 0.09129203282819166,
    0.08833750257911273, 0.08459580379259064, 0.08005394126371929, 0.07476982388559955,
    0.06886299519153125, 0.062358806011834855, 0.055205633095422174, 0.047506215976407015,
    0.039512951202421966, 0.031260543647380526, 0.022498859440049444, 0.013257930688091158,
    0.004742777049247318,
)
_NODES = np.concatenate((-np.flip(_HALF_NODES[1:]), _HALF_NODES))
_WEIGHTS = np.concatenate((np.flip(_HALF_WEIGHTS[1:]), _HALF_WEIGHTS))
_GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)[1]
# no error estimate drops below ROUNDOFF_FLOOR * sum(|terms|)
ROUNDOFF_FLOOR = 8.0 * np.finfo(float).eps


class AccuracyError(Exception):
    """An accuracy contract could not be met.

    Parameters
    ----------
    message : str
        Description of the failed contract.
    achieved : float, optional
        The error estimate that was actually reached, for diagnostics.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


# panel-halving rounds `integrate` allows
MAX_REFINEMENTS = 8
# most nodes of an `integrate` level, 33 a panel, and crossings of a
# `phase_edges` grid (the tests reach 216,447 and 4,320, the benchmark 13,233
# and 393); a grid at the crossing cap takes about half the node cap at its
# first level, so it cannot be halved
MAX_NODES = 2 ** 20
MAX_CROSSINGS = 2 ** 14
# magnitude below which a semi-infinite tail is cut
TRUNCATION = 1e-18


@dataclass(frozen=True)
class QuadratureConfig:
    """The tolerances shared by every quadrature in the package.

    Convergence is declared when the error estimate is within ``abs_tol +
    rel_tol * |value|``.  In `integrate` the estimate is the difference
    between a level's Kronrod sum and its embedded Gauss sum, in the contour
    trapezoid an aliasing bound; both are floored at the roundoff scale
    ``8 * eps * sum(|terms|)`` of the level, and a tolerance below that
    floor raises `AccuracyError`.
    The refinement rounds (`MAX_REFINEMENTS`, 8) and the tail cut
    (`TRUNCATION`, 1e-18) are fixed.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def panel_sums(f, edges):
    """33-point Kronrod and embedded 16-point Gauss estimates of the integral
    of ``f`` over each panel, from one evaluation of ``f``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; may return complex values.
    edges : array_like
        Increasing panel boundaries, length ``n + 1`` for ``n`` panels.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        The Kronrod and the Gauss estimate, one per panel each.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel())).reshape(pts.shape)
    # not ``@``: BLAS would spread these small products over every core;
    # the Gauss nodes are the odd columns
    kronrod = half * (vals * _WEIGHTS).sum(axis=1)
    return kronrod, half * (vals[:, 1::2] * _GAUSS_WEIGHTS).sum(axis=1)


def _halved(edges):
    out = np.empty(2 * edges.size - 1, dtype=float)
    out[0::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _level(f, edges, achieved):
    """Kronrod sum, its distance from the Gauss sum and the absolute sum of
    the Kronrod panel sums; `AccuracyError` if not finite, or, before any
    evaluation, if the level takes more than `MAX_NODES` nodes."""
    nodes = _NODES.size * (edges.size - 1)
    if nodes > MAX_NODES:
        raise AccuracyError(f"quadrature level of {nodes} nodes exceeds the cap of {MAX_NODES}",
                            achieved=achieved)
    kronrod, gauss = panel_sums(f, edges)
    mass = float(np.sum(np.abs(kronrod)))
    if not np.isfinite(mass):
        raise AccuracyError("quadrature level is not finite", achieved=np.inf)
    value = np.sum(kronrod)
    return value, float(abs(value - np.sum(gauss))), mass


def integrate(f, edges, cfg=DEFAULT_CONFIG):
    """Integrate ``f`` over ``[edges[0], edges[-1]]`` to the configured tolerance.

    The initial edges must already resolve any oscillation of ``f`` (one
    half-period per panel or better); refinement then only polishes.

    A level evaluates ``f`` once, on the 33 Gauss-Kronrod nodes of every
    panel (`panel_sums`).  Its value is the Kronrod sum, exact for
    polynomials of degree 49 on each panel; its error estimate is the
    distance from the embedded 16-point Gauss sum (exact to degree 31),
    floored at the roundoff ``ROUNDOFF_FLOOR`` times the absolute sum of
    the Kronrod panel sums, so two rules that agree bit for bit certify no
    more than double precision can resolve.  A level whose estimate misses
    ``abs_tol + rel_tol * |value|`` is refined by halving every panel.

    Raises
    ------
    AccuracyError
        If the error estimate does not fall within the tolerance after
        `MAX_REFINEMENTS` (8) rounds; at once when a level's sum is not
        finite, before a level of more than `MAX_NODES` (2^20) nodes, or
        when the two rules agree to within the roundoff floor and the floor
        alone misses the tolerance (halving cannot shrink the absolute panel
        sum, so no later round could succeed).  ``achieved`` carries the
        last (floored) estimate, inf for a level that is not finite or where
        there is none.
    """
    edges = np.asarray(edges, dtype=float)
    err = np.inf
    for _ in range(MAX_REFINEMENTS + 1):
        value, diff, mass = _level(f, edges, err)
        floor = ROUNDOFF_FLOOR * mass
        err = max(diff, floor)
        if err <= cfg.abs_tol + cfg.rel_tol * abs(value):
            return value
        if diff <= floor:
            raise AccuracyError("tolerance is below the roundoff floor", achieved=float(err))
        edges = _halved(edges)
    raise AccuracyError("quadrature did not converge", achieved=float(err))


_PHASE_SPACING = np.pi  # phase advance per `phase_edges` panel
_MIN_PANELS = 8  # uniform panels `phase_edges` merges in


def phase_edges(phase, lo, hi):
    """Panel edges on ``[lo, hi]`` where a monotone phase advances pi per panel.

    ``phase`` must be vectorized and non-decreasing.  Crossing locations are
    found by interpolating the inverse of the phase on a fine grid; a uniform
    subdivision into 8 pieces is merged in so smooth stretches are still
    resolved.  A span that is not finite raises `ValueError`, one of more
    than `MAX_CROSSINGS` (2^14) crossings `AccuracyError`, both before the
    crossings are placed.
    """
    grid = np.linspace(lo, hi, 4097)
    with np.errstate(over="ignore", invalid="ignore"):
        pv = np.asarray(phase(grid), dtype=float)
    span = pv[-1] - pv[0]
    if not np.isfinite(span):
        raise ValueError(f"the phase span on [{lo!r}, {hi!r}] is not finite")
    if span >= (MAX_CROSSINGS + 1) * _PHASE_SPACING:
        raise AccuracyError(f"the phase spans {span:.3g} on [{lo!r}, {hi!r}], more than "
                            f"the cap of {MAX_CROSSINGS} crossings")
    n_cross = int(span / _PHASE_SPACING)
    if n_cross > 512:
        # need a finer grid than the default to bracket every crossing
        grid = np.linspace(lo, hi, 8 * n_cross + 1)
        pv = np.asarray(phase(grid), dtype=float)
    targets = pv[0] + _PHASE_SPACING * np.arange(1, n_cross + 1)
    crossings = np.interp(targets, pv, grid)
    uniform = np.linspace(lo, hi, _MIN_PANELS + 1)
    edges = np.unique(np.concatenate((crossings, uniform)))
    # guard against duplicate or out-of-range interpolation artifacts
    edges = edges[(edges >= lo) & (edges <= hi)]
    if edges[0] != lo:
        edges = np.concatenate(([lo], edges))
    if edges[-1] != hi:
        edges = np.concatenate((edges, [hi]))
    return edges


def averaged_tail(panel_values):
    """Limit of an oscillating series of panel integrals by repeated averaging.

    ``panel_values`` are integrals over consecutive half-periods of an
    oscillatory tail, so their partial sums oscillate around the limit.
    Averaging adjacent partial sums damps the oscillation by the decay
    rate of the envelope per period; applied repeatedly it converges like
    an Euler transform.  Of n partial sums, min(n - 4, 24) levels are taken
    for n > 8, and n - 2 for fewer.

    Returns
    -------
    (value, spread)
        ``value`` is the accelerated limit, ``spread`` the variation across
        the final averaging level -- an error proxy.
    """
    s = np.cumsum(np.asarray(panel_values))
    levels = min(s.size - 4, 24) if s.size > 8 else max(s.size - 2, 0)
    for _ in range(levels):
        s = 0.5 * (s[1:] + s[:-1])
    mid = s[s.size // 2]
    spread = float(np.max(np.abs(s - mid))) if s.size > 1 else 0.0
    return mid, spread
