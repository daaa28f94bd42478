"""Panel-based Gauss-Legendre quadrature with phase-aware subdivision.

Every integral in this package but the kernel oracle's trapezoid rule is a
sum of 16-point Gauss-Legendre panels.  Oscillatory integrands get their
panel edges from the zero-crossing grid of a monotone phase majorant, so
each panel sees at most one half-oscillation; smooth integrands get uniform
edges.  Convergence is checked by halving every panel and comparing, which
for analytic integrands gains ~2x digits per level.  The comparison is
floored at the roundoff of the panel sums (`ROUNDOFF_FLOOR`, shared with
the trapezoid rule), so a tolerance finer than double precision can certify
is refused rather than met by two sums that happen to round alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
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
# most Gauss nodes of an `integrate` level and crossings of a `phase_edges`
# grid (the tests reach 138,496 and 4,320, the benchmark 12,832 and 393);
# a grid at the crossing cap leaves two halvings below the node cap
MAX_NODES = 2 ** 20
MAX_CROSSINGS = 2 ** 14
# magnitude below which a semi-infinite tail is cut
TRUNCATION = 1e-18


@dataclass(frozen=True)
class QuadratureConfig:
    """The tolerances shared by every quadrature in the package.

    Convergence is declared when the error estimate is within ``abs_tol +
    rel_tol * |value|``.  In `integrate` the estimate is the difference
    between two refinement levels, in the contour trapezoid an aliasing
    bound; both are floored at the roundoff scale ``8 * eps * sum(|terms|)``
    of the level, and a tolerance below that floor raises `AccuracyError`.
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
    """Gauss-Legendre estimate of the integral of ``f`` over each panel.

    Parameters
    ----------
    f : callable
        Vectorized integrand; may return complex values.
    edges : array_like
        Increasing panel boundaries, length ``n + 1`` for ``n`` panels.

    Returns
    -------
    numpy.ndarray
        One integral estimate per panel.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel())).reshape(pts.shape)
    # not ``@``: BLAS would spread these small products over every core
    return half * (vals * _WEIGHTS).sum(axis=1)


def _halved(edges):
    out = np.empty(2 * edges.size - 1, dtype=float)
    out[0::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _level(f, edges, achieved):
    """Sum and absolute sum of the panel sums; `AccuracyError` if not finite,
    or, before any evaluation, if the level takes more than `MAX_NODES` nodes."""
    nodes = _NODES.size * (edges.size - 1)
    if nodes > MAX_NODES:
        raise AccuracyError(f"quadrature level of {nodes} nodes exceeds the cap of {MAX_NODES}",
                            achieved=achieved)
    sums = panel_sums(f, edges)
    mass = float(np.sum(np.abs(sums)))
    if not np.isfinite(mass):
        raise AccuracyError("quadrature level is not finite", achieved=np.inf)
    return np.sum(sums), mass


def integrate(f, edges, cfg=DEFAULT_CONFIG):
    """Integrate ``f`` over ``[edges[0], edges[-1]]`` to the configured tolerance.

    The initial edges must already resolve any oscillation of ``f`` (one
    half-period per panel or better); refinement then only polishes.

    Each round halves every panel.  Its error estimate is the change from
    the level before, floored at the roundoff ``ROUNDOFF_FLOOR`` times the
    absolute sum of the new panel sums, so two levels that agree bit for bit
    certify no more than double precision can resolve.

    Raises
    ------
    AccuracyError
        If the error estimate does not fall within ``abs_tol + rel_tol *
        |value|`` after `MAX_REFINEMENTS` (8) rounds; at once when a
        level's sum is not finite, before a level of more than `MAX_NODES`
        (2^20) nodes, or when the levels agree to within the
        roundoff floor and the floor alone misses the tolerance (halving
        cannot shrink the absolute panel sum, so no later round could
        succeed).  ``achieved`` carries the last (floored) estimate, inf
        for a level that is not finite or where there is none.
    """
    edges = np.asarray(edges, dtype=float)
    err = np.inf
    prev, _ = _level(f, edges, err)
    for _ in range(MAX_REFINEMENTS):
        edges = _halved(edges)
        cur, mass = _level(f, edges, err)
        diff, floor = abs(cur - prev), ROUNDOFF_FLOOR * mass
        err = max(diff, floor)
        if err <= cfg.abs_tol + cfg.rel_tol * abs(cur):
            return cur
        if diff <= floor:
            raise AccuracyError("tolerance is below the roundoff floor", achieved=float(err))
        prev = cur
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
