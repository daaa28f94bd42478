"""Seeded inputs of the three workloads.

Standard library only: the benchmark's parent process and its fresh worker
interpreters both build the same inputs from ``(workload, seed, rep)``, and
the parent checks the outputs against them.  Every draw stays inside the
domain where the program is contracted to succeed, and is narrow enough
that the cost of a batch hardly depends on the seed.
"""

import math
import random

# the kernel orders of the 17 catalog bounds, as the certifier groups them
CATALOG_ORDERS = (0.0, 0.1, 0.25, 0.5, 1.0)
CATALOG_SIZE = 17
GRID_N = 25

# the cross-method grid of the paper's criterion 1 and the index-raising
# grid of criterion 3; each node is jittered by up to 10% in log space
CROSS_X = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
CROSS_TAU = (0.5, 1.0, 2.0, 5.0, 10.0)
RAISE_X = (0.1, 0.31622776601683794, 1.0, 3.1622776601683795, 10.0)


def rng(workload, seed, rep):
    # str seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{rep}")


def _shrink(r, lo, hi):
    """A range inside [lo, hi] whose ends move inward by up to 20%."""
    return lo * r.uniform(1.0, 1.2), hi / r.uniform(1.0, 1.2)


def _jitter(r, value, lo, hi):
    return min(hi, max(lo, value * math.exp(r.uniform(-0.1, 0.1))))


def grid_axes(x_lo, x_hi, tau_lo, tau_hi, n=GRID_N):
    """The log-spaced axes of a certification grid, x fastest (as the program lays it out)."""
    def axis(lo, hi):
        ratio = math.log(hi / lo) / (n - 1)
        return [lo * math.exp(ratio * i) for i in range(n)]

    return axis(x_lo, x_hi), axis(tau_lo, tau_hi)


def catalog_inputs(seed, rep):
    """One full-catalog certification: a 25x25 log grid and a kernel sample to check."""
    r = rng("catalog_certify", seed, rep)
    x_lo, x_hi = _shrink(r, 0.01, 100.0)
    tau_lo, tau_hi = _shrink(r, 0.1, 40.0)
    n_points = GRID_N * GRID_N
    samples = {mu: sorted(r.sample(range(n_points), 2)) for mu in CATALOG_ORDERS}
    return {
        "x_lo": x_lo, "x_hi": x_hi, "tau_lo": tau_lo, "tau_hi": tau_hi,
        "samples": {repr(mu): idx for mu, idx in samples.items()},
    }


def paper_inputs(seed, rep):
    """Seeded points of the cross-method and index-raising checks."""
    r = rng("paper_checks", seed, rep)
    cross = [(_jitter(r, x, 0.1, 10.0), _jitter(r, t, 0.5, 10.0))
             for x in CROSS_X for t in CROSS_TAU]
    raising = [(_jitter(r, x, 0.1, 10.0), _jitter(r, t, 0.5, 10.0))
               for x in RAISE_X for t in CROSS_TAU]
    return {"cross": cross, "raising": raising}


def cli_inputs(seed, rep):
    """The argument lists of one CLI session, in the order they run."""
    r = rng("cli_session", seed, rep)
    x_eval = math.exp(r.uniform(math.log(0.1), math.log(10.0)))
    tau_eval = math.exp(r.uniform(math.log(0.5), math.log(10.0)))
    x_def = math.exp(r.uniform(math.log(0.1), math.log(10.0)))
    tau_def = math.exp(r.uniform(math.log(0.5), math.log(10.0)))
    x_lo, x_hi = _shrink(r, 0.01, 100.0)
    tau_lo, tau_hi = _shrink(r, 0.1, 40.0)
    x_asympt = math.exp(r.uniform(math.log(0.25), math.log(4.0)))
    return [
        ["catalog", "--format", "json"],
        ["eval", "--x", repr(x_eval), "--tau", repr(tau_eval)],
        ["eval", "--x", repr(x_def), "--tau", repr(tau_def), "--method", "defseries"],
        ["certify", "--id", "LEBEDEV_15", "--x-min", repr(x_lo), "--x-max", repr(x_hi),
         "--tau-min", repr(tau_lo), "--tau-max", repr(tau_hi)],
        ["asympt", "--x", repr(x_asympt), "--tau-count", "12", "--format", "json"],
        ["identities", "--format", "json"],
        ["summ", "--psi1", "cos", "--b", "0.05"],
        ["summ", "--a", "0.5", "--format", "json"],
    ]
