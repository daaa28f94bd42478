"""Acceptance checklist: nine criteria, one verdict line each.

Each test records a single machine-greppable line

    [criterion N] <name>: PASS|FAIL (<detail>)

and then asserts.  The conftest terminal-summary hook prints the recorded
lines at the end of every run, so the verdicts are visible even under
output capture.  Tolerances and grids are the contract; they must not be
loosened here.
"""

import math
import time

import numpy as np
import pytest

from klbessel import (
    DEFAULT_CONFIG,
    EvaluationPoint,
    OrderSpec,
    PSI_ONE,
    PSI_ZERO,
    SummabilityQuery,
    all_default_descriptors,
    certify_bound,
    cos_spec,
    default_grid,
    expansion_report,
    k_complex_order,
    k_itau_defseries,
    k_itau_keyformula,
    k_itau_oracle,
    kernel_grid_values,
    measure_c,
    natural_scale,
    olenko_c,
    remainder_bound,
    remainder_measured,
    stirling_r_gamma,
    tau_integral_rhs,
    theorem2_check,
    theorem3_check,
    verify_representation,
)
from klbessel.kernel import _remainder_integral, _series_tail
from klbessel.summability import closed_cosh, closed_sinh

SQRT_2_OVER_PI = 0.79788456080286536

# one line per criterion, rendered by the conftest terminal-summary hook
VERDICTS = []


def _verdict(number, name, ok, detail):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _prefactor(s):
    return 2.0**-s * math.sqrt(math.pi) / math.gamma(s + 0.5)


def test_criterion_1_cross_method_agreement(cfg):
    start = time.perf_counter()
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for tau in (0.5, 1.0, 2.0, 5.0, 10.0):
            p = EvaluationPoint(x, tau)
            values = [k_itau_oracle(p, cfg), k_itau_defseries(p)]
            values += [k_itau_keyformula(p, N, cfg) for N in (0, 2, 4)]
            spread = (max(values) - min(values)) / natural_scale(tau)
            worst = max(worst, spread)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 30.0
    _verdict(1, "cross-method kernel agreement", ok,
             f"max scaled deviation {worst:.2e}, {elapsed:.1f}s single-threaded")


def test_criterion_2_full_catalog_certification(cfg):
    start = time.perf_counter()
    grid = default_grid()
    kernel_cache = {}
    failed = []
    for d in all_default_descriptors():
        if d.order_mu not in kernel_cache:
            kernel_cache[d.order_mu] = kernel_grid_values(grid, d.order_mu, cfg)
        cert = certify_bound(d, grid, cfg, kernel_values=kernel_cache[d.order_mu])
        if not cert.passed:
            failed.append((d.id, cert.max_ratio))
    elapsed = time.perf_counter() - start
    ok = not failed and elapsed <= 300.0
    detail = f"17 bounds on 25x25, {elapsed:.1f}s serial"
    if failed:
        detail += f"; failed: {failed}"
    _verdict(2, "full bound-catalog certification", ok, detail)


def test_criterion_3_index_raising_identity(cfg):
    worst = 0.0
    for x in np.geomspace(0.1, 10.0, 5):
        for tau in (0.5, 1.0, 2.0, 5.0, 10.0):
            p = EvaluationPoint(float(x), tau)
            lhs = p.tau * k_itau_oracle(p, cfg)
            rhs = p.x * k_complex_order(OrderSpec(1.0, p.tau), p.x, cfg).imag
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    ok = worst <= 1e-10
    _verdict(3, "index-raising identity", ok,
             f"max relative residual {worst:.2e} on 5x5 grid")


def test_criterion_4_integral_representations(cfg):
    checks = (
        ("EQ_1_27", EvaluationPoint(1.0, 1.0), 1e-8),
        ("EQ_1_6", EvaluationPoint(1.0, 1.0), 1e-8),
        ("EQ_1_4", EvaluationPoint(0.5, 1.0), 1e-6),
        ("EQ_1_21", EvaluationPoint(0.5, 2.0), 1e-4),
    )
    residuals = {rid: verify_representation(rid, p, cfg)
                 for rid, p, _ in checks}
    ok = all(residuals[rid] <= tol for rid, _, tol in checks)
    detail = ", ".join(f"{rid} {residuals[rid]:.1e}" for rid, _, _ in checks)
    _verdict(4, "integral representations", ok, detail)


def test_criterion_5_remainder_theorem(cfg):
    tau0, big_x = 1.0, 5.0
    # part one: explicit bound holds on the 6x3 grid for each order
    grid_ok = True
    for N in (1, 2, 3):
        for tau in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
            for x in (0.25, 1.0, 5.0):
                report = expansion_report(
                    EvaluationPoint(x, tau), N, tau0, big_x, cfg)
                grid_ok = grid_ok and report.within_bound
    # part two: 1/tau decay, quoted against the tau0 bound value
    cap = remainder_bound(tau0, tau0, big_x, 1)
    decay_worst = max(
        tau * abs(remainder_measured(EvaluationPoint(1.0, float(tau)), 1, cfg))
        for tau in np.geomspace(1.0, 40.0, 25))
    # part three: Stirling remainder inside its a priori envelope
    stirling_ok = all(
        abs(stirling_r_gamma(float(tau))) <= math.expm1(1.0 / (6.0 * tau))
        for tau in np.geomspace(0.5, 40.0, 100))
    ok = grid_ok and decay_worst <= cap and stirling_ok
    _verdict(5, "explicit remainder theorem", ok,
             f"6x3 grid x N in {{1,2,3}} within bound: {grid_ok}, "
             f"max tau|R| {decay_worst:.2e} <= {cap:.2e}, "
             f"Stirling envelope on 100 samples: {stirling_ok}")


def test_explicit_remainder_integral_is_the_series_tail(cfg):
    # A free cross-check of criterion 5's explicit remainder: the quadrature
    # T_N of the key formula equals the tail sum_{k>N} of the bracket's
    # convergent series, quoted against the natural scale through the
    # factor (1 + r) that multiplies the bracket.
    taus = [1.0, 2.5, 6.3, 16.0, 40.0]
    factors = 1.0 + stirling_r_gamma(np.array(taus))
    worst = 0.0
    for x in np.geomspace(0.1, 18.0, 7):
        x = float(x)
        for N in (1, 4, 10, 16, 20):
            for tau, factor in zip(taus, factors):
                tail = _series_tail(x, tau, 400) - _series_tail(x, tau, N)
                worst = max(worst, abs(factor * (_remainder_integral(x, tau, N, cfg) - tail)))
    assert worst <= 1e-8, worst


def test_criterion_6_closed_form_tau_integrals(cfg):
    worst = 0.0
    for s in (0.5, 1.0, 1.5):
        for a in (0.0, 0.3, 0.7, 1.2):
            pre = _prefactor(s)
            cosh_num = tau_integral_rhs(s, a, 0.0, PSI_ONE, PSI_ZERO, cfg) / pre
            sinh_num = tau_integral_rhs(s, a, 0.0, PSI_ZERO, PSI_ONE, cfg) / pre
            worst = max(
                worst,
                abs(cosh_num - closed_cosh(s, a)) / closed_cosh(s, a),
                abs(sinh_num - closed_sinh(s, a)) / abs(closed_sinh(s, a))
                if a > 0 else abs(sinh_num - closed_sinh(s, a)),
            )
    ok = worst <= 1e-8
    _verdict(6, "closed-form tau integrals", ok,
             f"max relative deviation {worst:.2e} over 3x4 (s, a) grid")


def test_criterion_7_weak_limit_constant_psi(cfg):
    details = []
    ok = True
    for a in (0.0, 0.5):
        query = SummabilityQuery(a=a, psi1=PSI_ONE, psi2=PSI_ZERO, mellin_s=1.0)
        report = theorem2_check(query, cfg)
        target = 0.5 * math.pi / (1.0 - math.sin(a))
        decreasing = all(e1 > e2 for e1, e2 in
                         zip(report.errors, report.errors[1:]))
        final_rel = report.errors[-1] / abs(report.target)
        ok = ok and decreasing and final_rel <= 1e-4 and report.converged
        ok = ok and abs(report.target - target) <= 1e-12 * target
        details.append(f"a={a}: final rel {final_rel:.1e}")
    _verdict(7, "weak limit for constant psi", ok, ", ".join(details))


def test_criterion_8_entire_psi_pairing(cfg):
    query = SummabilityQuery(a=0.0, psi1=cos_spec(0.05), psi2=PSI_ZERO,
                             mellin_s=1.0)
    report = theorem3_check(query, cfg)
    # the pairing bias is linear in eps, so the limit follows from the
    # last two schedule entries by Richardson extrapolation
    (e1, p1), (e2, p2) = [
        (query.epsilon_schedule[i], report.pairing_values[i])
        for i in (-2, -1)
    ]
    limit = (e1 * p2 - e2 * p1) / (e1 - e2)
    rel = abs(limit - report.target) / abs(report.target)
    with pytest.raises(ValueError):
        SummabilityQuery(a=0.0, psi1=cos_spec((1.0 - math.sin(0.0)) / (2.0 * math.e)))
    ok = rel <= 1e-6 and report.converged
    _verdict(8, "entire test-function pairing", ok,
             f"extrapolated limit off target by {rel:.2e}, "
             "type check rejects b at the threshold")


def test_criterion_9_bessel_sup_constants():
    boundary_dev = max(abs(measure_c(0.0) - SQRT_2_OVER_PI),
                       abs(measure_c(0.5) - SQRT_2_OVER_PI))
    dominated = all(olenko_c(nu) >= measure_c(nu) for nu in (0.5, 1.0, 2.0, 5.0))
    ok = boundary_dev <= 1e-6 and dominated
    _verdict(9, "Bessel sup constants", ok,
             f"boundary deviation {boundary_dev:.2e}, "
             f"estimate dominates measured sup: {dominated}")
