"""Checks of the program's outputs against results computed outside it.

The references are mpmath 1.3 (``besselk`` at 30 digits, the gamma function)
and closed forms written out here, independently of the package.  Nothing is
stored: every reference is computed from the run's own inputs, after the
timed part.  Each ``check_*`` function takes the inputs and outputs of one
repetition and returns a list of problems; an empty list means every output
passed.  An output of an operation that failed is None and is not checked,
since failures are counted separately.
"""

import json
import math

import mpmath as mp

import inputs

mp.mp.dps = 30

KERNEL_TOL = 1e-8  # of the natural scale, the accuracy the package promises
RATIO_SLACK = 1e-9  # the certifier's own slack on |K| / bound
REPRESENTATION_TOL = {"EQ_1_27": 1e-8, "EQ_1_6": 1e-8, "EQ_1_4": 1e-6, "EQ_1_21": 1e-4}


def natural_scale(tau):
    return math.sqrt(2.0 * math.pi / tau) * math.exp(-0.5 * math.pi * tau)


def kernel_problem(value, mu, x, tau, what):
    """None if ``value`` is within KERNEL_TOL of mpmath's K_{mu + i tau}(x), else a message.

    The tolerance is quoted on the natural scale, or on |K| where the order's
    real part makes K larger than that scale.
    """
    if value is None:
        return f"{what}: no value"
    ref = complex(mp.besselk(mp.mpc(mu, tau), x))
    scale = max(natural_scale(tau), abs(ref))
    dev = abs(complex(value) - ref) / scale
    if not dev <= KERNEL_TOL:
        return f"{what}: K_{{{mu}+i{tau}}}({x}) = {value!r}, mpmath {ref!r}, scaled deviation {dev:.2e}"
    return None


def _rel(a, b):
    return abs(a - b) / abs(b)


def summability_target(s, a, b=None):
    """(pi/2) Gamma(s) Re(1 - sin(a + i b))^{-s}; b = None for psi1 = 1."""
    z = mp.mpc(a, 0 if b is None else b)
    return float(mp.pi / 2 * mp.gamma(s) * mp.re((1 - mp.sin(z)) ** (-s)))


def json_problem(text, what):
    """None if a JSON document re-serializes byte for byte, else a message."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"{what}: not JSON ({exc})"
    if json.dumps(doc, indent=2, sort_keys=True) + "\n" != text:
        return f"{what}: JSON does not re-serialize byte for byte"
    return None


def _keep(problems, *found):
    problems.extend(p for p in found if p)


# ---------------------------------------------------------------------------
# catalog_certify

def check_catalog(seed, rep, out):
    problems = []
    inp = inputs.catalog_inputs(seed, rep)
    if out["orders"] != list(inputs.CATALOG_ORDERS):
        problems.append(f"kernel orders {out['orders']} are not the catalog's {inputs.CATALOG_ORDERS}")
    if len(out["certificates"]) != inputs.CATALOG_SIZE:
        problems.append(f"{len(out['certificates'])} certificates, expected {inputs.CATALOG_SIZE}")
    for c in out["certificates"]:
        if not (c["passed"] and c["indeterminate"] == 0 and 0.0 < c["max_ratio"] <= 1.0 + RATIO_SLACK):
            problems.append(f"certificate {c['id']}: passed={c['passed']}, "
                            f"indeterminate={c['indeterminate']}, max_ratio={c['max_ratio']!r}")
    xs, taus = inputs.grid_axes(inp["x_lo"], inp["x_hi"], inp["tau_lo"], inp["tau_hi"])
    expected = {(mu, i) for mu in inputs.CATALOG_ORDERS for i in inp["samples"][repr(mu)]}
    seen = {(s["mu"], s["index"]) for s in out["samples"]}
    if seen != expected:
        problems.append(f"kernel samples {sorted(seen)} are not the drawn {sorted(expected)}")
    for s in out["samples"]:
        i = s["index"]
        x, tau = xs[i % inputs.GRID_N], taus[i // inputs.GRID_N]
        if _rel(s["x"], x) > 1e-12 or _rel(s["tau"], tau) > 1e-12:
            problems.append(f"sample {i} at ({s['x']}, {s['tau']}), grid point is ({x}, {tau})")
            continue
        value = None if s["re"] is None else complex(s["re"], s["im"])
        _keep(problems, kernel_problem(value, s["mu"], s["x"], s["tau"], f"grid value {i}"))
    return problems


# ---------------------------------------------------------------------------
# cli_session

def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"header is not {','.join(header)}")
    return [line.split(",") for line in lines[1:]]


def _check_eval(argv, text):
    rows = _csv_rows(text, ["x", "tau", "method", "N", "value", "error_estimate"])
    x, tau = float(argv[argv.index("--x") + 1]), float(argv[argv.index("--tau") + 1])
    if len(rows) != 1 or float(rows[0][0]) != x or float(rows[0][1]) != tau:
        return [f"eval: rows {rows} are not the point ({x}, {tau})"]
    value, estimate = float(rows[0][4]), float(rows[0][5])
    problems = [kernel_problem(value, 0.0, x, tau, f"eval {rows[0][2]}")]
    if not estimate <= KERNEL_TOL * natural_scale(tau):
        problems.append(f"eval: cross-method error estimate {estimate:.2e} above tolerance")
    return problems


def _lebedev_15(x, tau):
    """Bound (1.5): Gamma(1/4) 2^{-1/2} x^{-1/4} sinh(pi tau)^{-1/2}."""
    return mp.gamma(0.25) / mp.sqrt(2) * mp.power(x, -0.25) / mp.sqrt(mp.sinh(mp.pi * tau))


def _check_certify(argv, text):
    rows = _csv_rows(text, ["id", "label", "params", "max_ratio", "worst_x", "worst_tau",
                            "indeterminate", "passed"])
    if len(rows) != 1 or rows[0][0] != "LEBEDEV_15":
        return [f"certify: rows {rows} are not one LEBEDEV_15 certificate"]
    _, _, _, ratio, wx, wt, indeterminate, passed = rows[0]
    ratio, wx, wt = float(ratio), float(wx), float(wt)
    if passed != "true" or indeterminate != "0" or not 0.0 < ratio <= 1.0 + RATIO_SLACK:
        return [f"certify: passed={passed}, indeterminate={indeterminate}, max_ratio={ratio!r}"]
    lo = {k: float(argv[argv.index(k) + 1]) for k in ("--x-min", "--x-max", "--tau-min", "--tau-max")}
    if not (lo["--x-min"] <= wx <= lo["--x-max"] and lo["--tau-min"] <= wt <= lo["--tau-max"]):
        return [f"certify: worst point ({wx}, {wt}) lies outside the grid"]
    ref = float(abs(mp.besselk(mp.mpc(0, wt), wx)) / _lebedev_15(wx, wt))
    if _rel(ratio, ref) > 1e-7:
        return [f"certify: max_ratio {ratio!r} but |K|/bound at the worst point is {ref!r} by mpmath"]
    return []


def _check_asympt(argv, text):
    problems = [json_problem(text, "asympt")]
    reports = json.loads(text)["reports"]
    x = float(argv[argv.index("--x") + 1])
    if len(reports) != int(argv[argv.index("--tau-count") + 1]):
        problems.append(f"asympt: {len(reports)} reports")
    for r in reports:
        what = f"asympt tau={r['tau']}"
        if r["x"] != x:
            problems.append(f"{what}: x={r['x']}, asked for {x}")
        if not r["within_bound"] or abs(r["remainder_measured"]) > r["remainder_bound"] * (1 + 1e-9):
            problems.append(f"{what}: remainder {r['remainder_measured']!r} over its bound")
        if abs(r["remainder_measured"] - r["remainder_explicit"]) > 1e-10:
            problems.append(f"{what}: measured remainder {r['remainder_measured']!r} "
                            f"!= explicit {r['remainder_explicit']!r}")
        problems.append(kernel_problem(r["k_value"], 0.0, r["x"], r["tau"], what))
    return problems


def _check_identities(argv, text):
    problems = [json_problem(text, "identities")]
    records = json.loads(text)["identities"]
    if len(records) != 5:
        problems.append(f"identities: {len(records)} records, expected 5")
    for r in records:
        if not (r["passed"] and r["residual"] <= r["tolerance"]):
            problems.append(f"identity {r['id']}: residual {r['residual']!r} > {r['tolerance']!r}")
    return problems


def _convergence_problems(what, schedule, pairings, target, true_target):
    """Target equals the closed form; errors shrink along the schedule to 1e-4."""
    problems = []
    if _rel(target, true_target) > 1e-12:
        problems.append(f"{what}: target {target!r}, closed form {true_target!r}")
    errors = [abs(p - true_target) for p in pairings]
    if len(errors) != len(schedule) or not all(e1 > e2 for e1, e2 in zip(errors, errors[1:])):
        problems.append(f"{what}: errors {errors} do not shrink along the schedule")
    elif errors[-1] > 1e-4 * abs(true_target):
        problems.append(f"{what}: final error {errors[-1]:.2e}")
    return problems


def _check_summ(argv, text):
    a = float(argv[argv.index("--a") + 1]) if "--a" in argv else 0.0
    b = float(argv[argv.index("--b") + 1]) if "cos" in argv else None
    true_target = summability_target(1.0, a, b)
    if "json" in argv:
        problems = [json_problem(text, "summ")]
        doc = json.loads(text)
        if not doc["converged"]:
            problems.append("summ: not converged")
        return problems + _convergence_problems(
            "summ", doc["epsilon_schedule"], doc["pairing_values"], doc["target"], true_target)
    rows = _csv_rows(text, ["epsilon", "pairing", "target", "error"])
    schedule = [float(r[0]) for r in rows]
    pairings = [float(r[1]) for r in rows]
    targets = {float(r[2]) for r in rows}
    if len(targets) != 1:
        return [f"summ: several targets {targets}"]
    return _convergence_problems("summ", schedule, pairings, targets.pop(), true_target)


def _check_catalog_listing(argv, text):
    problems = [json_problem(text, "catalog")]
    ids = [b["id"] for b in json.loads(text)["bounds"]]
    if len(ids) != inputs.CATALOG_SIZE or len(set(ids)) != len(ids):
        problems.append(f"catalog lists {len(ids)} bounds: {ids}")
    return problems


CLI_CHECKS = {
    "catalog": _check_catalog_listing,
    "eval": _check_eval,
    "certify": _check_certify,
    "asympt": _check_asympt,
    "identities": _check_identities,
    "summ": _check_summ,
}


def check_cli(seed, rep, out):
    """``out`` holds one {argv, rc, stdout} per command, None for a failed one."""
    problems = []
    for argv, cmd in zip(inputs.cli_inputs(seed, rep), out["commands"]):
        if cmd is None:
            continue
        what = " ".join(argv[:3])
        if cmd["argv"] != argv:
            problems.append(f"{what}: ran {cmd['argv']}")
        elif cmd["rc"] != 0:
            problems.append(f"{what}: exit code {cmd['rc']}")
        else:
            try:
                _keep(problems, *CLI_CHECKS[argv[0]](argv, cmd["stdout"]))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"{what}: unreadable output ({type(exc).__name__}: {exc})")
    return problems


# ---------------------------------------------------------------------------
# paper_checks

def _stirling_r(tau):
    """r(tau) with Gamma(i tau) = sqrt(2 pi/tau) e^{-pi tau/2} e^{i(tau log(tau/e) - pi/4)} (1 + r)."""
    tau = mp.mpf(tau)
    lead = mp.sqrt(2 * mp.pi / tau) * mp.exp(-mp.pi * tau / 2) * mp.expj(tau * mp.log(tau / mp.e) - mp.pi / 4)
    return complex(mp.gamma(mp.mpc(0, tau)) / lead - 1)


def _closed_cosh(s, a):
    return mp.pi * mp.gamma(2 * s) * (2 * mp.cos(mp.pi / 4 + a / 2)) ** (-2 * s)


def _closed_sinh(s, a):
    half = mp.pi / 4 + mp.mpf(a) / 2
    return mp.pi * mp.gamma(2 * s + 1) * (2 * mp.cos(half)) ** (-2 * s - 1) * mp.sin(half)


def _olenko(nu):
    """Olenko's estimate b sqrt(nu^{1/3} + alpha nu^{-1/3} + 3 alpha^2 / (10 nu))."""
    b, alpha = 0.674885, 1.855757
    cube = nu ** (1.0 / 3.0)
    return b * math.sqrt(cube + alpha / cube + 0.3 * alpha * alpha / nu)


def _check_cross(inp, rows):
    problems = []
    if [tuple(r[:2]) for r in rows] != [tuple(p) for p in inp["cross"]]:
        return ["cross-method: points are not the drawn ones"]
    for x, tau, *values in rows:
        _keep(problems, kernel_problem(values[0], 0.0, x, tau, "cross-method oracle"))
        spread = (max(values) - min(values)) / natural_scale(tau)
        if spread > KERNEL_TOL:
            problems.append(f"cross-method ({x}, {tau}): methods spread {spread:.2e} of the scale")
    return problems


def _check_raising(inp, rows):
    problems = []
    if [tuple(r[:2]) for r in rows] != [tuple(p) for p in inp["raising"]]:
        return ["index raising: points are not the drawn ones"]
    for x, tau, k0, re1, im1 in rows:
        residual = abs(tau * k0 - x * im1) / abs(tau * k0)
        if residual > 1e-10:
            problems.append(f"index raising ({x}, {tau}): tau K - x Im K_(1+i tau) residual {residual:.2e}")
    for x, tau, k0, re1, im1 in rows[::12]:
        _keep(problems, kernel_problem(complex(re1, im1), 1.0, x, tau, "index raising K_(1+i tau)"))
    return problems


def _check_remainder(r):
    problems = []
    if not r["grid_ok"]:
        problems.append("remainder theorem: a report exceeds its bound on the 6x3 grid")
    if not r["decay_worst"] <= r["cap"]:
        problems.append(f"remainder theorem: max tau|R| {r['decay_worst']:.3e} > {r['cap']:.3e}")
    for tau, re, im in r["stirling"]:
        ref = _stirling_r(tau)
        if abs(complex(re, im) - ref) > 1e-12 or abs(complex(re, im)) > math.expm1(1 / (6 * tau)):
            problems.append(f"Stirling remainder at tau={tau}: {complex(re, im)!r}, mpmath {ref!r}")
    return problems


def _check_tau_integrals(rows):
    problems = []
    for s, a, cosh_rhs, sinh_rhs in rows:
        pre = 2.0 ** (-s) * math.sqrt(math.pi) / math.gamma(s + 0.5)
        for name, value, closed in (("cosh", cosh_rhs, _closed_cosh(s, a)),
                                    ("sinh", sinh_rhs, _closed_sinh(s, a))):
            dev = _rel(value / pre, float(closed))
            if dev > 1e-8:
                problems.append(f"tau integral {name} s={s} a={a}: deviation {dev:.2e}")
    return problems


def _check_theorem3(t):
    problems = [] if t["converged"] else ["theorem3 cos: not converged"]
    target = summability_target(1.0, t["a"], 0.05)
    if _rel(t["target"], target) > 1e-12:
        problems.append(f"theorem3 cos: target {t['target']!r}, closed form {target!r}")
    # the pairing bias is linear in eps: extrapolate from the last two entries
    (e1, e2), (p1, p2) = t["schedule"][-2:], t["pairings"][-2:]
    limit = (e1 * p2 - e2 * p1) / (e1 - e2)
    if _rel(limit, target) > 1e-6:
        problems.append(f"theorem3 cos: extrapolated limit {limit!r}, closed form {target!r}")
    return problems


def _check_bessel_sup(measured, olenko):
    problems = []
    c = dict(measured)
    for nu in (0.0, 0.5):
        if abs(c[nu] - math.sqrt(2.0 / math.pi)) > 1e-6:
            problems.append(f"measure_c({nu}) = {c[nu]!r}, Szego limit sqrt(2/pi)")
    for nu, value in olenko:
        if _rel(value, _olenko(nu)) > 1e-14:
            problems.append(f"olenko_c({nu}) = {value!r}, formula gives {_olenko(nu)!r}")
        elif nu in c and not value >= c[nu]:
            problems.append(f"olenko_c({nu}) = {value!r} below the measured sup {c[nu]!r}")
    return problems


def _check_abel(trace):
    """f_eps at a = 0 tends to pi/2 linearly in eps."""
    eps = [e for e, _ in trace]
    errors = [abs(v - math.pi / 2) for _, v in trace]
    if not all(e1 > 5 * e2 for e1, e2 in zip(errors, errors[1:])):
        return [f"f_epsilon: errors {errors} against pi/2 do not shrink with eps"]
    (e1, p1), (e2, p2) = trace[-2:]
    limit = (e1 * p2 - e2 * p1) / (e1 - e2)
    if abs(limit - math.pi / 2) > 1e-4:
        return [f"f_epsilon: extrapolated limit {limit!r}, expected pi/2 (eps {eps})"]
    return []


def check_paper(seed, rep, out):
    problems = []
    inp = inputs.paper_inputs(seed, rep)
    if out["cross"] is not None:
        problems += _check_cross(inp, out["cross"])
    if out["raising"] is not None:
        problems += _check_raising(inp, out["raising"])
    for rid, residual in out["representations"].items():
        if residual is not None and not residual <= REPRESENTATION_TOL[rid]:
            problems.append(f"{rid}: residual {residual:.2e} > {REPRESENTATION_TOL[rid]:.0e}")
    if out["remainder"] is not None:
        problems += _check_remainder(out["remainder"])
    if out["tau_integrals"] is not None:
        problems += _check_tau_integrals(out["tau_integrals"])
    for t in out["theorem2"]:
        if t is not None:
            problems += [] if t["converged"] else [f"theorem2 a={t['a']}: not converged"]
            problems += _convergence_problems(f"theorem2 a={t['a']}", t["schedule"], t["pairings"],
                                              t["target"], summability_target(1.0, t["a"]))
    if out["theorem3"] is not None:
        problems += _check_theorem3(out["theorem3"])
    if out["measure_c"] is not None and out["olenko_c"] is not None:
        problems += _check_bessel_sup(out["measure_c"], out["olenko_c"])
    if all(v is not None for _, v in out["f_epsilon"]):
        problems += _check_abel(out["f_epsilon"])
    if out["mellin_theorem3"] is not None:
        target = summability_target(1.0, 0.0, 0.05)
        if _rel(out["mellin_theorem3"], target) > 1e-10:
            problems.append(f"Mellin pairing of the operator limit {out['mellin_theorem3']!r}, "
                            f"closed form {target!r}")
    for name in ("mellin_k_identity", "gamma_product_identity"):
        if out[name] is not None and not out[name] <= 1e-10:
            problems.append(f"{name}: relative residual {out[name]:.2e}")
    return problems


CHECKS = {"catalog_certify": check_catalog, "cli_session": check_cli, "paper_checks": check_paper}
