"""Self-test of the benchmark: every check rejects a perturbed output.

usage: python3 perfbench/selftest.py

Runs one real repetition of each workload (about 30 s), confirms that the
checks pass on its outputs, then perturbs one output at a time and confirms
that the checks report it.  It also confirms that the tracer reports a
renamed function as missing and still completes.  Exits 1 on any failure.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import natural_scale  # noqa: E402


def _scaled_kick(value, tau, size=1e-6):
    return value + size * max(natural_scale(tau), abs(value))


# ---------------------------------------------------------------------------
# perturbations: name -> function that edits a deep copy of one rep's outputs

def _kick_sample(o):
    s = o["samples"][0]
    s["re"] = _scaled_kick(s["re"], s["tau"])


CATALOG = {
    "kernel value off mpmath": _kick_sample,
    "sample at another point": lambda o: o["samples"][1].update(x=o["samples"][1]["x"] * 1.001),
    "ratio above one": lambda o: o["certificates"][0].update(max_ratio=1.01),
    "certificate failed": lambda o: o["certificates"][3].update(passed=False),
    "indeterminate point": lambda o: o["certificates"][5].update(indeterminate=1),
    "certificate missing": lambda o: o["certificates"].pop(),
    "kernel order missing": lambda o: o["orders"].pop(),
}


def _cli(o, command):
    """The first command named ``command``; ``eval-defseries`` picks the defseries one."""
    name, _, variant = command.partition("-")
    return next(c for c in o["commands"]
                if c["argv"][0] == name and (variant in c["argv"]) == bool(variant))


def _edit_csv(o, command, column, fn, row=0):
    c = _cli(o, command)
    lines = c["stdout"].splitlines(keepends=True)
    fields = lines[1 + row].rstrip("\r\n").split(",")
    fields[column] = fn(fields[column])
    lines[1 + row] = ",".join(fields) + "\r\n"
    c["stdout"] = "".join(lines)


def _edit_json(o, command, fn, argv_has=None):
    c = next(c for c in o["commands"] if c["argv"][0] == command
             and (argv_has is None or argv_has in c["argv"]))
    doc = json.loads(c["stdout"])
    fn(doc)
    c["stdout"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _scale(factor):
    return lambda text: repr(float(text) * factor)


def _asympt_row(key, fn):
    def edit(doc):
        r = doc["reports"][3]
        r[key] = fn(r[key])
    return edit


CLI = {
    "eval value off mpmath": lambda o: _edit_csv(o, "eval", 4, _scale(1 + 1e-6)),
    "eval error estimate large": lambda o: _edit_csv(o, "eval", 5, lambda t: "1e-3"),
    "defseries value off mpmath": lambda o: _edit_csv(o, "eval-defseries", 4, _scale(1 + 1e-6)),
    "certify ratio off mpmath": lambda o: _edit_csv(o, "certify", 3, _scale(1.001)),
    "certify failed": lambda o: _edit_csv(o, "certify", 7, lambda t: "false"),
    "certify indeterminate": lambda o: _edit_csv(o, "certify", 6, lambda t: "2"),
    "asympt explicit remainder": lambda o: _edit_json(
        o, "asympt", _asympt_row("remainder_explicit", lambda v: v + 1e-8)),
    "asympt kernel value": lambda o: _edit_json(
        o, "asympt", _asympt_row("k_value", lambda v: v * (1 + 1e-6))),
    "asympt over bound": lambda o: _edit_json(o, "asympt", _asympt_row("within_bound", lambda v: False)),
    "asympt JSON layout": lambda o: _cli(o, "asympt").update(
        stdout=_cli(o, "asympt")["stdout"].replace("\n  ", "\n   ", 1)),
    "identity residual": lambda o: _edit_json(
        o, "identities", lambda d: d["identities"][1].update(residual=1e-3)),
    "catalog entry missing": lambda o: _edit_json(o, "catalog", lambda d: d["bounds"].pop()),
    "summ cos pairing": lambda o: _edit_csv(o, "summ", 1, _scale(1 + 1e-3), row=4),
    "summ cos target": lambda o: _edit_csv(o, "summ", 2, _scale(1 + 1e-9), row=0),
    "summ a=0.5 target": lambda o: _edit_json(
        o, "summ", lambda d: d.update(target=d["target"] * (1 + 1e-9)), argv_has="--a"),
    "summ a=0.5 not converged": lambda o: _edit_json(
        o, "summ", lambda d: d.update(converged=False), argv_has="--a"),
    "nonzero exit": lambda o: _cli(o, "identities").update(rc=1),
}


def _set(path, fn):
    def edit(o):
        *head, last = path
        node = o
        for key in head:
            node = node[key]
        node[last] = fn(node[last])
    return edit


PAPER = {
    "oracle off mpmath": lambda o: o["cross"][0].__setitem__(2, _scaled_kick(o["cross"][0][2], o["cross"][0][1])),
    "key formula spread": lambda o: o["cross"][3].__setitem__(6, _scaled_kick(o["cross"][3][6], o["cross"][3][1])),
    "index raising residual": _set(("raising", 2, 2), lambda v: v * (1 + 1e-8)),
    "complex order off mpmath": _set(("raising", 0, 3), lambda v: v * (1 + 1e-6) + 1e-30),
    "representation residual": _set(("representations", "EQ_1_6"), lambda v: 1e-7),
    "remainder grid": _set(("remainder", "grid_ok"), lambda v: False),
    "remainder decay": lambda o: o["remainder"].update(decay_worst=o["remainder"]["cap"] * 1.01),
    "Stirling remainder": _set(("remainder", "stirling", 2, 1), lambda v: v + 1e-10),
    "tau integral": _set(("tau_integrals", 5, 2), lambda v: v * (1 + 1e-7)),
    "theorem2 target": _set(("theorem2", 1, "target"), lambda v: v * (1 + 1e-10)),
    "theorem2 final pairing": _set(("theorem2", 0, "pairings", -1), lambda v: v + 1e-3),
    "theorem3 target": _set(("theorem3", "target"), lambda v: v * (1 + 1e-10)),
    "theorem3 pairing": _set(("theorem3", "pairings", -1), lambda v: v + 1e-5),
    "Szego limit": _set(("measure_c", 0, 1), lambda v: v + 1e-5),
    "Olenko constant": _set(("olenko_c", 1, 1), lambda v: v * (1 + 1e-10)),
    "Abel trace": _set(("f_epsilon", 2, 1), lambda v: v + 1e-3),
    "Mellin pairing of the limit": _set(("mellin_theorem3",), lambda v: v * (1 + 1e-9)),
    "Mellin identity residual": _set(("mellin_k_identity",), lambda v: 1e-9),
    "gamma product residual": _set(("gamma_product_identity",), lambda v: 1e-9),
}

PERTURBATIONS = {"catalog_certify": CATALOG, "cli_session": CLI, "paper_checks": PAPER}


def check_workload(workload, env):
    seed, rep = 7, 0
    outputs = run.run_rep(workload, seed, rep, False, env)["outputs"]
    check = checks.CHECKS[workload]
    failures = [f"{workload}: real outputs rejected: {p}" for p in check(seed, rep, outputs)]
    for name, perturb in PERTURBATIONS[workload].items():
        bad = copy.deepcopy(outputs)
        perturb(bad)
        if not check(seed, rep, bad):
            failures.append(f"{workload}: perturbation not caught: {name}")
    print(f"{workload}: {len(PERTURBATIONS[workload])} perturbations tried", flush=True)
    return failures


def check_missing_function():
    """A renamed traced function is reported missing; the rest is still measured."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import klbessel as kb
    targets = tuple((label, module, attr + "_renamed" if label == "kernel.oracle" else attr)
                    for label, module, attr in tracing.TARGETS)
    t = tracing.Tracer(targets)
    missing = t.install()
    kb.k_itau_keyformula(kb.EvaluationPoint(1.0, 1.0), 2)
    values = tracing.layer_metrics(t.aggregate(), {}, set(missing))
    failures = []
    if missing != ["kernel.oracle"]:
        failures.append(f"tracer: missing {missing}, expected ['kernel.oracle']")
    for name in ("kernel.oracle.calls", "kernel.oracle.s", "kernel.ms_per_value"):
        if values[name] is not None:
            failures.append(f"tracer: {name} = {values[name]}, expected missing")
    if values["kernel.keyformula.calls"] != 1 or not values["quadrature.integrate.calls"] >= 1:
        failures.append(f"tracer: key formula call not traced: {values}")
    return failures


def check_benchmark_json():
    """BENCHMARK.json lists exactly the metrics run.py reports, with the same units."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    failures = []
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", dict(tracing.metric_units(), **run.OVERHEAD_UNITS))):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != units:
            failures.append(f"BENCHMARK.json {key} {sorted(set(listed) ^ set(units))} "
                            "differ from the metrics run.py reports")
    if [w["name"] for w in doc["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return failures


def main():
    os.makedirs(run.OUT, exist_ok=True)
    env = run.child_env()
    failures = check_benchmark_json() + check_missing_function()
    for workload in run.WORKLOADS:
        failures += check_workload(workload, env)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
