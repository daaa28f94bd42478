"""Reference figures for the baseline rows of ROADMAP.md, measured once.

usage: python3 perfbench/reference_figures.py

Prints a Markdown table: the import and each command of the CLI session in
fresh interpreters, single kernel points, f_epsilon(1e-3), each
representation verifier, each catalog order's 25x25 kernel grid, and the
Mellin pairing of theorem3_value with the default 16-term cos_spec (about
15-25 s).  Point timings are the median of repeated calls; every other row is
a single run.  Threads are pinned as in the benchmark.  Takes about a minute.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402


# the commands of inputs.cli_inputs, in order
CLI_LABELS = ("catalog", "eval (oracle)", "eval --method defseries", "certify --id LEBEDEV_15",
              "asympt --tau-count 12", "identities", "summ --psi1 cos --b 0.05", "summ --a 0.5")


def _timed(fn, repeat=1):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def in_process_rows():
    import klbessel as kb
    from klbessel.summability import SummabilityQuery

    p11 = kb.EvaluationPoint(1.0, 1.0)
    rows = [
        ("oracle point (1, 1)", _timed(lambda: kb.k_itau_oracle(p11), 50), "ms"),
        ("oracle point (0.01, 40)",
         _timed(lambda: kb.k_itau_oracle(kb.EvaluationPoint(0.01, 40.0)), 50), "ms"),
        ("key formula N=4 at (1, 1)", _timed(lambda: kb.k_itau_keyformula(p11, 4), 50), "ms"),
        ("complex order 0.5 + i at x=1",
         _timed(lambda: kb.k_complex_order(kb.OrderSpec(0.5, 1.0), 1.0), 50), "ms"),
        ("defseries at (1, 1)", _timed(lambda: kb.k_itau_defseries(p11), 50), "ms"),
        ("f_epsilon(a=0, eps=1e-3)", _timed(lambda: kb.f_epsilon(SummabilityQuery(a=0.0), 1e-3)), "s"),
    ]
    for rid, x, tau in (("EQ_1_27", 1.0, 1.0), ("EQ_1_6", 1.0, 1.0),
                        ("EQ_1_4", 0.5, 1.0), ("EQ_1_21", 0.5, 2.0)):
        p = kb.EvaluationPoint(x, tau)
        rows.append((f"verify_representation {rid} at ({x}, {tau})",
                     _timed(lambda: kb.verify_representation(rid, p), 5), "ms"))
    grid = kb.default_grid()
    for mu in inputs.CATALOG_ORDERS:
        rows.append((f"25x25 kernel grid, order {mu}",
                     _timed(lambda: kb.kernel_grid_values(grid, mu)), "s"))
    spec = kb.cos_spec(0.05)
    rows.append(("mellin_pair(theorem3_value, cos_spec(0.05), 16 terms)",
                 _timed(lambda: kb.mellin_pair(
                     lambda x: kb.theorem3_value(x, 0.0, spec, kb.PSI_ZERO), 1.0)), "s"))
    return rows


def cli_rows(env):
    code = run.CLI_CHILD.format(here=HERE)
    report = os.path.join(run.OUT, "reference-cli.json")
    rows, imports = [], []
    for label, argv in zip(CLI_LABELS, inputs.cli_inputs(0, 0)):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, report, "run"] + argv, cwd=run.ROOT,
                       env=env, capture_output=True, check=True, timeout=run.CHILD_TIMEOUT)
        rows.append((f"CLI `{label}`, fresh process", time.perf_counter() - start, "s"))
        with open(report) as fh:
            imports.append(json.load(fh)["import_s"])
    return [("`import klbessel.cli` (median of the session)", statistics.median(imports), "s")] + rows


def main():
    if sys.argv[1:] == ["--in-process"]:
        for name, seconds, unit in in_process_rows():
            print(f"{name}\t{seconds}\t{unit}")
        return 0
    os.makedirs(run.OUT, exist_ok=True)
    env = run.child_env()
    rows = cli_rows(env)
    proc = subprocess.run([sys.executable, __file__, "--in-process"], cwd=run.ROOT, env=env,
                          capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines():
        name, seconds, unit = line.split("\t")
        rows.append((name, float(seconds), unit))
    print("| what | time |\n|---|---|")
    for name, seconds, unit in rows:
        value = seconds * 1e3 if unit == "ms" else seconds
        print(f"| {name} | {value:.3g} {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
