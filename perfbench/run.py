"""klbessel benchmark: a cold CLI session, the full catalog certification, the paper's checks.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every repetition runs in fresh
interpreters with ``PYTHONPATH=<checkout>/src``, BLAS and OpenMP pinned to
one thread and ``KLBESSEL_WORKERS`` unset: a closed loop with one client,
pinned to one vCPU.  Every timed process scales its times to a reference
machine speed with a probe loop run beside the work (speed.py), because the
machine's own speed changes from second to second.  Repetitions start until
``--seconds`` have passed, so a run does whole batches only.  Then the outputs of every repetition are checked against
mpmath and closed forms (checks.py), outside the timed part.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
machine, the library versions, the thread settings and the samples; the
same record goes to ``perfbench/out/``.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("cli_session", "catalog_certify", "paper_checks")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up samples taken by extra fresh interpreters in each repetition, on top
# of the one the in-process worker gives; a run then has at least about six
SETUP_PROBES = {"cli_session": 2, "catalog_certify": 0, "paper_checks": 1}
CHILD_TIMEOUT = 150
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# reported by a traced run beside the per-layer metrics of tracer.py
OVERHEAD_UNITS = {"trace.traced_wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_pct": "%"}

# One CLI command in a fresh interpreter: time the import and main(argv),
# and report them, the exit code, the peak memory and the speed clock (which
# runs from before the import to after main) to the file in argv[1].
CLI_CHILD = r"""
import sys, time
sys.path.insert(0, {here!r})
import speed
report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
clock = speed.Clock(every=None if mode == "trace" else speed.SAMPLE_S)
clock.start()
t0 = time.perf_counter()
from klbessel.cli import main
t1 = time.perf_counter()
tracer = None
if mode == "trace":
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    main = tracer.wrap("cli.main", main)
t2 = time.perf_counter()
rc = main(argv)
t3 = time.perf_counter()
sys.stdout.flush()
clock.stop()
t4 = time.perf_counter()
import json
from worker import peak_rss_kb
doc = {{"import_s": t1 - t0, "main_s": t3 - t2, "rc": rc, "peak_rss_kb": peak_rss_kb(),
        "clock": clock.figures()}}
if tracer:
    doc["trace"] = tracer.aggregate()
    doc["missing"] = tracer.missing
    with open(report_path + ".spans.jsonl", "w") as fh:
        tracer.dump(fh)
doc["overhead_s"] = (t2 - t1) + (time.perf_counter() - t4)
with open(report_path, "w") as fh:
    json.dump(doc, fh)
sys.exit(rc)
"""


class BenchError(Exception):
    """The benchmark itself could not run (not a fault counted in ``failed``)."""


def child_env():
    env = dict(os.environ)
    env.pop("KLBESSEL_WORKERS", None)
    env.pop("PYTHONSTARTUP", None)
    # cache bytecode as an installed package has it, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def spawn_worker(workload, seed, rep, mode, env, spans_path=None):
    """Start worker.py; return ((set-up s, scaled set-up s), the worker's JSON report or None).

    The set-up time runs from the spawn until the worker prints ``READY``;
    it is scaled to reference speed with the worker's own set-up clock.
    """
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(rep), mode]
    if spans_path:
        argv.append(spans_path)
    err_path = os.path.join(OUT, f"{workload}-worker.stderr")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        # unbuffered, so that readline() takes only the READY line and
        # communicate() gets everything after it
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env,
                                bufsize=0)
        try:
            first = proc.stdout.readline().decode()
            setup = time.perf_counter() - start
            rest = proc.communicate(timeout=CHILD_TIMEOUT)[0].decode()
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {workload} {mode} did not end within {CHILD_TIMEOUT} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker {workload} {mode} exited {proc.returncode}: {tail}")
    if mode == "setup":
        return (setup, speed.scaled_outside(setup, json.loads(rest))), None
    report = json.loads(rest.strip().splitlines()[-1])
    if not report["klbessel_file"].startswith(os.path.join(ROOT, "src")):
        raise BenchError(f"imported klbessel from {report['klbessel_file']}, not this checkout")
    return (setup, speed.scaled_outside(setup, report["setup_clock"])), report


def rep_in_process(workload, seed, rep, traced, env):
    setups = [spawn_worker(workload, seed, rep, "setup", env)[0]
              for _ in range(SETUP_PROBES[workload])]
    spans = os.path.join(OUT, f"trace-{workload}-seed{seed}-rep{rep}.jsonl") if traced else None
    if spans and os.path.exists(spans):
        os.remove(spans)
    setup, report = spawn_worker(workload, seed, rep, "trace" if traced else "run", env, spans)
    return {
        "wall_s": report["wall_s"], "ref_wall_s": report["ref_s"], "setup_s": setups + [setup],
        "peak_rss_kb": report["peak_rss_kb"], "attempted": report["attempted"],
        "failed": report["failed"], "errors": report["errors"], "outputs": report["outputs"],
        "trace": report.get("trace"), "missing": report.get("missing", []), "cli": {},
    }


def rep_cli(seed, rep, traced, env):
    """One CLI session: each command in a fresh interpreter, one after the other.

    Each command's time, from spawn to exit, is scaled to reference speed
    with the command's own speed clock.
    """
    setups = [spawn_worker("cli_session", seed, rep, "setup", env)[0]
              for _ in range(SETUP_PROBES["cli_session"])]
    code = CLI_CHILD.format(here=HERE)
    mode = "trace" if traced else "run"
    commands, errors, walls, ref_walls, peaks, aggs, missing = [], [], [], [], [], [], set()
    import_s = interpreter_s = 0.0
    for i, argv in enumerate(inputs.cli_inputs(seed, rep)):
        report_path = os.path.join(OUT, f"cli-{i}.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", code, report_path, mode] + argv,
                                  capture_output=True, text=True, cwd=ROOT, env=env,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"klbessel {' '.join(argv)} did not end within {CHILD_TIMEOUT} s")
        wall = time.perf_counter() - start
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        # exit 1 is a reported check failure, judged by the checks; 2, 3 or a
        # crash is a failed operation
        if report is None or proc.returncode not in (0, 1):
            errors.append(f"klbessel {' '.join(argv)}: exit {proc.returncode}: {proc.stderr[-500:]}")
            commands.append(None)
            continue
        commands.append({"argv": argv, "rc": proc.returncode, "stdout": proc.stdout})
        walls.append(wall - report["clock"]["probing"])
        ref_walls.append(speed.scaled_outside(wall, report["clock"]))
        peaks.append(report["peak_rss_kb"])
        import_s += report["import_s"]
        interpreter_s += walls[-1] - report["import_s"] - report["main_s"] - report["overhead_s"]
        if traced:
            aggs.append(report["trace"])
            missing.update(report["missing"])
    return {
        "wall_s": sum(walls), "ref_wall_s": sum(ref_walls), "setup_s": setups,
        "peak_rss_kb": max(peaks, default=0),
        "attempted": len(commands), "failed": len(errors), "errors": errors,
        "outputs": {"commands": commands},
        "trace": tracing.merge(aggs) if traced else None, "missing": sorted(missing),
        "cli": {"import_s": import_s, "interpreter_s": interpreter_s},
    }


def run_rep(workload, seed, rep, traced, env):
    if workload == "cli_session":
        return rep_cli(seed, rep, traced, env)
    return rep_in_process(workload, seed, rep, traced, env)


def machine_record(args, env):
    import mpmath
    import numpy
    import scipy
    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the build-info layout differs between numpy versions
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "mpmath": mpmath.__version__,
        "thread_env": {k: env.get(k) for k in THREAD_ENV + ("KLBESSEL_WORKERS",)},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "klbessel", "cli.py")):
        print(f"error: no klbessel source under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    speed.pin_to_one_cpu()
    try:
        # not timed: compiles the bytecode a user's first run would also leave behind
        spawn_worker(args.workload, args.seed, 0, "setup", env)
        reps = []
        start = time.perf_counter()
        # a traced run alternates untraced and traced repetitions, in pairs
        step = 2 if args.trace else 1
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(args.workload, args.seed, len(reps), traced, env))
            elapsed = time.perf_counter() - start
            # stop where one more step would end past --seconds
            if len(reps) % step == 0 and elapsed + elapsed * step / len(reps) > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    import checks
    problems = []
    for rep, r in enumerate(reps):
        problems += [f"rep {rep}: {p}" for p in checks.CHECKS[args.workload](args.seed, rep, r["outputs"])]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for i, r in enumerate(reps) if not (args.trace and i % 2 == 1)]
    traced = [r for i, r in enumerate(reps) if args.trace and i % 2 == 1]

    if args.trace:
        per_rep = [tracing.layer_metrics(r["trace"], r["cli"], set(r["missing"])) for r in traced]
        units = tracing.metric_units()
        missing = sorted({m for r in traced for m in r["missing"]})
        metrics = {}
        for name, unit in units.items():
            values = [v[name] for v in per_rep]
            metrics[name] = ({"value": None, "unit": unit, "missing": True} if None in values
                             else {"value": statistics.median(values), "unit": unit})
        traced_wall = statistics.median(r["ref_wall_s"] for r in traced)
        plain_wall = statistics.median(r["ref_wall_s"] for r in plain)
        values = {"trace.traced_wall_s": traced_wall, "trace.untraced_wall_s": plain_wall,
                  "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0)}
        metrics.update((k, {"value": values[k], "unit": u}) for k, u in OVERHEAD_UNITS.items())
    else:
        missing = []
        values = {
            "wall_s": statistics.median(r["ref_wall_s"] for r in plain),
            "setup_s": statistics.median(ref for r in plain for _, ref in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    record = machine_record(args, env)
    record.update({
        "repetitions": len(reps), "attempted": attempted, "failed": failed,
        "errors": [e for r in reps for e in r["errors"]], "problems": problems,
        "missing": missing,
        "wall_samples": [r["ref_wall_s"] for r in plain],
        "setup_samples": [ref for r in plain for _, ref in r["setup_s"]],
        "plain_wall_samples": [r["wall_s"] for r in plain],
        "plain_setup_samples": [raw for r in plain for raw, _ in r["setup_s"]],
        "peak_rss_kb_samples": [r["peak_rss_kb"] for r in plain],
    })
    if args.trace:
        record["traced_wall_samples"] = [r["ref_wall_s"] for r in traced]
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
