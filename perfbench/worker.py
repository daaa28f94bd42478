"""One repetition of an in-process workload, in a fresh interpreter.

usage: python3 perfbench/worker.py WORKLOAD SEED REP MODE [SPANS_PATH]

MODE is ``setup`` (import and build the inputs, then exit), ``run`` (then
run one batch) or ``trace`` (the same batch with every traced function
wrapped; the spans go to SPANS_PATH).  The worker prints ``READY`` once the
first call could be made, which is where the parent stops its set-up clock.
The worker clocks its set-up and each operation of the batch itself, plainly
and scaled to reference speed (speed.py).  In set-up mode it then prints its
set-up clock as JSON and exits; otherwise it prints, after a batch, one JSON
line with both clocks, the operations attempted and failed, the peak
resident memory and the outputs the parent checks.  Nothing else goes to
stdout.

Only the public surface is driven: names in ``__all__`` of ``klbessel`` and
its modules, looked up at call time so that a traced run sees every call.
"""

import sys

import inputs
import speed


def peak_rss_kb():
    """High-water resident set of this process (VmHWM), in KiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Batch:
    """Runs the operations of one batch, counting those that raise.

    Only the operations are timed, by a ``speed.Clock`` that probes the
    machine's speed after each one and every 0.25 s inside it (not in a
    traced run, where the probes would land in the spans).
    """

    def __init__(self, clock):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.clock = clock

    def run(self, name, fn, *args, **kwargs):
        self.attempted += 1
        self.clock.start()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.clock.stop()

    def skip(self, name, reason):
        """Count an operation that could not run because one it needs failed."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{name}: not run: {reason}")


# ---------------------------------------------------------------------------
# catalog_certify: all 17 bounds on one seeded 25x25 grid, sharing kernel
# values per order as `klbessel certify --all` does

def setup_catalog(kb, seed, rep):
    inp = inputs.catalog_inputs(seed, rep)
    grid = kb.default_grid(inputs.GRID_N, inputs.GRID_N, inp["x_lo"], inp["x_hi"],
                           inp["tau_lo"], inp["tau_hi"])
    return inp, grid, kb.all_default_descriptors()


def run_catalog(kb, batch, state):
    inp, grid, descriptors = state
    cfg = kb.DEFAULT_CONFIG
    values, certs = {}, []
    for d in descriptors:
        if d.order_mu not in values:
            values[d.order_mu] = batch.run(
                f"kernel_grid_values mu={d.order_mu}", kb.kernel_grid_values, grid, d.order_mu, cfg)
        kv = values[d.order_mu]
        if kv is None:
            batch.skip(d.id, "its kernel values failed")
            continue
        cert = batch.run(d.id, kb.certify_bound, d, grid, cfg, kernel_values=kv)
        if cert is not None:
            certs.append({"id": d.id, "order_mu": d.order_mu, "passed": cert.passed,
                          "max_ratio": cert.max_ratio, "indeterminate": len(cert.indeterminate)})
    samples = []
    for mu, kv in values.items():
        for i in inp["samples"].get(repr(mu), []) if kv is not None else []:
            v = kv[i]
            samples.append({"mu": mu, "index": i, "x": grid[i].x, "tau": grid[i].tau,
                            "re": None if v is None else v.real,
                            "im": None if v is None else v.imag})
    return {"orders": sorted(values), "certificates": certs, "samples": samples}


# ---------------------------------------------------------------------------
# paper_checks: the paper's other results, each against an independent form

FEPS_SCHEDULE = (1e-1, 1e-2, 1e-3)
STIRLING_TAUS = (0.5, 1.0, 3.0, 10.0, 40.0)
REPRESENTATIONS = (("EQ_1_27", 1.0, 1.0), ("EQ_1_6", 1.0, 1.0),
                   ("EQ_1_4", 0.5, 1.0), ("EQ_1_21", 0.5, 2.0))
MEASURE_NU = (0.0, 0.5, 1.0, 2.0, 5.0)
OLENKO_NU = (0.5, 1.0, 2.0, 5.0)
TAU_INTEGRAL_S = (0.5, 1.0, 1.5)
TAU_INTEGRAL_A = (0.0, 0.3, 0.7, 1.2)
MELLIN_B, MELLIN_TERMS = 0.05, 6


def setup_paper(kb, seed, rep):
    inp = inputs.paper_inputs(seed, rep)
    return {
        "cross": [kb.EvaluationPoint(x, t) for x, t in inp["cross"]],
        "raising": [kb.EvaluationPoint(x, t) for x, t in inp["raising"]],
        "representations": [(rid, kb.EvaluationPoint(x, t)) for rid, x, t in REPRESENTATIONS],
        "theorem2": [kb.SummabilityQuery(a=a, psi1=kb.PSI_ONE, psi2=kb.PSI_ZERO, mellin_s=1.0)
                     for a in (0.0, 0.5)],
        "theorem3": kb.SummabilityQuery(a=0.0, psi1=kb.cos_spec(0.05), psi2=kb.PSI_ZERO,
                                        mellin_s=1.0),
        "abel": kb.SummabilityQuery(a=0.0),
        "mellin_spec": kb.cos_spec(MELLIN_B, terms=MELLIN_TERMS),
    }


def _cross_method(kb, points, cfg):
    rows = []
    for p in points:
        row = [p.x, p.tau, kb.k_itau_oracle(p, cfg), kb.k_itau_defseries(p)]
        row += [kb.k_itau_keyformula(p, N, cfg) for N in (0, 2, 4)]
        rows.append(row)
    return rows


def _index_raising(kb, points, cfg):
    rows = []
    for p in points:
        k1 = kb.k_complex_order(kb.OrderSpec(1.0, p.tau), p.x, cfg)
        rows.append([p.x, p.tau, kb.k_itau_oracle(p, cfg), k1.real, k1.imag])
    return rows


def _remainder_theorem(kb, cfg):
    grid_ok = True
    for N in (1, 2, 3):
        for tau in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
            for x in (0.25, 1.0, 5.0):
                report = kb.expansion_report(kb.EvaluationPoint(x, tau), N, 1.0, 5.0, cfg)
                grid_ok = grid_ok and report.within_bound
    taus = [40.0 ** (i / 24) for i in range(25)]
    decay = max(t * abs(kb.remainder_measured(kb.EvaluationPoint(1.0, t), 1, cfg)) for t in taus)
    stirling = [[t, r.real, r.imag]
                for t, r in ((t, complex(kb.stirling_r_gamma(t))) for t in STIRLING_TAUS)]
    return {"grid_ok": grid_ok, "decay_worst": decay,
            "cap": kb.remainder_bound(1.0, 1.0, 5.0, 1), "stirling": stirling}


def _tau_integrals(kb, cfg):
    return [[s, a, kb.tau_integral_rhs(s, a, 0.0, kb.PSI_ONE, kb.PSI_ZERO, cfg),
             kb.tau_integral_rhs(s, a, 0.0, kb.PSI_ZERO, kb.PSI_ONE, cfg)]
            for s in TAU_INTEGRAL_S for a in TAU_INTEGRAL_A]


def _summability_trace(report):
    return {"schedule": list(report.query.epsilon_schedule), "a": report.query.a,
            "pairings": list(report.pairing_values), "target": report.target,
            "converged": report.converged}


def run_paper(kb, batch, st):
    cfg = kb.DEFAULT_CONFIG
    out = {
        "cross": batch.run("cross-method", _cross_method, kb, st["cross"], cfg),
        "raising": batch.run("index raising", _index_raising, kb, st["raising"], cfg),
        "representations": {rid: batch.run(rid, kb.verify_representation, rid, p, cfg)
                            for rid, p in st["representations"]},
        "remainder": batch.run("remainder theorem", _remainder_theorem, kb, cfg),
        "tau_integrals": batch.run("closed tau integrals", _tau_integrals, kb, cfg),
    }
    theorem2 = [batch.run(f"theorem2 a={q.a}", kb.theorem2_check, q, cfg) for q in st["theorem2"]]
    out["theorem2"] = [None if r is None else _summability_trace(r) for r in theorem2]
    theorem3 = batch.run("theorem3 cos", kb.theorem3_check, st["theorem3"], cfg)
    out["theorem3"] = None if theorem3 is None else _summability_trace(theorem3)
    out["measure_c"] = batch.run("measure_c", lambda: [[nu, kb.measure_c(nu)] for nu in MEASURE_NU])
    out["olenko_c"] = batch.run("olenko_c", lambda: [[nu, kb.olenko_c(nu)] for nu in OLENKO_NU])
    out["f_epsilon"] = [[eps, batch.run(f"f_epsilon eps={eps}", kb.f_epsilon, st["abel"], eps, cfg)]
                        for eps in FEPS_SCHEDULE]
    spec = st["mellin_spec"]
    out["mellin_theorem3"] = batch.run(
        "mellin_pair theorem3_value", kb.mellin_pair,
        lambda x: kb.theorem3_value(x, 0.0, spec, kb.PSI_ZERO), 1.0, cfg)
    out["mellin_k_identity"] = batch.run(
        "mellin_k_identity", kb.summability.mellin_k_identity, 1.0, 2.0, cfg)
    out["gamma_product_identity"] = batch.run(
        "gamma_product_identity", kb.summability.gamma_product_identity, 1.0, 1.0, cfg)
    return out


WORKLOADS = {
    "catalog_certify": (setup_catalog, run_catalog),
    "paper_checks": (setup_paper, run_paper),
}


def main(argv):
    workload, seed, rep, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    # no timer probes in a traced run, where they would land in the spans
    every = None if mode == "trace" else speed.SAMPLE_S
    setup_clock = speed.Clock(every=every)
    setup_clock.start()
    if workload == "cli_session":
        # set-up of a CLI command: the import and its argument lists
        from klbessel.cli import main as _cli_main  # noqa: F401
        inputs.cli_inputs(seed, rep)
        ready(mode, setup_clock)
        return 0
    import klbessel as kb
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup, run = WORKLOADS[workload]
    state = setup(kb, seed, rep)
    ready(mode, setup_clock)
    if mode == "setup":
        return 0
    batch = Batch(speed.Clock(setup_clock.last_probe, every))
    outputs = run(kb, batch, state)
    import json
    doc = {"wall_s": batch.clock.plain, "ref_s": batch.clock.ref,
           "setup_clock": setup_clock.figures(),
           "attempted": batch.attempted, "failed": batch.failed,
           "errors": batch.errors, "peak_rss_kb": peak_rss_kb(), "outputs": outputs,
           "klbessel_file": kb.__file__}
    if tracer is not None:
        doc["trace"] = tracer.aggregate()
        doc["missing"] = tracer.missing
        with open(argv[4], "a") as fh:
            tracer.dump(fh)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


def ready(mode, clock):
    """Stop the set-up clock and tell the parent; set-up mode also reports the clock."""
    clock.stop()
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if mode == "setup":
        import json
        sys.stdout.write(json.dumps(clock.figures()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
