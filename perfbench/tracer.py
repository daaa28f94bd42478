"""Spans around the calls into each klbessel module, recorded from outside.

`Tracer.install` replaces each traced function by a timing wrapper at every
``klbessel.*`` module global that refers to it.  The modules import their
helpers by name (``from .quadrature import integrate``), so patching only the
defining module would miss most calls.  Names looked up at call time, such as
``klbessel.kernel_grid_values`` or ``bounds.certify_bound``, are covered too;
a name bound before `install` runs is not.

Each span records its label, its parent span, start and end.  Self time is a
span's duration minus the durations of its direct children; the inclusive
time ``s`` of a label counts only its outermost spans, so nested calls of one
function (an integral whose integrand integrates) are not counted twice.

A traced function that no longer exists under its name is recorded as
missing, and every metric that depends on it is reported as missing.
"""

import functools
import json
import sys
from time import perf_counter

# (label, module, attribute).  The label is the prefix of the per-layer metrics.
TARGETS = (
    ("quadrature.integrate", "klbessel.quadrature", "integrate"),
    ("quadrature.panel_sums", "klbessel.quadrature", "panel_sums"),
    ("quadrature.phase_edges", "klbessel.quadrature", "phase_edges"),
    ("special.bessel_k0", "klbessel.special", "bessel_k0"),
    ("kernel.oracle", "klbessel.kernel", "k_itau_oracle"),
    ("kernel.complex_order", "klbessel.kernel", "k_complex_order"),
    ("kernel.keyformula", "klbessel.kernel", "k_itau_keyformula"),
    ("kernel.defseries", "klbessel.kernel", "k_itau_defseries"),
    ("kernel.smallx", "klbessel.kernel", "k_itau_smallx"),
    ("bounds.kernel_grid_values", "klbessel.bounds", "kernel_grid_values"),
    ("bounds.certify_bound", "klbessel.bounds", "certify_bound"),
    ("bounds.evaluate_bound", "klbessel.bounds", "evaluate_bound"),
    ("bounds.verify_representation", "klbessel.bounds", "verify_representation"),
    ("bounds.measure_c", "klbessel.bounds", "measure_c"),
    ("asymptotic.expansion_report", "klbessel.asymptotic", "expansion_report"),
    ("asymptotic.remainder_explicit", "klbessel.asymptotic", "remainder_explicit"),
    ("asymptotic.stirling_r_gamma", "klbessel.asymptotic", "stirling_r_gamma"),
    ("summability.f_epsilon", "klbessel.summability", "f_epsilon"),
    ("summability.tau_integral_rhs", "klbessel.summability", "tau_integral_rhs"),
    ("summability.mellin_pair", "klbessel.summability", "mellin_pair"),
    ("summability.theorem3_value", "klbessel.summability", "theorem3_value"),
    ("summability.theorem3_target", "klbessel.summability", "theorem3_target"),
    ("summability.theorem3_check", "klbessel.summability", "theorem3_check"),
)

INTEGRATE = "quadrature.integrate"
PANEL_SUMS = "quadrature.panel_sums"
CLI_MAIN = "cli.main"  # a span the CLI processes open around main(argv)
NODES_PER_PANEL = 16  # Gauss-Legendre nodes of one panel


def _panel_count(args, kwargs):
    edges = kwargs["edges"] if "edges" in kwargs else args[1]
    return len(edges) - 1


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [label, parent index or -1, start, end, panels, error]
        self.stack = []
        self.missing = []

    def install(self):
        """Wrap every target found; return the labels that are missing."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "klbessel" or name.startswith("klbessel."))]
        for label, module_name, attr in self.targets:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.missing.append(label)
                continue
            wrapper = self.wrap(label, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        return list(self.missing)

    def wrap(self, label, fn):
        spans, stack = self.spans, self.stack
        count_panels = label == PANEL_SUMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, stack[-1] if stack else -1, perf_counter(), 0.0,
                   _panel_count(args, kwargs) if count_panels else 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    def aggregate(self):
        """Per-label totals: calls, inclusive s, self_s, errors, and quadrature counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for label, parent, start, end, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (label, parent, start, end, panels, error) in enumerate(spans):
            a = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
                                       "panels": 0, "panels_in_integrate": 0,
                                       "calls_in_integrate": 0})
            duration = end - start
            a["calls"] += 1
            a["self_s"] += duration - child_time[i]
            a["panels"] += panels
            if error is not None:
                a["errors"] += 1
            if parent >= 0 and spans[parent][0] == INTEGRATE:
                a["calls_in_integrate"] += 1
                a["panels_in_integrate"] += panels
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != label:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                a["s"] += duration
        return out

    def dump(self, fh):
        """Write the spans as one JSON line: labels, then [label, parent, start, end]."""
        labels = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(labels)}
        fh.write(json.dumps({
            "labels": labels,
            "missing": self.missing,
            "spans": [[index[s[0]], s[1], round(s[2], 7), round(s[3], 7)] for s in self.spans],
        }) + "\n")


def merge(aggregates):
    """Sum per-label aggregates of several processes."""
    out = {}
    for agg in aggregates:
        for label, a in agg.items():
            b = out.setdefault(label, dict.fromkeys(a, 0))
            for key, value in a.items():
                b[key] += value
    return out


# Per-layer metrics that read one aggregate field of one label: name is
# "<label>.<field>", the unit follows from the field.
SIMPLE_METRICS = (
    (INTEGRATE, ("calls", "s", "self_s")),
    (PANEL_SUMS, ("calls",)),
    ("quadrature.phase_edges", ("calls", "s")),
    ("special.bessel_k0", ("calls", "s")),
    ("kernel.oracle", ("calls", "s", "self_s")),
    ("kernel.complex_order", ("calls", "s", "self_s")),
    ("kernel.keyformula", ("calls", "s")),
    ("kernel.defseries", ("calls", "s")),
    ("kernel.smallx", ("calls",)),
    ("bounds.kernel_grid_values", ("s",)),
    ("bounds.certify_bound", ("self_s",)),
    ("bounds.evaluate_bound", ("calls", "s")),
    ("bounds.verify_representation", ("s",)),
    ("bounds.measure_c", ("s",)),
    ("asymptotic.expansion_report", ("calls", "s")),
    ("asymptotic.remainder_explicit", ("calls", "s")),
    ("asymptotic.stirling_r_gamma", ("calls",)),
    ("summability.f_epsilon", ("s", "self_s")),
    ("summability.tau_integral_rhs", ("calls", "s")),
    ("summability.mellin_pair", ("s", "self_s")),
    ("summability.theorem3_value", ("calls", "s")),
    ("summability.theorem3_target", ("s",)),
    ("summability.theorem3_check", ("s",)),
    (CLI_MAIN, ("s", "self_s")),
)
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# derived per-layer metrics: name -> (unit, labels needed)
DERIVED_METRICS = {
    "quadrature.nodes": ("count", (PANEL_SUMS,)),
    "quadrature.nodes_per_integrate": ("count", (INTEGRATE, PANEL_SUMS)),
    "quadrature.levels_per_integrate": ("count", (INTEGRATE, PANEL_SUMS)),
    "quadrature.accuracy_errors": ("count", (INTEGRATE,)),
    "kernel.ms_per_value": ("ms", ("kernel.oracle", "kernel.complex_order")),
    "cli.import_s": ("s", ()),
    "cli.interpreter_s": ("s", ()),
}


def metric_units():
    """Every per-layer metric the tracer computes, with its unit, in report order."""
    units = {}
    for label, fields in SIMPLE_METRICS:
        for f in fields:
            units[f"{label}.{f}"] = _UNITS[f]
    units.update((name, unit) for name, (unit, _) in DERIVED_METRICS.items())
    return units


def layer_metrics(agg, cli, missing):
    """Per-layer metric values of one batch; None where a traced function is missing.

    ``agg`` is the merged aggregate of the batch's processes and ``cli`` holds
    the summed ``import_s`` and ``interpreter_s`` of its CLI processes.
    """
    def field(label, key):
        return agg.get(label, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    integrates = field(INTEGRATE, "calls")
    kernel_calls = field("kernel.oracle", "calls") + field("kernel.complex_order", "calls")
    values = {f"{label}.{f}": (None if label in missing else field(label, f))
              for label, fields in SIMPLE_METRICS for f in fields}
    derived = {
        "quadrature.nodes": NODES_PER_PANEL * field(PANEL_SUMS, "panels"),
        "quadrature.nodes_per_integrate": ratio(
            NODES_PER_PANEL * field(PANEL_SUMS, "panels_in_integrate"), integrates),
        "quadrature.levels_per_integrate": ratio(
            field(PANEL_SUMS, "calls_in_integrate") - integrates, integrates),
        "quadrature.accuracy_errors": field(INTEGRATE, "errors"),
        "kernel.ms_per_value": ratio(
            1e3 * (field("kernel.oracle", "s") + field("kernel.complex_order", "s")), kernel_calls),
        "cli.import_s": cli.get("import_s", 0.0),
        "cli.interpreter_s": cli.get("interpreter_s", 0.0),
    }
    for name, (_, needs) in DERIVED_METRICS.items():
        values[name] = None if any(label in missing for label in needs) else derived[name]
    return values
