"""Command-line front-end: evaluate, certify, and report.

Subcommands
-----------
eval        kernel value at one point, with a cross-method error estimate
certify     certify one bound (or the whole catalog) over a grid
asympt      large-order expansion reports with the explicit remainder bound
identities  residuals of the integral-representation and index-raising checks
summ        regularized-pairing convergence table against the closed target
catalog     list the bound catalog

Each subcommand takes only the shared flags it reads: ``--format`` and
``--output`` everywhere; ``--abs-tol``/``--rel-tol`` everywhere but
``catalog``; the tau axis ``--tau-min/--tau-max/--tau-count/--spacing`` on
``asympt`` and ``certify``; the x axis ``--x-min/--x-max/--x-count`` on
``certify`` alone.  Any other flag is a usage error.

Every command writes CSV (default) or JSON to stdout or ``--output``.
CSV output always includes the header row; the per-command schema is
documented in each subcommand's ``--help`` epilog.  JSON documents are
serialized with sorted keys and two-space indentation, so re-serializing
a parsed document reproduces it byte for byte.

Exit codes: 0 success, 1 a reported check failed, 2 usage or domain
error (OverflowError, a value leaving float range, and an ``--output``
path that cannot be written included), 3 a quadrature accuracy contract
could not be met.
"""

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import asymptotic, bounds, summability
from .kernel import EvaluationPoint, k_itau_defseries, k_itau_keyformula, k_itau_oracle
from .quadrature import DEFAULT_CONFIG, AccuracyError, QuadratureConfig

__all__ = ["main"]

# identity checks rendered by `identities`: id, point, relative tolerance
IDENTITY_ROWS = (
    ("EQ_1_27", 1.0, 1.0, 1e-8),
    ("EQ_1_4", 0.5, 1.0, 1e-6),
    ("EQ_1_21", 0.5, 2.0, 1e-4),
    ("EQ_1_6", 1.0, 1.0, 1e-8),
    ("INDEX_RAISING", 2.0, 3.0, 1e-10),
)


def _quad_config(args):
    return QuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _axis(args, name):
    """The validated ``name`` axis ("x" or "tau") from its range flags."""
    lo, hi, count = (getattr(args, f"{name}_{k}") for k in ("min", "max", "count"))
    if count < 1:
        raise ValueError("grid counts must be at least 1")
    if not (lo > 0 and hi >= lo):
        raise ValueError(f"{name} range must satisfy 0 < {name}_min <= {name}_max")
    if count == 1:
        return (lo,)
    if args.spacing == "log":
        return tuple(np.geomspace(lo, hi, count).tolist())
    step = (hi - lo) / (count - 1)
    return tuple(lo + step * i for i in range(count))


def _certify_grid(args):
    """The certification grid from the range flags (x fastest, like the default)."""
    xs, taus = _axis(args, "x"), _axis(args, "tau")
    return tuple(EvaluationPoint(x, t) for t in taus for x in xs)


# ---------------------------------------------------------------------------
# output helpers

def _json_text(doc):
    """The one JSON writer: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _point_record(p):
    return {"x": p.x, "tau": p.tau}


def _descriptor_record(d):
    return dict(asdict(d), params=dict(d.params))


def _certificate_record(c):
    return {
        "descriptor": _descriptor_record(c.descriptor),
        "grid": [_point_record(p) for p in c.grid],
        "ratios": list(c.ratios),
        "max_ratio": c.max_ratio,
        "worst_point": None if c.worst_point is None else _point_record(c.worst_point),
        "pass": c.passed,
        "indeterminate": [_point_record(p) for p in c.indeterminate],
    }


def _expansion_record(r):
    doc = asdict(r)
    doc.update(doc.pop("point"))
    return doc


_EXPANSION_HEADER = ["x", "tau", "N", "leading", "remainder_measured",
                     "remainder_explicit", "remainder_bound", "pass"]


def _summability_record(r):
    q = r.query
    return {
        "x": q.x,
        "a": q.a,
        "s": q.mellin_s,
        "psi1_coeffs": list(q.psi1.even_coeffs),
        "psi1_type": q.psi1.exp_type,
        "psi2_coeffs": list(q.psi2.even_coeffs),
        "psi2_type": q.psi2.exp_type,
        "epsilon_schedule": list(q.epsilon_schedule),
        "pairing_values": list(r.pairing_values),
        "target": r.target,
        "errors": list(r.errors),
        "converged": r.converged,
    }


def _params_cell(d):
    return ";".join(f"{k}={v!r}" for k, v in d.params)


def _cell(value):
    """One CSV cell: a lower-case bool, empty for None, else ``str`` (a float's repr)."""
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


def _write(args, columns, rows, doc):
    """Write the JSON document ``doc()`` builds, or ``rows`` (dicts keyed by
    at least ``columns``) as CSV under a header row, to stdout or ``--output``.
    ``doc`` is called only for JSON, so CSV never builds per-point records."""
    if args.format == "json":
        text = _json_text(doc())
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows([_cell(row[c]) for c in columns] for row in rows)
        text = buf.getvalue()
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        # newline="" so csv's RFC 4180 line endings pass through untranslated
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eval(args):
    p = EvaluationPoint(args.x, args.tau)
    cfg = _quad_config(args)
    order = args.N if args.N is not None else 4
    methods = {"oracle": lambda: k_itau_oracle(p, cfg),
               "keyformula": lambda: k_itau_keyformula(p, order, cfg),
               "defseries": lambda: k_itau_defseries(p)}
    value = methods[args.method]()
    # the key formula checks the oracle, the oracle every other method
    reference = methods["keyformula" if args.method == "oracle" else "oracle"]()
    row = {
        "x": p.x,
        "tau": p.tau,
        "method": args.method,
        "N": order if args.method != "defseries" else None,
        "value": value,
        "error_estimate": abs(value - reference),
    }
    _write(args, list(row), [row], lambda: row)
    return 0


def _catalog_params():
    """Every catalog parameter name, in catalog order: `certify`'s value flags."""
    return dict.fromkeys(k for d in bounds.all_default_descriptors() for k, _ in d.params)


def _cmd_certify(args):
    grid = _certify_grid(args)
    cfg = _quad_config(args)
    if args.all:
        descriptors = bounds.all_default_descriptors()
    else:
        params = {k: v for k in _catalog_params() if (v := getattr(args, k)) is not None}
        descriptors = (bounds.make_descriptor(args.id, **params),)
    # descriptors sharing a kernel order reuse one set of grid values
    kernel = {mu: bounds.kernel_grid_values(grid, mu, cfg)
              for mu in dict.fromkeys(d.order_mu for d in descriptors)}
    certs = [bounds.certify_bound(d, grid, cfg, kernel_values=kernel[d.order_mu])
             for d in descriptors]
    rows = [{
        "id": c.descriptor.id,
        "label": c.descriptor.label,
        "params": _params_cell(c.descriptor),
        "max_ratio": c.max_ratio,
        "worst_x": c.worst_point and c.worst_point.x,
        "worst_tau": c.worst_point and c.worst_point.tau,
        "indeterminate": len(c.indeterminate),
        "passed": c.passed,
    } for c in certs]
    _write(args, list(rows[0]), rows, lambda: _certificate_record(certs[0]) if len(certs) == 1
           else {"certificates": [_certificate_record(c) for c in certs]})
    return 0 if all(c.passed for c in certs) else 1


def _cmd_asympt(args):
    cfg = _quad_config(args)
    if args.N == 0:
        print("warning: N=0 reports are checked against the N=1 bound",
              file=sys.stderr)
    reports = [
        asymptotic.expansion_report(
            EvaluationPoint(args.x, tau), args.N, args.tau0, args.X, cfg)
        for tau in _axis(args, "tau")
    ]
    records = [_expansion_record(r) for r in reports]
    _write(args, _EXPANSION_HEADER, [{**r, "pass": r["within_bound"]} for r in records],
           lambda: {"reports": records})
    return 0 if all(r.within_bound for r in reports) else 1


def _cmd_identities(args):
    cfg = _quad_config(args)
    selected = IDENTITY_ROWS
    if args.id is not None:
        selected = tuple(r for r in IDENTITY_ROWS if r[0] == args.id)
        if not selected:
            known = ", ".join(r[0] for r in IDENTITY_ROWS)
            raise ValueError(f"unknown identity {args.id!r} (known: {known})")
    records = []
    for ident, x_default, tau_default, tol in selected:
        x = args.x if args.x is not None else x_default
        tau = args.tau if args.tau is not None else tau_default
        residual = bounds.verify_representation(ident, EvaluationPoint(x, tau), cfg)
        records.append({"id": ident, "x": x, "tau": tau, "residual": residual,
                        "tolerance": tol, "passed": residual <= tol})
    _write(args, ["id", "x", "tau", "residual", "tolerance", "passed"], records,
           lambda: {"identities": records})
    return 0 if all(r["passed"] for r in records) else 1


def _psi_spec(kind, b):
    if kind == "cos":
        return summability.cos_spec(b)
    return summability.PSI_ONE if kind == "one" else summability.PSI_ZERO


def _cmd_summ(args):
    cfg = _quad_config(args)
    if args.schedule is not None:
        schedule = tuple(float(s) for s in args.schedule.split(","))
    else:
        schedule = summability.DEFAULT_SCHEDULE
    query = summability.SummabilityQuery(
        x=args.x,
        a=args.a,
        psi1=_psi_spec(args.psi1, args.b),
        psi2=_psi_spec(args.psi2, args.b),
        epsilon_schedule=schedule,
        mellin_s=args.s,
    )
    report = summability.theorem3_check(query, cfg)
    rows = [
        {"epsilon": eps, "pairing": value, "target": report.target, "error": err}
        for eps, value, err in zip(query.epsilon_schedule, report.pairing_values, report.errors)
    ]
    _write(args, ["epsilon", "pairing", "target", "error"], rows,
           lambda: _summability_record(report))
    return 0 if report.converged else 1


def _cmd_catalog(args):
    descriptors = bounds.all_default_descriptors()
    rows = [dict(_descriptor_record(d), params=_params_cell(d)) for d in descriptors]
    _write(args, ["id", "label", "params", "order_mu", "kernel_part", "validity"], rows,
           lambda: {"bounds": [_descriptor_record(d) for d in descriptors]})
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "certify": _cmd_certify,
    "asympt": _cmd_asympt,
    "identities": _cmd_identities,
    "summ": _cmd_summ,
    "catalog": _cmd_catalog,
}


# ---------------------------------------------------------------------------
# parser

def _shared_options(*axes, tau_min=0.1, tolerances=True):
    """Parent parser of the shared flags one subcommand reads: the range
    flags of each of ``axes`` ("x", "tau") and --spacing where it has axes,
    --abs-tol/--rel-tol unless ``tolerances`` is false, --format/--output."""
    shared = argparse.ArgumentParser(add_help=False)
    if axes:
        grid = shared.add_argument_group("grid")
        ranges = {"x": (0.01, 100.0), "tau": (tau_min, 40.0)}
        for name in axes:
            grid.add_argument(f"--{name}-min", type=float, default=ranges[name][0])
            grid.add_argument(f"--{name}-max", type=float, default=ranges[name][1])
            grid.add_argument(f"--{name}-count", type=int, default=25)
        grid.add_argument("--spacing", choices=("log", "linear"), default="log")
    out = shared.add_argument_group("output and accuracy")
    if tolerances:
        out.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol)
        out.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol)
    out.add_argument("--format", choices=("csv", "json"), default="csv")
    out.add_argument("--output", default=None, metavar="PATH")
    return shared


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klbessel",
        description="Modified Bessel functions of imaginary order: "
                    "evaluation, certified bounds, asymptotics, summability.",
    )
    # each subcommand's epilog keeps its line breaks
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, formatter_class=argparse.RawDescriptionHelpFormatter))
    common = _shared_options()

    p_eval = sub.add_parser(
        "eval", parents=[common],
        help="evaluate the kernel at one point",
        epilog="CSV schema: x,tau,method,N,value,error_estimate\n"
               "error_estimate is the absolute difference against an\n"
               "independent method (key formula at N=4 for the oracle,\n"
               "the oracle otherwise).")
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--tau", type=float, required=True)
    p_eval.add_argument(
        "--method", choices=("oracle", "keyformula", "defseries"),
        default="oracle")
    p_eval.add_argument("--N", type=int, default=None,
                        help="key-formula truncation order (default 4)")

    p_cert = sub.add_parser(
        "certify", parents=[_shared_options("x", "tau")],
        help="certify catalog bounds over a grid",
        epilog="CSV schema: id,label,params,max_ratio,worst_x,worst_tau,"
               "indeterminate,passed\n"
               "max_ratio, worst_x and worst_tau are empty where every point is indeterminate.\n"
               "Exit code 1 if any certificate fails.")
    which = p_cert.add_mutually_exclusive_group(required=True)
    which.add_argument("--id", help="catalog identifier")
    which.add_argument("--all", action="store_true",
                       help="certify the whole catalog")
    for name in _catalog_params():
        p_cert.add_argument(f"--{name}", type=float, default=None)

    p_asympt = sub.add_parser(
        "asympt", parents=[_shared_options("tau", tau_min=1.0)],
        help="expansion reports over a tau axis",
        epilog="CSV schema: x,tau,N,leading,remainder_measured,"
               "remainder_explicit,remainder_bound,pass\n"
               "remainder_measured is the kernel's phase read to about 1e-14 absolute, so\n"
               "its last digits at large tau are noise: one ulp of tau = 40 at x = 1\n"
               "moves it by 9e-12 relative.\n"
               "Exit code 1 if any measured remainder exceeds its bound.")
    p_asympt.add_argument("--x", type=float, default=1.0)
    p_asympt.add_argument("--N", type=int, default=1,
                          help="truncation order (N=0 is checked against "
                               "the N=1 bound)")
    p_asympt.add_argument("--tau0", type=float, default=1.0)
    p_asympt.add_argument("--X", type=float, default=5.0)

    p_ident = sub.add_parser(
        "identities", parents=[common],
        help="residuals of the built-in identity checks",
        epilog="CSV schema: id,x,tau,residual,tolerance,passed\n"
               "residual is |LHS - RHS| / |LHS|, LHS the side the oracle evaluates;\n"
               "INDEX_RAISING, tau K_{i tau}(x) = x Im K_{1+i tau}(x), divides by\n"
               "max(|tau K|, |x Re K_{1+i tau}(x)|) instead, so that a point near a\n"
               "zero of K is read against x K'_{i tau}(x), which does not vanish there.\n"
               "Default rows check each identity at its reference point; a point\n"
               "outside an identity's domain (0.01 <= x <= 5, tau <= 25 for EQ_1_4;\n"
               "x <= 10, tau <= 25 for EQ_1_6; x <= 5, 0.1 <= tau <= 50 for EQ_1_21;\n"
               "x <= 100, tau <= 25 for EQ_1_27; x <= 100, tau <= 50 for\n"
               "INDEX_RAISING; x >= 0.01 for all) exits 2.\n"
               "Exit code 1 if any residual exceeds its tolerance.")
    p_ident.add_argument("--id", default=None,
                         help="restrict to one identity")
    p_ident.add_argument("--x", type=float, default=None,
                         help="override the evaluation point")
    p_ident.add_argument("--tau", type=float, default=None)

    p_summ = sub.add_parser(
        "summ", parents=[common],
        help="regularized-pairing convergence table",
        epilog="CSV schema: epsilon,pairing,target,error\n"
               "Exit code 1 if the error column fails to converge.")
    p_summ.add_argument("--x", type=float, default=1.0)
    p_summ.add_argument("--a", type=float, default=0.0,
                        help="tilt angle, |a| < pi/2")
    p_summ.add_argument("--s", type=float, default=1.0,
                        help="Mellin test-function exponent")
    p_summ.add_argument("--psi1", choices=("one", "cos", "zero"),
                        default="one")
    p_summ.add_argument("--psi2", choices=("zero", "one"), default="zero")
    p_summ.add_argument("--b", type=float, default=0.05,
                        help="frequency for --psi1 cos")
    p_summ.add_argument("--schedule", default=None,
                        help="comma-separated epsilon schedule")

    sub.add_parser(
        "catalog", parents=[_shared_options(tolerances=False)],
        help="list the bound catalog",
        epilog="CSV schema: id,label,params,order_mu,kernel_part,validity")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except AccuracyError as exc:
        print(f"error: accuracy contract not met: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value leaves float range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
