"""Command-line front-end: evaluate, certify, and report.

Subcommands
-----------
eval        kernel value at one point, with a cross-method error estimate
certify     certify one bound (or the whole catalog) over a grid
asympt      large-order expansion reports with the explicit remainder bound
identities  residuals of the integral-representation and index-raising checks
summ        regularized-pairing convergence table against the closed target
catalog     list the bound catalog

Every command writes CSV (default) or JSON to stdout or ``--output``.
CSV output always includes the header row; the per-command schema is
documented in each subcommand's ``--help`` epilog.  JSON documents are
serialized with sorted keys and two-space indentation, so re-serializing
a parsed document reproduces it byte for byte.

Exit codes: 0 success, 1 a reported check failed, 2 usage or domain
error (OverflowError, a value leaving float range, included), 3 a
quadrature accuracy contract could not be met.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

from . import asymptotic, bounds, summability
from .kernel import (
    EvaluationPoint,
    OrderSpec,
    k_complex_order,
    k_itau_defseries,
    k_itau_keyformula,
    k_itau_oracle,
)
from .quadrature import DEFAULT_CONFIG, AccuracyError, QuadratureConfig

__all__ = ["RunConfig", "main"]

# identity checks rendered by `identities`: id, point, relative tolerance
IDENTITY_ROWS = (
    ("EQ_1_27", 1.0, 1.0, 1e-8),
    ("EQ_1_4", 0.5, 1.0, 1e-6),
    ("EQ_1_21", 0.5, 2.0, 1e-4),
    ("EQ_1_6", 1.0, 1.0, 1e-8),
    ("INDEX_RAISING", 2.0, 3.0, 1e-10),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    command: str
    x_min: float = 0.01
    x_max: float = 100.0
    x_count: int = 25
    tau_min: float = 0.1
    tau_max: float = 40.0
    tau_count: int = 25
    spacing: str = "log"
    abs_tol: float = DEFAULT_CONFIG.abs_tol
    rel_tol: float = DEFAULT_CONFIG.rel_tol
    output_format: str = "csv"
    output_path: str = None

    def __post_init__(self):
        if self.x_count < 1 or self.tau_count < 1:
            raise ValueError("grid counts must be at least 1")
        if not (self.x_min > 0 and self.x_max >= self.x_min):
            raise ValueError("x range must satisfy 0 < x_min <= x_max")
        if not (self.tau_min > 0 and self.tau_max >= self.tau_min):
            raise ValueError("tau range must satisfy 0 < tau_min <= tau_max")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    def quad_config(self):
        return QuadratureConfig(abs_tol=self.abs_tol, rel_tol=self.rel_tol)

    def grid(self):
        """Evaluation grid from the range flags (x fastest, like the default)."""
        if self.spacing == "log":
            return bounds.default_grid(
                self.x_count, self.tau_count,
                self.x_min, self.x_max, self.tau_min, self.tau_max,
            )
        xs = _axis(self.x_min, self.x_max, self.x_count, "linear")
        taus = _axis(self.tau_min, self.tau_max, self.tau_count, "linear")
        return tuple(EvaluationPoint(x, t) for t in taus for x in xs)

    def tau_axis(self):
        return _axis(self.tau_min, self.tau_max, self.tau_count, self.spacing)


def _axis(lo, hi, count, spacing):
    if count == 1:
        return (lo,)
    if spacing == "log":
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return tuple(lo * ratio**i for i in range(count))
    step = (hi - lo) / (count - 1)
    return tuple(lo + step * i for i in range(count))


# ---------------------------------------------------------------------------
# output helpers

def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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


def _emit(text, rc):
    if rc.output_path:
        # newline="" so csv's RFC 4180 line endings pass through untranslated
        with open(rc.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eval(args, rc):
    p = EvaluationPoint(args.x, args.tau)
    cfg = rc.quad_config()
    order = args.N if args.N is not None else 4
    if args.method == "oracle":
        value = k_itau_oracle(p, cfg)
        reference = k_itau_keyformula(p, order, cfg)
    elif args.method == "keyformula":
        value = k_itau_keyformula(p, order, cfg)
        reference = k_itau_oracle(p, cfg)
    else:
        value = k_itau_defseries(p)
        reference = k_itau_oracle(p, cfg)
    estimate = abs(value - reference)
    if rc.output_format == "json":
        doc = {
            "x": p.x,
            "tau": p.tau,
            "method": args.method,
            "N": order if args.method != "defseries" else None,
            "value": value,
            "error_estimate": estimate,
        }
        _emit(_json_text(doc), rc)
    else:
        row = [
            repr(p.x), repr(p.tau), args.method,
            str(order) if args.method != "defseries" else "",
            repr(value), repr(estimate),
        ]
        _emit(_csv_text(
            ["x", "tau", "method", "N", "value", "error_estimate"], [row]), rc)
    return 0


def _certify_params(args):
    names = ("nu", "mu", "delta", "M", "N", "n")
    return {k: v for k in names if (v := getattr(args, k)) is not None}


def _cmd_certify(args, rc):
    cfg = rc.quad_config()
    grid = rc.grid()
    if args.all:
        descriptors = bounds.all_default_descriptors()
    else:
        descriptors = (bounds.make_descriptor(args.id, **_certify_params(args)),)
    # descriptors sharing a kernel order reuse one set of grid values
    kernel_cache = {}
    certs = []
    for d in descriptors:
        if d.order_mu not in kernel_cache:
            kernel_cache[d.order_mu] = bounds.kernel_grid_values(grid, d.order_mu, cfg)
        certs.append(bounds.certify_bound(
            d, grid, cfg, kernel_values=kernel_cache[d.order_mu]))
    if rc.output_format == "json":
        docs = [_certificate_record(c) for c in certs]
        _emit(_json_text(docs[0] if len(docs) == 1 else {"certificates": docs}), rc)
    else:
        rows = []
        for c in certs:
            d = c.descriptor
            worst = ("", "", "") if c.worst_point is None else (
                repr(c.max_ratio), repr(c.worst_point.x), repr(c.worst_point.tau))
            rows.append([
                d.id, d.label,
                ";".join(f"{k}={v!r}" for k, v in d.params),
                *worst,
                str(len(c.indeterminate)),
                str(c.passed).lower(),
            ])
        _emit(_csv_text(
            ["id", "label", "params", "max_ratio", "worst_x", "worst_tau",
             "indeterminate", "passed"], rows), rc)
    return 0 if all(c.passed for c in certs) else 1


def _cmd_asympt(args, rc):
    cfg = rc.quad_config()
    if args.N == 0:
        print("warning: N=0 reports are checked against the N=1 bound",
              file=sys.stderr)
    reports = [
        asymptotic.expansion_report(
            EvaluationPoint(args.x, tau), args.N, args.tau0, args.X, cfg)
        for tau in rc.tau_axis()
    ]
    if rc.output_format == "json":
        _emit(_json_text({"reports": [_expansion_record(r) for r in reports]}), rc)
    else:
        _emit(_csv_text(
            asymptotic.report_csv_header(),
            [asymptotic.report_csv_row(r) for r in reports]), rc)
    return 0 if all(r.within_bound for r in reports) else 1


def _index_raising_residual(p, cfg):
    lhs = p.tau * k_itau_oracle(p, cfg)
    rhs = p.x * k_complex_order(OrderSpec(1.0, p.tau), p.x, cfg).imag
    return abs(lhs - rhs) / abs(lhs)


def _cmd_identities(args, rc):
    cfg = rc.quad_config()
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
        p = EvaluationPoint(x, tau)
        if ident == "INDEX_RAISING":
            residual = _index_raising_residual(p, cfg)
        else:
            residual = bounds.verify_representation(ident, p, cfg)
        records.append({
            "id": ident, "x": x, "tau": tau,
            "residual": residual, "tolerance": tol,
            "passed": residual <= tol,
        })
    if rc.output_format == "json":
        _emit(_json_text({"identities": records}), rc)
    else:
        rows = [[r["id"], repr(r["x"]), repr(r["tau"]), repr(r["residual"]),
                 repr(r["tolerance"]), str(r["passed"]).lower()]
                for r in records]
        _emit(_csv_text(
            ["id", "x", "tau", "residual", "tolerance", "passed"], rows), rc)
    return 0 if all(r["passed"] for r in records) else 1


def _psi_spec(kind, b):
    if kind == "one":
        return summability.PSI_ONE
    if kind == "zero":
        return summability.PSI_ZERO
    return summability.cos_spec(b)


def _cmd_summ(args, rc):
    cfg = rc.quad_config()
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
    if rc.output_format == "json":
        _emit(_json_text(_summability_record(report)), rc)
    else:
        rows = [
            [repr(eps), repr(value), repr(report.target), repr(err)]
            for eps, value, err in zip(
                query.epsilon_schedule, report.pairing_values, report.errors)
        ]
        _emit(_csv_text(["epsilon", "pairing", "target", "error"], rows), rc)
    return 0 if report.converged else 1


def _cmd_catalog(args, rc):
    descriptors = bounds.all_default_descriptors()
    if rc.output_format == "json":
        _emit(_json_text({"bounds": [_descriptor_record(d) for d in descriptors]}), rc)
    else:
        rows = [[
            d.id, d.label,
            ";".join(f"{k}={v!r}" for k, v in d.params),
            repr(d.order_mu), d.kernel_part, d.validity,
        ] for d in descriptors]
        _emit(_csv_text(
            ["id", "label", "params", "order_mu", "kernel_part", "validity"],
            rows), rc)
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

def _common_options(tau_min_default=0.1):
    common = argparse.ArgumentParser(add_help=False)
    grid = common.add_argument_group("grid")
    grid.add_argument("--x-min", type=float, default=0.01)
    grid.add_argument("--x-max", type=float, default=100.0)
    grid.add_argument("--x-count", type=int, default=25)
    grid.add_argument("--tau-min", type=float, default=tau_min_default)
    grid.add_argument("--tau-max", type=float, default=40.0)
    grid.add_argument("--tau-count", type=int, default=25)
    grid.add_argument("--spacing", choices=("log", "linear"), default="log")
    out = common.add_argument_group("output and accuracy")
    out.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol)
    out.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol)
    out.add_argument("--format", choices=("csv", "json"), default="csv")
    out.add_argument("--output", default=None, metavar="PATH")
    return common


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klbessel",
        description="Modified Bessel functions of imaginary order: "
                    "evaluation, certified bounds, asymptotics, summability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()

    p_eval = sub.add_parser(
        "eval", parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
        "certify", parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="certify catalog bounds over a grid",
        epilog="CSV schema: id,label,params,max_ratio,worst_x,worst_tau,"
               "indeterminate,passed\n"
               "max_ratio, worst_x and worst_tau are empty where every point is indeterminate.\n"
               "Exit code 1 if any certificate fails.")
    which = p_cert.add_mutually_exclusive_group(required=True)
    which.add_argument("--id", help="catalog identifier")
    which.add_argument("--all", action="store_true",
                       help="certify the whole catalog")
    p_cert.add_argument("--nu", type=float, default=None)
    p_cert.add_argument("--mu", type=float, default=None)
    p_cert.add_argument("--delta", type=float, default=None)
    p_cert.add_argument("--M", type=float, default=None)
    p_cert.add_argument("--N", type=float, default=None)
    p_cert.add_argument("--n", type=int, default=None)

    p_asympt = sub.add_parser(
        "asympt", parents=[_common_options(tau_min_default=1.0)],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="expansion reports over a tau axis",
        epilog="CSV schema: x,tau,N,leading,remainder_measured,"
               "remainder_explicit,remainder_bound,pass\n"
               "Exit code 1 if any measured remainder exceeds its bound.")
    p_asympt.add_argument("--x", type=float, default=1.0)
    p_asympt.add_argument("--N", type=int, default=1,
                          help="truncation order (N=0 is checked against "
                               "the N=1 bound)")
    p_asympt.add_argument("--tau0", type=float, default=1.0)
    p_asympt.add_argument("--X", type=float, default=5.0)

    p_ident = sub.add_parser(
        "identities", parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="residuals of the built-in identity checks",
        epilog="CSV schema: id,x,tau,residual,tolerance,passed\n"
               "Default rows check each identity at its reference point.\n"
               "Exit code 1 if any residual exceeds its tolerance.")
    p_ident.add_argument("--id", default=None,
                         help="restrict to one identity")
    p_ident.add_argument("--x", type=float, default=None,
                         help="override the evaluation point")
    p_ident.add_argument("--tau", type=float, default=None)

    p_summ = sub.add_parser(
        "summ", parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
        "catalog", parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="list the bound catalog",
        epilog="CSV schema: id,label,params,order_mu,kernel_part,validity")
    return parser


def _run_config(args):
    return RunConfig(
        command=args.command,
        x_min=args.x_min,
        x_max=args.x_max,
        x_count=args.x_count,
        tau_min=args.tau_min,
        tau_max=args.tau_max,
        tau_count=args.tau_count,
        spacing=args.spacing,
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        output_format=args.format,
        output_path=args.output,
    )


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rc = _run_config(args)
        return _DISPATCH[args.command](args, rc)
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
