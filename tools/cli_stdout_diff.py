"""Compare the klbessel CLI's output between two checkouts, argv by argv.

usage: python3 tools/cli_stdout_diff.py PARENT_DIR CHANGE_DIR

Runs a fixed list of argv lists, `python -m klbessel ARGV` with
``PYTHONPATH=<dir>/src``, once in each checkout: every subcommand in CSV and
in JSON, the hand-built linear axes included, plus probes at the edges of
the domains (parameters that overflow, bounds that underflow, values that
are not finite, taus so small that sinh(pi tau) is pi tau to the
last digit, an output path that cannot be written).  For each argv it
compares the stdout bytes, the exit code and the first line of stderr, and
prints every argv that differs with both sides' exit code and first stderr
line.  Where stdout differs, it says whether only the numbers in it differ
and, if so, gives the largest relative difference |a - b| / max(|a|, |b|)
between numbers at the same position, so that a last-digit move reads apart
from a real change.  Exits 1 if any argv differs, 0 otherwise.  Standard
library only.
"""

import math
import os
import re
import subprocess
import sys

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

SMALL = ("--x-count", "3", "--tau-count", "3")
COMMANDS = (
    ("eval", "--x", "1", "--tau", "1"),
    ("eval", "--x", "1", "--tau", "1", "--method", "keyformula", "--N", "6"),
    ("eval", "--x", "2", "--tau", "3", "--method", "defseries"),
    ("eval", "--x", "0.01", "--tau", "5", "--method", "defseries"),
    ("certify", "--id", "LEBEDEV_15") + SMALL,
    ("certify", "--id", "FAMILY_17", "--nu", "0.4", "--mu", "0.2") + SMALL,
    ("certify", "--all") + SMALL,
    ("certify", "--id", "LEBEDEV_15", "--spacing", "linear") + SMALL,
    # the family members away from their defaults
    ("certify", "--id", "DELTA_111", "--delta", "0.3") + SMALL,
    ("certify", "--id", "DELTA_118", "--delta", "0.7") + SMALL,
    ("certify", "--id", "K1_115", "--nu", "3") + SMALL,
    ("certify", "--id", "MU_EQ_NU_112", "--nu", "-0.3") + SMALL,
    ("certify", "--id", "VIA_116_117", "--nu", "2.5") + SMALL,
    ("asympt", "--tau-count", "5"),
    ("asympt", "--spacing", "linear", "--tau-count", "4"),
    ("asympt", "--x", "2", "--N", "0", "--tau0", "2", "--tau-min", "2", "--tau-count", "3"),
    ("identities",),
    ("summ",),
    ("summ", "--psi1", "cos", "--a", "0.3", "--schedule", "1e-1,1e-2,1e-3"),
    ("summ", "--psi1", "zero", "--psi2", "one", "--a", "0.3"),
    ("catalog",),
)
PROBES = (
    ("summ", "--s", "400"),
    ("certify", "--id", "COMPOSITE_126", "--M", "200", "--N", "200"),
    ("certify", "--id", "ITER_130", "--n", "2000"),
    ("asympt", "--X", "2000"),
    ("certify", "--all", "--tau-min", "500", "--tau-max", "600", "--x-count", "2",
     "--tau-count", "2"),
    ("certify", "--id", "FAMILY_17", "--nu", "1000", "--mu", "0"),
    ("certify", "--id", "OLENKO_19", "--nu", "inf"),
    ("certify", "--id", "DELTA_118", "--delta", "inf"),
    ("certify", "--id", "K1_115", "--nu", "inf"),
    ("asympt", "--x", "1", "--X", "900", "--tau0", "400", "--tau-min", "400",
     "--tau-max", "400", "--tau-count", "1"),
    ("eval", "--x", "1", "--tau", "1", "--abs-tol", "1e-300", "--rel-tol", "1e-30"),
    ("certify", "--id", "NO_SUCH_BOUND"),
    ("catalog", "--output", "/nonexistent/dir/x.csv"),
    ("certify", "--id", "LEBEDEV_15", "--tau-min", "1e-300", "--tau-max", "1e-200",
     "--x-count", "2", "--tau-count", "2"),
    ("certify", "--id", "COMPOSITE_126", "--delta", "1000") + SMALL,
    ("asympt", "--N", "21"),
    # K is 4.9e-6 of its natural scale here, near one of its zeros
    ("identities", "--id", "INDEX_RAISING", "--x", "0.34374293694545893", "--tau", "10"),
    # outside the representations' domains: a residual of 4.34e286, a
    # residual of 1.0 after an overflow warning, and two sides that underflow
    ("identities", "--id", "EQ_1_21", "--x", "1e300"),
    ("identities", "--id", "EQ_1_4", "--x", "1e-300"),
    ("identities", "--id", "EQ_1_27", "--x", "1e300"),
)
ARGVS = tuple(c + f for c in COMMANDS for f in ((), ("--format", "json"))) + PROBES


def start(checkout, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    return subprocess.Popen([sys.executable, "-m", "klbessel", *argv], cwd=checkout, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def outcome(proc):
    """(stdout bytes, exit code, first line of stderr) of a started run."""
    out, err = proc.communicate()
    first = err.decode(errors="replace").partition("\n")[0]
    return out, proc.returncode, first


def number_diff(a, b):
    """How two stdouts differ: "text differs" if they differ outside their
    numbers, else the numbers only, with the largest relative difference."""
    if NUMBER.split(a) != NUMBER.split(b):
        return "text differs"
    worst = (0.0, b"", b"")
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        u, v = float(x), float(y)
        diff = abs(u - v)
        rel = 0.0 if u == v else math.inf if math.isinf(diff) else diff / max(abs(u), abs(v))
        worst = max(worst, (rel, x, y))
    rel, x, y = worst
    return (f"numbers only, largest relative difference {rel:.2e}"
            f" ({x.decode()} -> {y.decode()})")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(os.path.join(d, "src", "klbessel")) for d in args):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = args
    differ = 0
    for cmd in ARGVS:
        # the two sides run at once, each in its own process
        a, b = (outcome(p) for p in [start(parent, cmd), start(change, cmd)])
        if a != b:
            differ += 1
            what = [name for name, x, y in zip(("stdout", "exit", "stderr"), a, b) if x != y]
            print(f"klbessel {' '.join(cmd)}: {', '.join(what)} differ")
            if a[0] != b[0]:
                print(f"  stdout: {number_diff(a[0], b[0])}")
            print(f"  parent: exit {a[1]}, {a[2]!r}")
            print(f"  change: exit {b[1]}, {b[2]!r}")
    print(f"{differ} of {len(ARGVS)} argv lists differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
