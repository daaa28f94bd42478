"""Compare the klbessel CLI's output between two checkouts, argv by argv.

usage: python3 tools/cli_stdout_diff.py PARENT_DIR CHANGE_DIR

Runs a fixed list of argv lists, `python -m klbessel ARGV` with
``PYTHONPATH=<dir>/src``, once in each checkout: every subcommand in CSV and
in JSON, plus probes at the edges of the domains (parameters that overflow,
bounds that underflow, values that are not finite).  For each argv it
compares the stdout bytes, the exit code and the first line of stderr, and
prints every argv that differs with both sides' exit code and first stderr
line.  Exits 1 if any argv differs, 0 otherwise.  Standard library only.
"""

import os
import subprocess
import sys

SMALL = ("--x-count", "3", "--tau-count", "3")
COMMANDS = (
    ("eval", "--x", "1", "--tau", "1"),
    ("eval", "--x", "1", "--tau", "1", "--method", "keyformula", "--N", "6"),
    ("eval", "--x", "2", "--tau", "3", "--method", "defseries"),
    ("certify", "--id", "LEBEDEV_15") + SMALL,
    ("certify", "--id", "FAMILY_17", "--nu", "0.4", "--mu", "0.2") + SMALL,
    ("certify", "--all") + SMALL,
    ("asympt", "--tau-count", "5"),
    ("asympt", "--x", "2", "--N", "0", "--tau0", "2", "--tau-min", "2", "--tau-count", "3"),
    ("identities",),
    ("summ",),
    ("summ", "--psi1", "cos", "--a", "0.3", "--schedule", "1e-1,1e-2,1e-3"),
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
            print(f"  parent: exit {a[1]}, {a[2]!r}")
            print(f"  change: exit {b[1]}, {b[2]!r}")
    print(f"{differ} of {len(ARGVS)} argv lists differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
