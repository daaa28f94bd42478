"""Command-line interface: exit codes, schemas, round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klbessel
from klbessel import asymptotic
from klbessel.cli import RunConfig, main

K_AT_1_1 = 0.28942803702599213


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestRunConfig:
    def test_defaults_are_valid(self):
        rc = RunConfig(command="eval")
        assert rc.spacing == "log"
        assert rc.output_format == "csv"

    @pytest.mark.parametrize("kwargs", [
        dict(x_count=0),
        dict(tau_count=-1),
        dict(x_min=0.0),
        dict(x_min=2.0, x_max=1.0),
        dict(tau_min=-1.0),
        dict(spacing="cubic"),
        dict(abs_tol=0.0),
        dict(rel_tol=-1e-9),
        dict(output_format="yaml"),
        dict(tau_min=2.0, tau_max=1.0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(command="eval", **kwargs)

    def test_linear_grid_spacing(self):
        rc = RunConfig(command="certify", spacing="linear",
                       x_min=1.0, x_max=3.0, x_count=3,
                       tau_min=1.0, tau_max=2.0, tau_count=2)
        grid = rc.grid()
        assert len(grid) == 6
        assert [p.x for p in grid[:3]] == [1.0, 2.0, 3.0]
        assert grid[0].tau == 1.0 and grid[-1].tau == 2.0


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "eval", "--x", "1", "--tau", "1", "--bogus")
        assert code == 2

    def test_certify_requires_id_or_all(self, capsys):
        code, _, _ = run(capsys, "certify")
        assert code == 2

    def test_certify_unknown_id(self, capsys):
        code, _, err = run(capsys, "certify", "--id", "NOPE")
        assert code == 2
        assert "NOPE" in err

    def test_domain_violation_maps_to_usage(self, capsys):
        code, _, err = run(capsys, "certify", "--id", "K1_115", "--nu", "1.2",
                           "--x-count", "2", "--tau-count", "2")
        assert code == 2
        assert "nu" in err

    def test_eval_negative_x(self, capsys):
        code, _, _ = run(capsys, "eval", "--x", "-1", "--tau", "1")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--help")
        assert code == 0
        assert "error_estimate" in out  # schema documented in the epilog


class TestEval:
    def test_oracle_value_and_estimate(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--tau", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "tau", "method", "N", "value", "error_estimate"]
        assert len(rows) == 1
        assert float(rows[0][4]) == pytest.approx(K_AT_1_1, rel=1e-12)
        assert float(rows[0][5]) < 1e-10

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("oracle", "keyformula", "defseries"):
            code, out, _ = run(capsys, "eval", "--x", "2", "--tau", "3",
                               "--method", method)
            assert code == 0
            _, rows = parse_csv(out)
            values[method] = float(rows[0][4])
        assert values["oracle"] == pytest.approx(values["keyformula"], rel=1e-10)
        assert values["oracle"] == pytest.approx(values["defseries"], rel=1e-10)

    def test_defseries_has_no_order_column(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--tau", "1",
                           "--method", "defseries")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][3] == ""

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--tau", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
        assert doc["value"] == pytest.approx(K_AT_1_1, rel=1e-12)

    def test_unattainable_tolerance_exits_three(self, capsys):
        code, _, err = run(capsys, "eval", "--x", "1", "--tau", "1",
                           "--abs-tol", "1e-300", "--rel-tol", "1e-30")
        assert code == 3
        assert "accuracy" in err

    @pytest.mark.parametrize("x, tau", [("700", "0.1"), ("1e4", "1"), ("30", "1"), ("100", "1")])
    def test_key_formula_overflow_exits_three(self, capsys, recwarn, x, tau):
        # the key-formula reference series overflows or does not terminate
        # (x = 700, 1e4), or cancels below its roundoff floor (x = 30, 100)
        code, out, err = run(capsys, "eval", "--x", x, "--tau", tau)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(recwarn) == 0


    @pytest.mark.parametrize("argv", [
        ("--x", "1e-33", "--tau", "1"),
        ("--x", "1e-300", "--tau", "1", "--method", "keyformula"),
    ])
    def test_tiny_x_prints_a_value_or_refuses(self, capsys, recwarn, argv):
        # the key formula's remainder prefactor x^{2N+2} underflows to 0 here
        code, out, err = run(capsys, "eval", *argv)
        if code == 3:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0 and err == ""
            _, rows = parse_csv(out)
            assert math.isfinite(float(rows[0][4]))
        assert len(recwarn) == 0

    def test_method_sweep_prints_a_value_or_one_error_line(self, capsys):
        # seeded log-uniform points far beyond every contract; the oracle
        # takes the key formula at N = 4 as its error estimate
        rng = np.random.default_rng(2026)
        xs = np.exp(rng.uniform(math.log(1e-40), math.log(1e3), 40))
        taus = np.exp(rng.uniform(math.log(1e-12), 3.5 * math.log(10.0), 40))
        for x, tau in zip(xs, taus):
            for method in ("oracle", "keyformula", "defseries"):
                argv = ("eval", "--x", repr(float(x)), "--tau", repr(float(tau)), "--method", method)
                code, out, err = run(capsys, *argv)
                if code == 0:
                    _, rows = parse_csv(out)
                    assert err == "" and math.isfinite(float(rows[0][4])), argv
                else:
                    assert code in (2, 3) and out == "", argv
                    assert err.startswith("error: ") and err.count("\n") == 1, argv


class TestCertify:
    def test_single_bound_passes(self, capsys):
        code, out, _ = run(capsys, "certify", "--id", "LEBEDEV_15",
                           "--x-count", "4", "--tau-count", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["id", "label", "params", "max_ratio", "worst_x",
                          "worst_tau", "indeterminate", "passed"]
        assert rows[0][0] == "LEBEDEV_15"
        assert rows[0][7] == "true"
        assert 0.0 < float(rows[0][3]) <= 1.0 + 1e-9

    def test_parameter_flag_reaches_descriptor(self, capsys):
        code, out, _ = run(capsys, "certify", "--id", "ITER_130", "--n", "3",
                           "--x-count", "2", "--tau-count", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert "n=3" in rows[0][2]

    def test_all_covers_catalog(self, capsys):
        code, out, _ = run(capsys, "certify", "--all",
                           "--x-count", "3", "--tau-count", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 17
        assert all(r[7] == "true" for r in rows)

    def test_json_certificate_round_trips(self, capsys):
        code, out, _ = run(capsys, "certify", "--id", "MODIFIED_110",
                           "--x-count", "2", "--tau-count", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
        assert doc["pass"] is True
        assert len(doc["grid"]) == 4


class TestAsympt:
    def test_reports_over_tau_axis(self, capsys):
        code, out, _ = run(capsys, "asympt", "--tau-count", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == asymptotic.report_csv_header()
        assert len(rows) == 4
        assert all(r[7] == "true" for r in rows)
        assert float(rows[0][1]) == 1.0 and float(rows[-1][1]) == pytest.approx(40.0)

    def test_order_zero_warns(self, capsys):
        code, _, err = run(capsys, "asympt", "--tau-count", "2", "--N", "0")
        assert code == 0
        assert "N=1 bound" in err

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "asympt", "--tau-count", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
        assert len(doc["reports"]) == 2

    def test_point_outside_domain(self, capsys):
        code, _, _ = run(capsys, "asympt", "--x", "7.0", "--tau-count", "2")
        assert code == 2  # x must not exceed the window bound X

    def test_tau_beyond_the_measured_range(self, capsys):
        # natural_scale(tau) underflows to 0 from tau = 474
        code, out, err = run(capsys, "asympt", "--tau-min", "500", "--tau-max", "1000",
                             "--tau-count", "2")
        assert code == 2
        assert out == "" and "tau <= 400" in err

    def test_deep_truncation_prints_a_checked_remainder(self, capsys):
        code, out, _ = run(capsys, "asympt", "--x", "15", "--X", "15", "--N", "16",
                           "--tau-count", "4")
        assert code == 0
        header, rows = parse_csv(out)
        measured, explicit = (header.index(k) for k in ("remainder_measured", "remainder_explicit"))
        assert all(abs(float(r[measured]) - float(r[explicit])) <= 1e-8 for r in rows)

    def test_unchecked_remainder_exits_three(self, capsys, monkeypatch):
        true_explicit = asymptotic.remainder_explicit
        monkeypatch.setattr(asymptotic, "remainder_explicit",
                            lambda p, N, cfg: true_explicit(p, N, cfg) + 1e-6)
        code, out, err = run(capsys, "asympt", "--tau-count", "2")
        assert code == 3
        assert out == ""
        assert "explicit remainder" in err


class TestIdentities:
    def test_default_rows_pass(self, capsys):
        code, out, _ = run(capsys, "identities")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["id", "x", "tau", "residual", "tolerance", "passed"]
        assert [r[0] for r in rows] == [
            "EQ_1_27", "EQ_1_4", "EQ_1_21", "EQ_1_6", "INDEX_RAISING"]
        for r in rows:
            assert float(r[3]) <= float(r[4])
            assert r[5] == "true"

    def test_single_identity_with_point_override(self, capsys):
        code, out, _ = run(capsys, "identities", "--id", "INDEX_RAISING",
                           "--x", "1", "--tau", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 5.0
        assert rows[0][5] == "true"

    def test_eq_1_6_off_the_default_point(self, capsys):
        code, out, _ = run(capsys, "identities", "--id", "EQ_1_6",
                           "--x", "0.1", "--tau", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][5] == "true"

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "identities", "--id", "EQ_9_99")
        assert code == 2
        assert "EQ_9_99" in err


class TestSumm:
    def test_default_table_converges(self, capsys):
        code, out, _ = run(capsys, "summ")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["epsilon", "pairing", "target", "error"]
        assert len(rows) == 5
        errors = [float(r[3]) for r in rows]
        assert errors[-3] > errors[-2] > errors[-1]

    def test_short_schedule_fails_convergence(self, capsys):
        code, out, _ = run(capsys, "summ", "--schedule", "0.1")
        assert code == 1
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_type_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "summ", "--psi1", "cos", "--b", "0.19")
        assert code == 2
        assert "(1 - sin a)/(2e)" in err

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "summ", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
        assert doc["converged"] is True
        assert len(doc["pairing_values"]) == 5

    def test_tilted_run(self, capsys):
        code, out, _ = run(capsys, "summ", "--a", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        target = float(rows[0][2])
        assert target == pytest.approx(1.5707963267948966 / (1 - 0.479425538604203),
                                       rel=1e-10)


class TestCatalog:
    def test_csv_lists_every_bound(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["id", "label", "params", "order_mu", "kernel_part",
                          "validity"]
        assert len(rows) == 17
        assert rows[0][0] == "LEBEDEV_15"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
        assert len(doc["bounds"]) == 17


class TestOutputAndEnvironment:
    def test_output_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "eval", "--x", "1", "--tau", "1",
                           "--output", str(path))
        assert code == 0
        assert out == ""
        header, rows = parse_csv(path.read_text())
        assert header[0] == "x" and len(rows) == 1

    def test_workers_flag_is_gone(self, capsys):
        # grids are evaluated in one batched pass; there is no process pool
        code, out, err = run(capsys, "certify", "--id", "LEBEDEV_15",
                             "--workers", "2")
        assert code == 2
        assert out == ""
        assert "--workers" in err


class TestModuleEntryPoint:
    def test_python_m_klbessel_is_clean(self):
        env = dict(os.environ, PYTHONPATH=str(Path(klbessel.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "klbessel", "catalog"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        header, rows = parse_csv(proc.stdout)
        assert header[0] == "id" and len(rows) == 17

    def test_import_leaves_out_scipy_interpolate(self):
        env = dict(os.environ, PYTHONPATH=str(Path(klbessel.__file__).parents[1]))
        code = "import sys, klbessel; print('scipy.interpolate' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_every_traced_name_survives(self):
        # a traced name that is gone leaves its benchmark metrics null, so
        # each (label, module, attribute) of the tracer must still resolve
        # after the CLI's own import
        root = Path(klbessel.__file__).parents[2]
        code = (
            "import json, sys, klbessel.cli\n"
            f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
            "from tracer import TARGETS\n"
            "gone = [label for label, module, attr in TARGETS\n"
            "        if not callable(getattr(sys.modules.get(module), attr, None))]\n"
            "print(json.dumps([len(TARGETS), gone]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        count, gone = json.loads(proc.stdout)
        assert count >= 20 and gone == []
