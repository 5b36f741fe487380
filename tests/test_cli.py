import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orthotime import cli, qubit
from helpers import overflow_pair


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, payload):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


SZ_PAIR = {
    "dim": 2,
    "H_a": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
    "H_b": [[[-1, 0], [0, 0]], [[0, 0], [1, 0]]],
}


class TestDiscriminate:
    def test_opposite_fields(self, tmp_path, capsys):
        path = write_problem(tmp_path, SZ_PAIR)
        code, out, _ = run_cli(["discriminate", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        assert_allclose(report["t_perp"], np.pi / 4, rtol=1e-9)
        assert report["residual"] <= 1e-8
        assert report["bounds"]["t_lb_span"] <= report["bounds"]["t_lb_aa"] * (1 + 1e-12)

    def test_identical_pair_exits_two(self, tmp_path, capsys):
        payload = dict(SZ_PAIR, H_b=SZ_PAIR["H_a"])
        path = write_problem(tmp_path, payload)
        code, out, _ = run_cli(["discriminate", "--input", path, "--t-max", "5.0"], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["found"] is False
        assert "no orthogonality" in report["message"]
        assert report["g_infimum"] > 0

    def test_qubit_shorthand_anti_aligned(self, tmp_path, capsys):
        path = write_problem(tmp_path, {
            "qubit": {"omega_a": 3.0, "omega_b": 1.0, "gamma": np.pi},
        })
        code, out, _ = run_cli(["discriminate", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert_allclose(report["t_perp"], np.pi / 8, rtol=1e-9)
        assert_allclose(report["bounds"]["t_margolus"], np.pi / 8, rtol=1e-12)

    def test_qubit_axes_form(self, tmp_path, capsys):
        path = write_problem(tmp_path, {
            "qubit": {"omega_a": 1.0, "omega_b": 1.0,
                      "axis_a": [0, 0, 1], "axis_b": [1, 0, 0]},
        })
        code, out, _ = run_cli(["discriminate", "--input", path], capsys)
        assert code == 0
        assert_allclose(json.loads(out)["t_perp"], np.pi / 2, rtol=1e-6)

    def test_output_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, SZ_PAIR)
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(["discriminate", "--input", path,
                              "--output", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out_path.read_text())["found"] is True


class TestInputValidation:
    def test_non_hermitian_names_field(self, tmp_path, capsys):
        payload = dict(SZ_PAIR, H_a=[[[1, 0], [0, 5]], [[0, 0], [-1, 0]]])
        path = write_problem(tmp_path, payload)
        code, _, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1
        assert "H_a" in err

    def test_bad_cell_names_indices(self, tmp_path, capsys):
        payload = dict(SZ_PAIR, H_b=[[[1, 0], [0]], [[0, 0], [-1, 0]]])
        path = write_problem(tmp_path, payload)
        code, _, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1
        assert "H_b[0][1]" in err

    def test_both_forms_rejected(self, tmp_path, capsys):
        payload = dict(SZ_PAIR, qubit={"omega_a": 1, "omega_b": 1, "gamma": 0.2})
        path = write_problem(tmp_path, payload)
        code, _, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1
        assert "exactly one" in err

    def test_unknown_qubit_field(self, tmp_path, capsys):
        path = write_problem(tmp_path, {
            "qubit": {"omega_a": 1, "omega_b": 1, "gama": 0.2},
        })
        code, _, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1
        assert "qubit.gama" in err

    def test_unknown_top_level_field(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(SZ_PAIR, t_mx=0.1))
        code, out, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err == "error: t_mx is not a recognized field\n"

    # The grid step and refinement tolerance are worked out from the pair, so
    # a file that still sets them is rejected rather than silently ignored.
    @pytest.mark.parametrize("field, rule", [
        ("t_max", "must be positive"),
        ("scan_step", "is not a recognized field"),
        ("refine_tol", "is not a recognized field"),
    ], ids=["t_max", "scan_step", "refine_tol"])
    def test_nonpositive_problem_value_names_field(self, tmp_path, capsys, field, rule):
        path = write_problem(tmp_path, dict(SZ_PAIR, **{field: -1.0}))
        code, _, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1
        assert err == f"error: {field} {rule}\n"

    @pytest.mark.parametrize("dim", [0, 2.0, True, "2"], ids=repr)
    def test_bad_dim_is_named(self, tmp_path, capsys, dim):
        path = write_problem(tmp_path, dict(SZ_PAIR, dim=dim))
        code, out, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err == "error: dim must be an integer of at least 1\n"

    @pytest.mark.parametrize("key", ["omega_a", "omega_b"])
    def test_negative_qubit_frequency_is_named(self, tmp_path, capsys, key):
        qubit_fields = {"omega_a": 3.0, "omega_b": 1.0, "gamma": 1.0, key: -1.0}
        path = write_problem(tmp_path, {"qubit": qubit_fields})
        code, out, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err == f"error: qubit.{key} must be nonnegative\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["discriminate", "--input", "/nonexistent.json"], capsys)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["discriminate", "bounds"])
    def test_corrupted_margin_is_a_one_line_error(self, tmp_path, capsys, monkeypatch, command):
        # Beats 100x faster than the pair's L break the scan's continuity check.
        clean = qubit._two_beats
        monkeypatch.setattr(qubit, "_two_beats", lambda w, b, t: clean(w, b, 100.0 * t))
        path = write_problem(tmp_path, SZ_PAIR)
        code, out, err = run_cli([command, "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: scan jump ratio ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, flag", [
        (["fig1", "--points", "0"], "--points"),
        (["fig2", "--points", "-2"], "--points"),
        (["verify-theorem", "--trials", "0"], "--trials"),
        (["verify-theorem", "--dim-max", "0"], "--dim-max"),
    ])
    def test_bad_count_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be an integer of at least 1\n"


class TestNonFiniteInput:
    """JSON accepts the tokens Infinity and NaN, and argparse accepts inf and
    nan; each must end in a one-line error naming the field, not a traceback
    or a report."""

    @pytest.mark.parametrize("extra, field", [
        ({"t_max": float("inf")}, "t_max"),
        ({"scan_step": float("nan")}, "scan_step"),
        ({"alpha": float("nan")}, "alpha"),
        ({"H_a": [[[float("inf"), 0], [0, 0]], [[0, 0], [-1, 0]]]}, "H_a[0][0][0]"),
    ])
    def test_problem_file(self, tmp_path, capsys, extra, field):
        path = write_problem(tmp_path, dict(SZ_PAIR, **extra))
        code, out, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(SZ_PAIR, t_max=10**400))
        code, out, err = run_cli(["discriminate", "--input", path], capsys)
        assert code == 1 and out == ""
        assert err == "error: t_max must be finite\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_alpha_flag(self, tmp_path, capsys, alpha):
        path = write_problem(tmp_path, SZ_PAIR)
        code, out, err = run_cli(["discriminate", "--input", path, f"--alpha={alpha}"], capsys)
        assert code == 1 and out == ""
        assert err == "error: alpha must be finite\n"

    def test_qubit_frequency(self, tmp_path, capsys):
        path = write_problem(tmp_path, {
            "qubit": {"omega_a": 3.0, "omega_b": float("nan"), "gamma": 1.0},
        })
        code, _, err = run_cli(["bounds", "--input", path], capsys)
        assert code == 1
        assert err.startswith("error:") and "qubit.omega_b" in err

    @pytest.mark.parametrize("flags, field", [
        (["--t-max", "-1"], "t_max"),
        (["--t-max", "0"], "t_max"),
        (["--t-max", "nan"], "t_max"),
        (["--t-max", "inf"], "t_max"),
    ])
    def test_flags(self, tmp_path, capsys, flags, field):
        path = write_problem(tmp_path, SZ_PAIR)
        code, out, err = run_cli(["discriminate", "--input", path] + flags, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_grid_size_beyond_float_range(self, tmp_path, capsys):
        path = write_problem(tmp_path, SZ_PAIR)
        code, out, err = run_cli(["discriminate", "--input", path, "--t-max", "8e307"], capsys)
        assert code == 1 and out == ""
        assert err == "error: t_max (8e+307) gives no finite scan grid count\n"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_phase_overflow_on_the_horizon(self, tmp_path, capsys, dim):
        entries = [[[[z.real, z.imag] for z in row] for row in h] for h in overflow_pair(dim)]
        path = write_problem(tmp_path, {"dim": dim, "H_a": entries[0], "H_b": entries[1]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["discriminate", "--input", path, "--t-max", "1e300"],
                                     capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: t_max * (max|lam| + max|mu|)") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, field", [
        (["fig1", "--omega-sum", "inf"], "omega_sum"),
        (["fig2", "--omega-ratio", "inf"], "omega_ratio"),
        (["fig2", "--omega-sum", "nan"], "omega_sum"),
    ])
    def test_sweep_frequencies(self, capsys, argv, field):
        code, out, err = run_cli(argv + ["--points", "2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and field in err

    def test_subnormal_frequency_scale(self, capsys):
        # The rows' frequency difference is at most 5e-324, so the qubit
        # horizon pi / |omega_a - omega_b| overflows.
        code, out, err = run_cli(["fig1", "--omega-sum", "1e-323"], capsys)
        assert code == 1 and out == ""
        assert err == "error: horizon (inf) gives no finite scan grid count\n"


class TestBoundsCommand:
    def test_report_contains_bounds(self, tmp_path, capsys):
        path = write_problem(tmp_path, SZ_PAIR)
        code, out, _ = run_cli(["bounds", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert_allclose(report["bounds"]["t_lb_span"], np.pi / 4, rtol=1e-12)
        assert report["found"] is True


class TestFigureSweeps:
    def test_fig1_schema_and_midpoint(self, capsys):
        code, out, _ = run_cli(["fig1", "--r-min", "0.5", "--r-max", "0.5",
                                "--points", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        row = lines[1].split(",")
        assert_allclose(float(row[2]), 0.25, rtol=1e-10)  # normalized = 1/(8r)
        assert row[6] == "true"

    def test_fig1_margolus_indistinguishable(self, capsys):
        code, out, _ = run_cli(["fig1", "--points", "10"], capsys)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            row = line.split(",")
            assert abs(float(row[1]) - float(row[5])) <= 1e-10

    def test_fig1_bad_range(self, capsys):
        code, _, err = run_cli(["fig1", "--r-min", "0.0"], capsys)
        assert code == 1
        assert "r_min" in err

    def test_fig2_endpoints(self, capsys):
        code, out, _ = run_cli(["fig2", "--points", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        first = lines[0].split(",")
        last = lines[-1].split(",")
        assert_allclose(float(first[2]), 0.25, rtol=1e-10)  # gamma = 0 at ratio 3
        # gamma = pi saturates the span bound
        assert_allclose(float(last[1]), float(last[4]), rtol=1e-10)
        for line in lines:
            row = line.split(",")
            assert float(row[1]) >= float(row[4]) - 1e-10

    def test_fig2_nonexistent_rows_are_na(self, capsys):
        code, out, _ = run_cli(["fig2", "--points", "3", "--omega-ratio", "1.0",
                                "--gamma-max", "0.5"], capsys)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            row = line.split(",")
            assert row[1] == "NA" and row[6] == "false"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(["fig2", "--points", "7"], capsys)
        _, second, _ = run_cli(["fig2", "--points", "7"], capsys)
        assert first == second


class TestVerifyTheorem:
    def test_single_scalar_trial(self, capsys):
        code, out, _ = run_cli(["verify-theorem", "--trials", "1",
                                "--dim-max", "1", "--seed", "3"], capsys)
        assert code == 0
        assert "violations: 0" in out

    def test_deterministic_report(self, capsys):
        args = ["verify-theorem", "--trials", "100", "--dim-max", "5", "--seed", "42"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second
        assert "violations: 0" in first

    def test_bad_arguments(self, capsys):
        code, _, err = run_cli(["verify-theorem", "--trials", "0"], capsys)
        assert code == 1
        assert "trials" in err.lower() or "at least" in err
