import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orthotime import bounds, cli, qubit
from helpers import count_linalg_calls, overflow_pair, random_hermitian

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, payload):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return str(path)


def matrix_pairs(h):
    return [[[float(z.real), float(z.imag)] for z in row] for row in h]


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

    # find_t_perp never orthogonalizes a pair of scalar operators, and no
    # bound is finite for one, so the report has no bounds block.  A span of
    # 5e-324 acts the same: its half-spans underflow to zero, and the default
    # horizon, which pi / L would overflow, is capped at the largest float.
    @pytest.mark.parametrize("payload", [
        {"dim": 2, "H_a": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
         "H_b": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]},
        {"dim": 1, "H_a": [[[1, 0]]], "H_b": [[[2, 0]]]},
        {"qubit": {"omega_a": 0, "omega_b": 0, "gamma": 1}},
        {"dim": 2, "H_a": [[[5e-324, 0], [0, 0]], [[0, 0], [0, 0]]],
         "H_b": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
    ], ids=["dim_2", "dim_1", "qubit", "subnormal_span"])
    @pytest.mark.parametrize("command, exit_code", [("discriminate", 2), ("bounds", 0)])
    def test_scalar_pair_has_null_bounds(self, tmp_path, capsys, payload, command, exit_code):
        path = write_problem(tmp_path, payload)
        code, out, err = run_cli([command, "--input", path], capsys)
        assert (code, err) == (exit_code, "")
        report = json.loads(out)
        assert report["found"] is False and report["bounds"] is None

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

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_qubit_axis_of_any_scale_is_normalized(self, tmp_path, capsys, scale):
        def t_perp(axis_a):
            path = write_problem(tmp_path, {
                "qubit": {"omega_a": 1.0, "omega_b": 2.0,
                          "axis_a": axis_a, "axis_b": [0, 0, 1]},
            })
            code, out, err = run_cli(["discriminate", "--input", path], capsys)
            assert (code, err) == (0, "")
            return json.loads(out)["t_perp"]

        assert_allclose(t_perp([scale, scale, 0]), t_perp([1, 1, 0]), rtol=1e-12)

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


_QUBIT = {"omega_a": 3.0, "omega_b": 1.0}
_SHORT_ROW = [SZ_PAIR["H_a"][0], [[0, 0]]]
_TEXT_CELL = [[["1", 0], [0, 0]], SZ_PAIR["H_a"][1]]


class TestProblemRejections:
    """Each malformed problem ends in exit 1, no report, and one stderr line
    that names the rule it breaks."""

    @pytest.mark.parametrize("text, message", [
        ("{", "input is not valid JSON: Expecting property name enclosed in "
              "double quotes: line 1 column 2 (char 1)"),
        (json.dumps([1, 2]), "problem must be a JSON object"),
        (json.dumps({"dim": 2, "H_a": SZ_PAIR["H_a"]}), "H_b is required in the matrix form"),
        (json.dumps(dict(SZ_PAIR, H_a="x")), "H_a must be a 2x2 array of [re, im] pairs"),
        (json.dumps(dict(SZ_PAIR, H_a=_SHORT_ROW)), "H_a[1] must have 2 entries"),
        (json.dumps(dict(SZ_PAIR, H_a=_TEXT_CELL)), "H_a[0][0][0] must be a number"),
        (json.dumps({"qubit": [1, 2]}), "qubit must be an object"),
        (json.dumps({"qubit": {"omega_a": 3.0, "gamma": 1.0}}), "qubit.omega_b is required"),
        (json.dumps({"qubit": _QUBIT}),
         "qubit must contain exactly one of gamma or (axis_a, axis_b)"),
        (json.dumps({"qubit": dict(_QUBIT, axis_a=[0, 0, 1])}),
         "qubit.axis_b is required when axes are given"),
        (json.dumps({"qubit": dict(_QUBIT, axis_a=[0, 1], axis_b=[0, 0, 1])}),
         "qubit.axis_a must be a 3-vector"),
        (json.dumps({"qubit": dict(_QUBIT, axis_a=[0, 0, 0], axis_b=[0, 0, 1])}),
         "qubit.axis_a must be a nonzero 3-vector"),
    ], ids=["bad_json", "not_an_object", "missing_H_b", "matrix_not_a_list", "short_row",
            "text_cell", "qubit_not_an_object", "missing_omega_b", "no_gamma_or_axes",
            "missing_axis_b", "two_entry_axis", "zero_axis"])
    def test_discriminate(self, tmp_path, capsys, text, message):
        path = tmp_path / "problem.json"
        path.write_text(text)
        code, out, err = run_cli(["discriminate", "--input", str(path)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_fig2_gamma_below_zero(self, capsys):
        code, out, err = run_cli(["fig2", "--gamma-min", "-0.1"], capsys)
        assert code == 1 and out == ""
        assert err == "error: need 0 <= gamma_min <= gamma_max <= pi\n"


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

    def test_block_is_the_library_report(self, tmp_path, capsys):
        # Seeded matrix problems, found under the default horizon and not
        # found under one below the span bound, and the README qubit problem.
        rng = np.random.default_rng(53)
        runs = []
        for d in range(2, 6):
            for _ in range(3):
                ha, hb = (random_hermitian(rng, d, radius=rng.uniform(0.5, 2.0))
                          for _ in range(2))
                problem = {"dim": d, "H_a": matrix_pairs(ha), "H_b": matrix_pairs(hb)}
                runs.append((problem, []))
                runs.append((problem, ["--t-max", repr(0.5 * bounds.span_lower_bound(ha, hb))]))
        runs.append(({"qubit": {"omega_a": 3.0, "omega_b": 1.0, "gamma": np.pi}}, []))
        found = []
        for problem, flags in runs:
            path = write_problem(tmp_path, problem)
            code, out, _ = run_cli(["discriminate", "--input", path] + flags, capsys)
            report = json.loads(out)
            found.append(report["found"])
            assert code == (0 if report["found"] else 2)
            loaded = cli.load_problem(path)
            state = (np.array([complex(*z) for z in report["state"]]) if report["found"]
                     else None)
            library = bounds.bounds_report(loaded.ha, loaded.hb, state, loaded.e_bar)
            geodesic = library.geodesic_length_at(report["t_perp"]) if report["found"] else None
            assert report["bounds"] == dict(dataclasses.asdict(library),
                                            geodesic_length_at_t_perp=geodesic)
        assert found.count(True) == 13 and found.count(False) == 12

    def test_block_checks_nothing_again(self, tmp_path, capsys, monkeypatch):
        # load_problem and find_t_perp check each operator once; the bounds
        # block adds its two eigensolves and no check.
        path = write_problem(tmp_path, SZ_PAIR)
        calls = count_linalg_calls(monkeypatch)
        code, _, _ = run_cli(["discriminate", "--input", path], capsys)
        assert code == 0 and calls == {"assert_hermitian": 4, "herm_eig": 2, "_eigh": 4}


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

    @pytest.mark.parametrize("omega_sum", ["2e-305", "2e200"])
    def test_fig1_at_extreme_frequency_scales(self, capsys, omega_sum):
        # Every time scales as 1 / omega_sum; the normalized time does not.
        argv = ["fig1", "--r-min", "0.001", "--r-max", "0.001", "--points", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        base = out.strip().split("\n")[1].split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv + ["--omega-sum", omega_sum], capsys)
        assert code == 0 and err == ""
        row = out.strip().split("\n")[1].split(",")
        assert row[2] == base[2] and row[6] == base[6] == "true"
        for col in (1, 3, 4, 5):
            assert_allclose(float(row[col]), float(base[col]) * 2.0 / float(omega_sum),
                            rtol=1e-12)

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

    # At ratio 1 and gamma = 0 the difference field vanishes: no Margolus
    # bound, NA in the CSV and null in the report.
    @pytest.mark.parametrize("omega_ratio", [3.0, 1.0])
    def test_fig2_rows_agree_with_the_qubit_problem(self, tmp_path, capsys, omega_ratio):
        code, out, _ = run_cli(["fig2", "--points", "5", "--omega-ratio", str(omega_ratio)],
                               capsys)
        rows = cli.fig2_rows(0.0, np.pi, 5, omega_ratio)
        assert code == 0 and out == cli.rows_to_csv(rows)
        columns = [field.name for field in dataclasses.fields(cli.SweepRow)]
        header, *lines = out.strip().split("\n")
        assert header.split(",") == columns
        assert all(len(line.split(",")) == len(columns) for line in lines)
        omegas = {"omega_a": 2.0 * omega_ratio / (1.0 + omega_ratio),
                  "omega_b": 2.0 / (1.0 + omega_ratio)}
        for gamma, row, line in zip(np.linspace(0.0, np.pi, 5), rows, lines):
            path = write_problem(tmp_path, {"qubit": dict(omegas, gamma=gamma)})
            code, out, _ = run_cli(["discriminate", "--input", path], capsys)
            assert code == (0 if row.exists else 2)
            assert json.loads(out)["bounds"]["t_margolus"] == row.t_margolus
            assert (line.split(",")[5] == "NA") == (row.t_margolus is None)
        assert (omega_ratio == 1.0) == (rows[0].t_margolus is None)

    def test_sweep_row_is_the_checked_assembly_bit_for_bit(self):
        # Every qubit_sweep benchmark row, rootless and late ones included,
        # against the same row built from the public, checked functions.
        for case in workloads.qubit_cases(1):
            abscissa, gamma, wa, wb = case.args
            field_a, field_b, ha, hb, e_bar = cli._qubit_problem(wa, wb,
                                                                 *cli.axes_for_gamma(gamma))
            t_perp = qubit.qubit_t_perp(gamma, wa, wb)
            if t_perp is None:
                report = bounds.bounds_report(ha, hb, None, e_bar)
                expected = cli.SweepRow(abscissa, None, None, None, report.t_lb_span,
                                        report.t_margolus, False)
            else:
                psi = qubit.discrimination_state(field_a, field_b, t_perp)
                report = bounds.bounds_report(ha, hb, psi, e_bar)
                expected = cli.SweepRow(abscissa, t_perp, t_perp * (wa + wb) / (4.0 * np.pi),
                                        report.t_lb_aa, report.t_lb_span, report.t_margolus,
                                        True)
            assert repr(cli.qubit_sweep_row(*case.args)) == repr(expected)

    def test_sweep_row_checks_nothing_twice(self, monkeypatch):
        # The row's operators and state are built valid, so the bounds run
        # unchecked: two eigensolves, no Hermiticity or state check.
        calls = count_linalg_calls(monkeypatch)
        row = cli.qubit_sweep_row(1.0, 1.0, 3.0, 1.0)
        assert row.exists and calls == {"_eigh": 2}

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
