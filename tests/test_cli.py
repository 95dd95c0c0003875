import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screenkit
from screenkit import ScreeningInstance, solver
from screenkit.cli import build_parser, main
from screenkit.solver import DEFAULT_GUARD

from helpers import canonical_json_oracle

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
EX1 = str(INSTANCE_DIR / "example1.json")
EX2 = str(INSTANCE_DIR / "example2.json")
EX3 = str(INSTANCE_DIR / "example3.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_fresh(*argv, env=None):
    """Run the command line in a new interpreter that imports this screenkit."""
    src = str(Path(screenkit.__file__).resolve().parent.parent)
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", *argv], env=env,
                          capture_output=True)


def test_solve_downward_example1(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, _ = run(capsys, "solve", "--instance", EX1,
                  "--mode", "downward1d", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["value"] == 0.125
    assert payload["mechanism"]["x"] == [1, 0]
    assert payload["mechanism"]["t"] == [0.0, -1.0]


def test_solve_joint_example3_pretty(capsys):
    code, out = run(capsys, "solve", "--instance", EX3, "--mode", "joint",
                    "--format", "pretty-table")
    assert code == 0
    assert "1.5" in out


def test_solve_strict_flags_example2(capsys):
    code, _ = run(capsys, "solve", "--instance", EX2, "--mode", "joint",
                  "--strict")
    assert code == 3
    code, out = run(capsys, "solve", "--instance", EX2, "--mode", "joint")
    assert code == 0
    assert json.loads(out)["value"] == 0.125


def test_verify_diagnostic_vs_strict(capsys):
    code, out = run(capsys, "verify", "--instance", EX2)
    assert code == 0
    payload = json.loads(out)
    assert payload["assumptions"] == ["surplus_single_crossing"]
    assert payload["applicable"] is False
    assert payload["gap"] == pytest.approx(0.125)

    code, _ = run(capsys, "verify", "--instance", EX2, "--strict")
    assert code == 3


def test_verify_random_batch(capsys):
    # generated batches verify through sweep; verify takes one instance file
    code, out = run(capsys, "sweep", "--random", "5", "--seed", "11")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert all(r["passed"] for r in rows)


def test_converse_example3(capsys):
    code, out = run(capsys, "converse", "--instance", EX3)
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["value"] > payload["productive_value"] + 1e-6


def test_converse_unmet_margin_names_the_best_gap(capsys, tmp_path):
    # the default margin certifies a gap of about 2.5e-4 on this draw
    path = tmp_path / "negative.json"
    screenkit.save_instance(screenkit.random_negative_instance(3, stream=0), path)
    code = main(["converse", "--instance", str(path), "--margin", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "dominance margin 5:" in captured.err
    assert "best gap over productive-only screening is 0.00024552" in captured.err
    assert "inconsistent" not in captured.err


def test_competitive_default(capsys):
    code, out = run(capsys, "competitive", "--params",
                    str(INSTANCE_DIR / "competitive_default.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] > 1e-6
    assert payload["offer_high"][1] > 0
    assert payload["offer_low"] == [0.25, 0.0, 0.125]


def test_bundling_certify(capsys):
    code, out = run(capsys, "bundling", "--params",
                    str(INSTANCE_DIR / "bundling_default.json"), "--certify")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(4.0)
    assert payload["certificate"]["menu_is_optimal"] is True


def _count_calls(monkeypatch, name, modules):
    """Count calls to the function `name` through every module holding it."""
    calls = []
    func = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_bundling_certify_solves_the_menu_once(capsys, monkeypatch):
    from screenkit import applications, cli
    calls = _count_calls(monkeypatch, "solve_bundling", (applications, cli))
    code, _ = run(capsys, "bundling", "--params",
                  str(INSTANCE_DIR / "bundling_default.json"), "--certify")
    assert code == 0
    assert len(calls) == 1


def _count_level_tables(monkeypatch):
    """Count the level tables instances build: each computation of a
    `ScreeningInstance.levels`."""
    calls = []
    compute = ScreeningInstance.levels.func

    def counted(self):
        calls.append("levels")
        return compute(self)

    levels = functools.cached_property(counted)
    levels.__set_name__(ScreeningInstance, "levels")
    monkeypatch.setattr(ScreeningInstance, "levels", levels)
    return calls


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["solve", "--mode", "joint", "--strict"],
    ["solve", "--mode", "full1d", "--strict"],
])
def test_one_level_table_per_command(argv, capsys, monkeypatch, tmp_path):
    path = tmp_path / "positive.json"
    screenkit.save_instance(screenkit.random_positive_instance(3), path)
    calls = _count_level_tables(monkeypatch)
    code, _ = run(capsys, *argv, "--instance", str(path))
    assert code == 0
    assert len(calls) == 1


def _workload_op(kind, tmp_path):
    """The argv of one benchmark op of `kind` on a seed-3 input drawn with
    the knobs its workload in bench/workloads.py uses."""
    from test_bench_names import _load
    workloads = _load("workloads")
    path = tmp_path / f"{kind}.json"
    if kind == "bundling":
        path.write_text(json.dumps(workloads.bundling_params(3, 0)))
    else:
        knobs = {"verify": workloads.VERIFY_CLASSES[1][0],
                 "joint": workloads.JOINT_KNOBS,
                 "full1d": screenkit.GeneratorKnobs(
                     n_a=workloads.FULL1D_LEVELS[0], n_b=2, n_x=6, n_y=2,
                     max_paths=1),
                 "downward1d": workloads.DOWNWARD_KNOBS}
        screenkit.save_instance(
            screenkit.random_negative_instance(3) if kind == "converse"
            else screenkit.random_positive_instance(3, knobs[kind]), path)
    return list(workloads._ARGV[kind]) + [str(path)]


#: Per op of each workload: the coupling passes, the instance level tables,
#: the full-IC scalar solves and the bundling quality lines one op runs.
#: Full1d, downward1d and converse ops read the level table alone; the
#: bundling op's one coupling pass is its ratio check.
OP_WORK = {
    "verify": (1, 1, 1, 0),
    "joint": (1, 1, 1, 0),
    "full1d": (0, 1, 1, 0),
    "downward1d": (0, 1, 0, 0),
    "converse": (0, 1, 1, 0),
    "bundling": (1, 0, 1, 1),
}


@pytest.mark.parametrize("kind", sorted(OP_WORK))
def test_op_work_is_pinned(kind, capsys, monkeypatch, tmp_path):
    from screenkit import applications, stochastics, theorems
    argv = _workload_op(kind, tmp_path)
    couplings = _count_calls(monkeypatch, "_adjacent_couplings",
                             (stochastics, applications))
    tables = _count_level_tables(monkeypatch)
    full1d = _count_calls(monkeypatch, "solve_full_1d",
                          (solver, theorems, applications, screenkit.cli))
    lines = _count_calls(monkeypatch, "_quality_line", (applications,))
    code, _ = run(capsys, *argv)
    assert code == 0
    assert (len(couplings), len(tables), len(full1d), len(lines)) == OP_WORK[kind]


def test_guard_exceeded_is_exit_2(capsys, tmp_path):
    # the guard bounds the rows the joint solver prices: on this negative
    # instance the root bound misses, so the monotone seed prices 6 menus
    # and the root filter keeps 144 of the 1,296 assignments
    path = tmp_path / "negative-11.json"
    screenkit.save_instance(screenkit.random_negative_instance(11, stream=7), path)
    for command in (["solve", "--mode", "joint"], ["verify"]):
        for guard, want in (("100", 2), ("149", 2), ("150", 0)):
            code, _ = run(capsys, *command, "--instance", str(path),
                          "--guard", guard)
            assert code == want, (command, guard)


def test_guard_bounds_the_downward_enumeration(capsys):
    # downward1d enumerates n_x ** n allocations of the type line; full1d
    # takes no guard
    for command in (["solve", "--instance", EX1],
                    ["sweep", "--random", "1", "--seed", "0"]):
        code, out = run(capsys, *command, "--mode", "downward1d")
        assert code == 0
        rows = json.loads(out)
        total = (rows[0] if isinstance(rows, list) else rows)["certificate"]["enumerated"]
        for guard, want in ((total - 1, 2), (total, 0)):
            code, _ = run(capsys, *command, "--mode", "downward1d", "--guard", str(guard))
            assert code == want, (command, guard)
        code, _ = run(capsys, *command, "--mode", "full1d", "--guard", "1")
        assert code == 0, command


def test_space_beyond_the_guard_verifies_when_the_bound_keeps_little(capsys, tmp_path):
    # 13 support points and 9 options: 9^13 assignments, far above the
    # default guard, of which the root filter keeps a handful
    inst = screenkit.random_positive_instance(2, screenkit.GeneratorKnobs(
        n_a=8, n_b=4, n_x=3, n_y=3, max_paths=2))
    assert 9 ** inst.n_support > DEFAULT_GUARD
    path = tmp_path / "large.json"
    screenkit.save_instance(inst, path)
    code, out = run(capsys, "verify", "--instance", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out = run(capsys, "solve", "--mode", "joint", "--instance", str(path))
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["enumerated"] == 9 ** inst.n_support
    assert cert["root_certified"] and cert["kept"] <= 64


def test_a_large_pooled_input_solves_in_little_memory(capsys, tmp_path, monkeypatch):
    # 40 support points on two productive levels and 100 options; the
    # full1d optimum pools the levels, so the root bound is ironed over 40
    # rows of 100 lines. A table of the sum at every crossing of two lines
    # would hold about 6e8 cells
    x, y, theta_b = np.arange(10.0), np.arange(10.0), np.arange(20.0)
    theta_a = np.array([0.0, 0.01])
    inst = screenkit.ScreeningInstance(
        screenkit.ProductiveSpec(theta_a, x, np.outer(x, 1 + theta_a),
                                 -np.outer(x ** 2, [0.05, 0.5])),
        screenkit.CostlySpec(theta_b, y, 0, -np.outer(y, 1 + theta_b / 20),
                             np.outer(0.5 * y, np.ones(20))),
        screenkit.JointDistribution(
            tuple((a, b) for a in range(2) for b in range(20)), np.full(40, 1 / 40)))
    path = tmp_path / "pooled.json"
    screenkit.save_instance(inst, path)
    searched = []
    line_min = solver._line_min
    monkeypatch.setattr(solver, "_line_min",
                        lambda G, h: searched.append(G.shape) or line_min(G, h))
    tracemalloc.start()
    try:
        code, out = run(capsys, "solve", "--mode", "joint", "--instance", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert (40, 100) in searched
    assert cert["root_certified"] and cert["kept"] == 1
    assert peak < 32 * 2 ** 20


def test_missing_file_is_exit_1(capsys):
    code, _ = run(capsys, "solve", "--instance", "/no/such/file.json",
                  "--mode", "joint")
    assert code == 1


def test_bad_json_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _ = run(capsys, "solve", "--instance", str(bad), "--mode", "joint")
    assert code == 1


def sweep_bytes(tmp_path, tag):
    out = tmp_path / f"sweep-{tag}.csv"
    proc = run_fresh("screenkit.cli", "sweep", "--random", "12", "--seed", "3",
                     "--out", str(out), "--format", "csv")
    assert proc.returncode == 0, proc.stderr.decode()
    return out.read_bytes()


def test_sweep_output_identical_across_fresh_runs(tmp_path):
    assert sweep_bytes(tmp_path, "first") == sweep_bytes(tmp_path, "second")


def test_package_runs_as_module():
    proc = run_fresh("screenkit", "--help")
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"usage" in proc.stdout


def test_report_empty_input(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code, _ = run(capsys, "report", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("instance_id,")
    assert len(text.splitlines()) == 1


def test_report_merges_rows_with_blanks(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"instance_id": "x1", "mode": "joint",
                             "value": 1.0}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"instance_id": "x0", "mode": "downward1d",
                             "value": 0.5, "gap": 0.0}))
    out = tmp_path / "report.csv"
    code, _ = run(capsys, "report", str(a), str(b), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("x0,")
    assert lines[2].startswith("x1,")
    assert ",,," in lines[1] or lines[1].count(",") == 6


def test_csv_uses_crlf(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code, _ = run(capsys, "report", "--out", str(out))
    assert code == 0
    assert out.read_bytes().endswith(b"\r\n")


def _write(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _edited(name, drop=(), **changes):
    data = json.loads((INSTANCE_DIR / name).read_text())
    for key in drop:
        del data[key]
    data.update(changes)
    return data


MALFORMED = {
    "params_missing_file": lambda tmp: ["bundling", "--params", "/no/such.json"],
    "params_invalid_json": lambda tmp: ["bundling", "--params", _write(tmp, "{]")],
    "params_without_kind": lambda tmp: [
        "bundling", "--params",
        _write(tmp, _edited("bundling_default.json", drop=("kind",)))],
    "ragged_u_a": lambda tmp: [
        "solve", "--instance",
        _write(tmp, _edited("example1.json", u_a=[[0.0, 0.0], [0.0]]))],
    "non_numeric_prob": lambda tmp: [
        "solve", "--instance",
        _write(tmp, _edited("example1.json", prob=["half", 0.5]))],
    "competitive_unknown_key": lambda tmp: [
        "competitive", "--params",
        _write(tmp, _edited("competitive_default.json", gamma=1.0))],
    "bundling_missing_values": lambda tmp: [
        "bundling", "--params",
        _write(tmp, _edited("bundling_default.json", drop=("values",)))],
    "report_non_object_rows": lambda tmp: ["report", _write(tmp, [1, 2])],
    "instance_is_directory": lambda tmp: ["solve", "--instance", str(tmp)],
    "params_is_directory": lambda tmp: ["bundling", "--params", str(tmp)],
    "converse_nan_margin": lambda tmp: [
        "converse", "--instance", EX3, "--margin", "nan"],
    "converse_inf_margin": lambda tmp: [
        "converse", "--instance", EX3, "--margin", "inf"],
    "converse_negative_margin": lambda tmp: [
        "converse", "--instance", EX3, "--margin", "-1"],
    "sweep_negative_random": lambda tmp: [
        "sweep", "--random", "-1", "--seed", "0"],
    "support_point_is_object": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", support=[{}, [1, 1]]))],
    "infinite_y0_index": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", y0_index=float("inf")))],
    "infinite_support_index": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", support=[[0, 0], [1, float("inf")]]))],
    # integer fields take JSON integers only, two per support point
    "fractional_support_index": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", support=[[0, 0.7], [1, 1]]))],
    "boolean_support_index": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", support=[[0, 0], [1, True]]))],
    "string_support_index": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", support=[["0", 0], [1, 1]]))],
    "support_point_of_three": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", support=[[0, 0, 5], [1, 1]]))],
    "fractional_y0_index": lambda tmp: [
        "verify", "--instance", _write(tmp, _edited("example2.json", y0_index=0.7))],
    "boolean_y0_index": lambda tmp: [
        "verify", "--instance", _write(tmp, _edited("example2.json", y0_index=False))],
    "fractional_n_goods": lambda tmp: [
        "bundling", "--params",
        _write(tmp, _edited("bundling_default.json", n_goods=2.5))],
    "boolean_n_goods": lambda tmp: [
        "bundling", "--params",
        _write(tmp, _edited("bundling_default.json", n_goods=True))],
    # float fields take JSON numbers only: numpy would read true as 1.0 and
    # "0.5" as 0.5
    "boolean_y_set": lambda tmp: [
        "verify", "--instance", _write(tmp, _edited("example2.json", y_set=[False, True]))],
    "string_y_set": lambda tmp: [
        "verify", "--instance", _write(tmp, _edited("example2.json", y_set=["0", "1"]))],
    "boolean_among_numbers_u_b": lambda tmp: [
        "verify", "--instance",
        _write(tmp, _edited("example2.json", u_b=[[False, 0.0], [-1.0, 0.0]]))],
    "string_prob": lambda tmp: [
        "verify", "--instance", _write(tmp, _edited("example2.json", prob=["0.5", "0.5"]))],
    "string_theta_l": lambda tmp: [
        "competitive", "--params",
        _write(tmp, _edited("competitive_default.json", theta_l="0.5"))],
    "boolean_b_h": lambda tmp: [
        "competitive", "--params",
        _write(tmp, _edited("competitive_default.json", b_h=True))],
    "boolean_quality_grid": lambda tmp: [
        "bundling", "--params",
        _write(tmp, _edited("bundling_default.json",
                            quality_grid=[False, 0.25, 0.5, 0.75, True]))],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_exit_1(case, capsys, tmp_path):
    code = main(MALFORMED[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("case, field", [
    ("fractional_support_index", "support"), ("boolean_support_index", "support"),
    ("string_support_index", "support"), ("support_point_of_three", "support"),
    ("fractional_y0_index", "y0_index"), ("boolean_y0_index", "y0_index"),
    ("fractional_n_goods", "n_goods"), ("boolean_n_goods", "n_goods"),
])
def test_non_integer_json_fields_are_named(case, field, capsys, tmp_path):
    assert main(MALFORMED[case](tmp_path)) == 1
    assert f"malformed field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("case, field", [
    ("boolean_y_set", "y_set"), ("string_y_set", "y_set"),
    ("boolean_among_numbers_u_b", "u_b"), ("string_prob", "prob"),
    ("string_theta_l", "theta_l"), ("boolean_b_h", "b_h"),
    ("boolean_quality_grid", "quality_grid"),
])
def test_non_number_float_fields_are_named(case, field, capsys, tmp_path):
    assert main(MALFORMED[case](tmp_path)) == 1
    assert f"malformed field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("boolean_b_h", "malformed field 'b_h': expected a number, got True"),
    ("string_theta_l", "malformed field 'theta_l': expected a number, got '0.5'"),
    ("boolean_among_numbers_u_b", "malformed field 'u_b': expected a number, got False"),
], ids=["boolean_b_h", "string_theta_l", "boolean_among_numbers_u_b"])
def test_non_number_float_fields_keep_their_message(case, message, capsys, tmp_path):
    assert main(MALFORMED[case](tmp_path)) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("b_h", [1e16, 1e30, 1e50, 1e308])
def test_competitive_names_float_resolution_when_the_activity_rounds_away(
        b_h, capsys, tmp_path):
    # the exact offer uses an activity, but one below float resolution beside
    # a root of the low type's gain (1e50, 1e308), or one whose gain lies
    # below float resolution of the value (1e16, 1e30): still exit 3, now
    # with the cause
    data = _edited("competitive_default.json", b_h=b_h)
    assert main(["competitive", "--params", _write(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    assert "below float resolution" in err
    assert "kappa = b_h V / b_l^2 = " in err
    assert "contradicts the competitive result" not in err


@pytest.mark.parametrize("field, row, col, bad", [
    ("values", 0, 1, float("nan")),
    ("values", 1, 3, float("inf")),
    ("cost_samples", 2, None, float("nan")),
])
def test_non_finite_bundling_params_exit_3(field, row, col, bad, capsys, tmp_path):
    data = json.loads((INSTANCE_DIR / "bundling_default.json").read_text())
    if col is None:
        data[field][row] = bad
    else:
        data[field][row][col] = bad
    code = main(["bundling", "--params", _write(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert f"{field} contains non-finite entries" in err


USAGE_ERRORS = {
    "solve_without_instance": ["solve"],
    "unknown_flag": ["solve", "--instance", EX1, "--bogus"],
    "non_integer_random": ["sweep", "--random", "abc", "--seed", "0"],
    "verify_without_instance": ["verify"],
    "verify_random": ["verify", "--random", "5", "--seed", "11"],
    "no_command": [],
    "unknown_command": ["nosuch"],
    "bad_choice": ["solve", "--instance", EX1, "--mode", "sideways"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_is_exit_1(case, capsys):
    # main returns instead of raising SystemExit, and 1 is not the guard's 2
    code = main(USAGE_ERRORS[case])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: screenkit")
    assert "error: " in captured.err
    assert "Traceback" not in captured.err


# options that only the solving commands take, and verify's old converse
# mode: argv, then the arguments argparse reports as unrecognized
NOT_ACCEPTED = {
    "converse_timing": (["converse", "--instance", EX3, "--timing"], "--timing"),
    "converse_guard": (["converse", "--instance", EX3, "--guard", "1"], "--guard 1"),
    "competitive_timing": (["competitive", "--timing"], "--timing"),
    "bundling_guard": (["bundling", "--guard", "1"], "--guard 1"),
    "verify_converse": (["verify", "--instance", EX3, "--converse"], "--converse"),
    "verify_margin": (["verify", "--instance", EX3, "--margin", "0.1"], "--margin 0.1"),
}


@pytest.mark.parametrize("case", sorted(NOT_ACCEPTED))
def test_unaccepted_option_is_usage_error(case, capsys):
    argv, rejected = NOT_ACCEPTED[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: screenkit")
    # after argparse's usage text, one error line naming the option
    errors = [line for line in captured.err.splitlines() if "error: " in line]
    assert errors == [f"screenkit: error: unrecognized arguments: {rejected}"]
    assert "Traceback" not in captured.err


def test_usage_error_exit_code_in_fresh_interpreter():
    proc = run_fresh("screenkit", "solve")
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"usage: screenkit solve")
    assert b"Traceback" not in proc.stderr


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: screenkit verify")


def test_shared_parser_carries_no_state_between_calls(capsys):
    # each pair differs by one flag; run both orders in one process
    pairs = [
        (["verify", "--instance", EX2, "--strict"], ["verify", "--instance", EX2]),
        (["solve", "--instance", EX2, "--mode", "joint", "--guard", "8"],
         ["solve", "--instance", EX2, "--mode", "joint"]),
        (["solve", "--instance", EX3, "--mode", "joint", "--format", "csv"],
         ["solve", "--instance", EX3, "--mode", "joint"]),
    ]
    fresh = {}
    for argv in (argv for pair in pairs for argv in pair):
        proc = run_fresh("screenkit", *argv)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    for first, second in pairs:
        for argv in (first, second, first, second):
            code = main(argv)
            captured = capsys.readouterr()
            got = (code, captured.out.encode(), captured.err.encode())
            assert got == fresh[tuple(argv)], argv
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# fuzzing the instance and params boundary
# ---------------------------------------------------------------------------

# boundary values first, then small random JSON
JSON_VALUES = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 1e308, -1, 10 ** 30, True,
     None, "", {}, []]) | st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2),
                                                                 inner, max_size=2),
    max_leaves=6)


@st.composite
def mutated_file(draw, name):
    """A file of instances/ with one field dropped, replaced, or changed at one leaf."""
    data = json.loads((INSTANCE_DIR / name).read_text())
    key = draw(st.sampled_from(sorted(data)))
    action = draw(st.sampled_from(("drop", "replace", "leaf")))
    if action == "drop":
        del data[key]
    elif action == "replace" or not isinstance(data[key], list):
        data[key] = draw(JSON_VALUES)
    else:
        node = data[key]
        while True:
            i = draw(st.integers(0, len(node) - 1))
            if not (isinstance(node[i], list) and node[i] and draw(st.booleans())):
                break
            node = node[i]
        node[i] = draw(JSON_VALUES)
    return data


def keeps_the_exit_contract(data, *commands):
    """Each command on `data` exits 0 to 3 with at most one stderr line.

    An escaping exception fails the caller, and so does any warning, which
    a command-line run would print as two more stderr lines. Returns the
    exit codes.
    """
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), data)
        for argv in commands:
            argv = [path if arg is None else arg for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert err.getvalue().count("\n") <= 1, err.getvalue()
            assert not caught, [str(w.message) for w in caught]
            codes.append(code)
    return codes


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=mutated_file("example2.json"))
def test_mutated_instances_keep_the_exit_contract(data):
    keeps_the_exit_contract(data, ["verify", "--instance", None],
                            ["solve", "--mode", "joint", "--instance", None])


BUNDLING = (["bundling", "--params", None],
            ["bundling", "--certify", "--params", None])


@pytest.mark.parametrize("name, changes, code", [
    # n_goods bounds no power before the column count does
    ("bundling_default.json", {"n_goods": 10 ** 12}, 3),
    # convexity is checked without overflowing slopes
    ("bundling_default.json", {"cost_samples": [0.0, 0.1, 0.3, 0.6, 1e308]}, 0),
    ("competitive_default.json", {"b_h": float("inf")}, 3),
    ("competitive_default.json", {"b_l": float("inf")}, 3),
    # a subnormal activity cost drops out of the first-order condition
    ("competitive_default.json", {"b_h": 1e-310}, 0),
    ("competitive_default.json", {"b_h": 2.2250738585072014e-308}, 0),
])
def test_params_boundary_values_keep_the_exit_contract(name, changes, code):
    commands = BUNDLING if name.startswith("bundling") else (
        ["competitive", "--params", None],)
    codes = keeps_the_exit_contract(_edited(name, **changes), *commands)
    assert codes == [code] * len(commands)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=mutated_file("bundling_default.json"))
def test_mutated_bundling_params_keep_the_exit_contract(data):
    keeps_the_exit_contract(data, *BUNDLING)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=mutated_file("competitive_default.json"))
def test_mutated_competitive_params_keep_the_exit_contract(data):
    keeps_the_exit_contract(data, ["competitive", "--params", None])


@functools.lru_cache(maxsize=None)
def report_inputs() -> tuple:
    """Texts of a `sweep` output file and of a list of `solve` result rows."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--random", "3", "--seed", "1",
                         "--out", str(out)]) == 0
            sweep = out.read_text()
            rows = []
            for path in (EX1, EX2, EX3):
                assert main(["solve", "--mode", "joint", "--instance", path,
                             "--out", str(out)]) == 0
                rows.append(json.loads(out.read_text()))
    return sweep, json.dumps(rows, indent=2)


RETYPE = (str, lambda value: [value], lambda value: {"value": value})


@st.composite
def mutated_report(draw):
    """A report input with one row field dropped, replaced or retyped, or
    its JSON text truncated."""
    text = draw(st.sampled_from(report_inputs()))
    action = draw(st.sampled_from(("drop", "replace", "retype", "truncate")))
    if action == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    rows = json.loads(text)
    row = rows[draw(st.integers(0, len(rows) - 1))]
    key = draw(st.sampled_from(sorted(row)))
    if action == "drop":
        del row[key]
    elif action == "replace":
        row[key] = draw(JSON_VALUES)
    else:
        row[key] = draw(st.sampled_from(RETYPE))(row[key])
    return rows


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=mutated_report())
def test_mutated_report_inputs_keep_the_exit_contract(data):
    assert keeps_the_exit_contract(data, ["report", None]) in ([0], [1])


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", EX1, "--mode", "downward1d"],
    ["solve", "--instance", EX2, "--mode", "full1d", "--timing"],
    ["solve", "--instance", EX3, "--mode", "joint"],
    ["solve", "--instance", EX3, "--mode", "joint", "--format", "pretty-table"],
    ["verify", "--instance", EX1],
    ["verify", "--instance", EX2],
    ["converse", "--instance", EX3],
    ["competitive"],
    ["bundling"],
    ["bundling", "--certify"],
    ["sweep", "--random", "3", "--seed", "7"],
    ["sweep", "--random", "3", "--seed", "7", "--mode", "full1d"],
], ids=lambda argv: "-".join(Path(a).stem.lstrip("-") for a in argv))
def test_every_json_payload_renders_as_json_dumps(argv, capsys, monkeypatch):
    from screenkit import cli
    writer = cli.canonical_json
    rendered = []

    def checked(obj):
        text = writer(obj)
        assert text == canonical_json_oracle(obj)
        rendered.append(text)
        return text

    monkeypatch.setattr(cli, "canonical_json", checked)
    code, out = run(capsys, *argv)
    assert code in (0, 3)
    assert rendered
    if "--format" not in argv:
        assert out == rendered[-1]
