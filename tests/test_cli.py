import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import screenkit
from screenkit.cli import build_parser, main

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


def test_guard_exceeded_is_exit_2(capsys):
    code, _ = run(capsys, "solve", "--instance", EX2, "--mode", "joint",
                  "--guard", "8")
    assert code == 2


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_exit_1(case, capsys, tmp_path):
    code = main(MALFORMED[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1


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
