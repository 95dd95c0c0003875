"""Golden command-line outputs: every case's exit code, stdout and stderr.

The inputs are the files in `instances/` and a few seeded generator draws
stored in `tests/golden/inputs/`: dim-2 verify inputs whose levels hold one
or several costly points (one of them not monotone), negatively dependent
converse inputs, a downward input, a 96-level full1d input, and bundling
files with tied grand values, ratio failures and three types. Each case's
expected output is `tests/golden/<case>.out`, with its exit code and stderr
in `tests/golden/manifest.json`, so a change that should keep every output
byte for byte is checked by this one test.

    PYTHONPATH=src python tests/test_golden.py

rewrites the stored inputs and outputs from the current code; run it only
when an output is meant to change, and review the diff.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from screenkit import (GeneratorKnobs, random_negative_instance,
                       random_positive_instance, save_instance)
from screenkit.cli import main
from screenkit.io import instance_to_dict

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"

_DIM2 = (GeneratorKnobs(n_a=4, n_b=3, n_x=2, n_y=2, dim=2),
         GeneratorKnobs(n_a=3, n_b=3, n_x=3, n_y=2, dim=2, strict_costly=False))


def _bundle(values, prob, cost=(0.0, 0.1, 0.3, 0.6, 1.0)):
    n_goods = int(np.log2(len(values[0])))
    return {"kind": "bundling", "n_goods": n_goods, "values": values,
            "prob": prob, "quality_grid": np.linspace(0, 1, len(cost)).tolist(),
            "cost_samples": list(cost)}


def write_inputs() -> None:
    """The seeded generator inputs, written under `tests/golden/inputs/`."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    # levels with one costly point, several, or both (seed 3)
    for name, knobs, stream in (("dim2-a0", _DIM2[0], 0), ("dim2-a2", _DIM2[0], 2),
                                ("dim2-a5", _DIM2[0], 5), ("dim2-a6", _DIM2[0], 6),
                                ("dim2-b3", _DIM2[1], 3)):
        save_instance(random_positive_instance(3, knobs, stream=stream),
                      INPUTS / f"{name}.json")
    # point masses out of order: level 0 takes the top point, level 3 the bottom
    data = instance_to_dict(random_positive_instance(3, _DIM2[0], stream=2))
    (lo_a, lo_b), (hi_a, hi_b) = data["support"][0], data["support"][-1]
    data["support"][0], data["support"][-1] = [lo_a, hi_b], [hi_a, lo_b]
    (INPUTS / "dim2-unordered.json").write_text(json.dumps(data, indent=2) + "\n")
    for stream in range(3):
        save_instance(random_negative_instance(7, stream=stream),
                      INPUTS / f"negative-{stream}.json")
    save_instance(random_positive_instance(
        7, GeneratorKnobs(n_a=8, n_b=2, n_x=3, n_y=2, max_paths=1), stream=0),
        INPUTS / "downward.json")
    # a full1d line of 96 levels and six allocations; its optimum skips
    # allocations 1, 2 and 4, so three thresholds meet
    save_instance(random_positive_instance(
        10, GeneratorKnobs(n_a=96, n_b=2, n_x=6, n_y=2, max_paths=1), stream=0),
        INPUTS / "full1d-large.json")
    bundles = {
        "bundle-tied": _bundle([[0.0, 2.0, 3.0, 6.0], [0.0, 2.5, 3.5, 6.0]],
                               [0.4, 0.6]),
        "bundle-ratio-fail": _bundle([[0.0, 3.0, 2.0, 5.0], [0.0, 2.0, 1.0, 8.0]],
                                     [0.5, 0.5]),
        "bundle-three-types": _bundle(
            [[0.0, 1.0, 1.0, 3.0], [0.0, 1.5, 1.0, 3.0], [0.0, 3.0, 3.0, 6.0]],
            [0.25, 0.25, 0.5]),
        "bundle-three-types-fail": _bundle(
            [[0.0, 1.0, 1.0, 3.0], [0.0, 2.0, 0.5, 3.0], [0.0, 1.0, 1.0, 6.0]],
            [0.25, 0.25, 0.5]),
        "bundle-one-good": _bundle([[0.0, 2.0], [0.0, 3.0]], [0.3, 0.7],
                                   cost=(0.0, 0.2, 0.6)),
    }
    for name, params in bundles.items():
        (INPUTS / f"{name}.json").write_text(json.dumps(params, indent=2) + "\n")


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def cases() -> dict:
    """case name -> argv, paths relative to the repository root."""
    out = {}
    instances = sorted((ROOT / "instances").glob("example*.json"))
    dim2 = sorted(INPUTS.glob("dim2-*.json"))
    negatives = sorted(INPUTS.glob("negative-*.json"))
    for path in instances + dim2:
        out[f"verify-{path.stem}"] = ["verify", "--instance", _rel(path)]
        out[f"joint-{path.stem}"] = ["solve", "--mode", "joint", "--instance",
                                     _rel(path)]
    for path in instances + [INPUTS / "downward.json"]:
        for mode in ("full1d", "downward1d"):
            out[f"{mode}-{path.stem}"] = ["solve", "--mode", mode, "--instance",
                                          _rel(path)]
    out["full1d-large"] = ["solve", "--mode", "full1d", "--instance",
                           _rel(INPUTS / "full1d-large.json")]
    for path in instances + negatives:
        out[f"converse-{path.stem}"] = ["converse", "--instance", _rel(path)]
    bundles = [ROOT / "instances" / "bundling_default.json"]
    bundles += sorted(INPUTS.glob("bundle-*.json"))
    for path in bundles:
        out[f"bundling-{path.stem}"] = ["bundling", "--certify", "--params",
                                        _rel(path)]
    out["bundling-three-types-menu"] = ["bundling", "--params",
                                        _rel(INPUTS / "bundle-three-types.json")]
    out["bundling-preset"] = ["bundling", "--certify"]
    out["competitive-default"] = ["competitive", "--params",
                                  _rel(ROOT / "instances" / "competitive_default.json")]
    out["competitive-preset"] = ["competitive"]
    return out


def run_case(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process command line."""
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_golden() -> None:
    write_inputs()
    manifest = {}
    for name, argv in sorted(cases().items()):
        code, out, err = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out)
        manifest[name] = {"argv": argv, "code": code, "stderr": err}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_golden_cases_match_the_manifest():
    assert {k: v["argv"] for k, v in _manifest().items()} == cases()


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_output_is_byte_identical(name):
    want = _manifest()[name]
    code, out, err = run_case(cases()[name])
    assert (code, err) == (want["code"], want["stderr"])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    sys.exit(write_golden())
