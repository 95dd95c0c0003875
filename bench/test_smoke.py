"""Smoke test of the benchmark: each workload at a tiny size, both ways.

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--inputs", "5"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_no_failures(workload, trace):
    details, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert details["failed_frac"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}


def test_same_seed_same_digest():
    first, _ = _tiny("certify_mix", 0, seed=5)
    second, _ = _tiny("certify_mix", 0, seed=5)
    assert first["digest"] == second["digest"]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(RUN.parent.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / RUN.parent.name / RUN.name),
                           "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
