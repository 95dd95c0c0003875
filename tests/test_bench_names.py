"""The benchmark's view of screenkit still resolves.

`bench/spans.py` wraps functions by (module, name) and `bench/workloads.py`
imports from the package; a consolidation that deletes or renames one of
those names would otherwise show only when the benchmark runs traced. The
bench files are read here, never changed.
"""
import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """Execute bench/<name>.py as a module, writing no bytecode next to it."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("module, function", [
    (mod, fn) for mod, fn, _ in _load("spans").LAYERS])
def test_every_traced_layer_resolves(module, function):
    target = importlib.import_module(f"screenkit.{module}")
    assert callable(getattr(target, function, None)), f"{module}.{function}"


def test_workloads_import_cleanly():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"verify_mix", "joint_heavy",
                                        "full1d_large", "certify_mix"}
