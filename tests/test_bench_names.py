"""The benchmark's view of screenkit still resolves.

`bench/spans.py` wraps functions by (module, name) and `bench/workloads.py`
imports from the package; a consolidation that deletes or renames one of
those names would otherwise show only when the benchmark runs traced. The
bench files are read here, never changed.
"""
import importlib
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


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


def test_tracer_wraps_every_layer_after_importing_the_cli():
    # a fresh interpreter that imports only what the benchmark imports:
    # `Tracer.install` finds each layer's module in sys.modules, so a lazy
    # import would fail here rather than only in a traced benchmark run
    script = textwrap.dedent(f"""
        import sys, types
        from pathlib import Path
        path = Path({str(BENCH / "spans.py")!r})
        spans = types.ModuleType("bench_spans")
        spans.__file__ = str(path)
        sys.modules[spans.__name__] = spans
        exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
        import screenkit.cli
        layers = [(mod, fn) for mod, fn, _ in spans.LAYERS]
        originals = {{layer: getattr(sys.modules["screenkit." + layer[0]], layer[1])
                     for layer in layers}}
        tracer = spans.Tracer()
        tracer.install()
        wrapped = {{id(original) for _, _, original in tracer._patched}}
        missing = [l for l in layers if id(originals[l]) not in wrapped]
        assert not missing, f"layers not wrapped: {{missing}}"
        for module, attr, original in tracer._patched:
            assert getattr(module, attr).__wrapped__ is original
        patched = list(tracer._patched)
        tracer.uninstall()
        for module, attr, original in patched:
            assert getattr(module, attr) is original, (module.__name__, attr)
        for (mod, fn), original in originals.items():
            assert getattr(sys.modules["screenkit." + mod], fn) is original
        print(len(layers), len(patched))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-B", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    n_layers, n_patched = map(int, done.stdout.split())
    assert n_patched >= n_layers
