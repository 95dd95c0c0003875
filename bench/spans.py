"""Per-layer spans recorded around calls into screenkit's public functions.

The benchmark wraps each function listed in LAYERS in every screenkit module
that holds a reference to it, so calls made through ``from .x import f``
names are caught as well as calls through the defining module. A span
records call count, total time and self time (total minus the time covered
by nested spans). Some layers also record counts read from their arguments
or results. The wrappers are installed only for the traced phase and
removed before outputs are checked.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


def _dominance_counts(args, result):
    return {"flow_calls": 1 if args[0].dim > 1 else 0}


def _graph_transfer_counts(args, result):
    return {"types": args[0].n}


def _downward_counts(args, result):
    return {"allocs": result.certificate["enumerated"]}


def _joint_counts(args, result):
    cert = result.certificate
    return {"enumerated": cert["enumerated"], "evaluated": cert["evaluated"]}


def _bundling_counts(args, result):
    return {"options": result.options}


#: (module, function, counter hook or None); the layer name is
#: "<module>.<function>" without the package prefix.
LAYERS = (
    ("cli", "main", None),
    ("io", "load_instance", None),
    ("io", "load_params", None),
    ("io", "canonical_json", None),
    ("model", "validate_instance", None),
    ("model", "menu_best_response", None),
    ("stochastics", "check_stochastic_monotonicity", None),
    ("stochastics", "check_dominance", _dominance_counts),
    ("transfers", "graph_optimal_transfers", _graph_transfer_counts),
    ("transfers", "closed_form_downward_transfers", None),
    ("solver", "productive_marginal", None),
    ("solver", "solve_full_1d", None),
    ("solver", "solve_downward_1d", _downward_counts),
    ("solver", "solve_joint", _joint_counts),
    ("theorems", "verify_theorem1", None),
    ("theorems", "converse_construct", None),
    ("applications", "bundling_reduce", None),
    ("applications", "solve_bundling", None),
    ("applications", "certify_bundling", _bundling_counts),
)


@dataclass
class _Layer:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder; `install` patches screenkit, `uninstall` restores it."""

    def __init__(self):
        self.layers = {f"{mod}.{fn}": _Layer() for mod, fn, _ in LAYERS}
        self._child_time = []   # stack: time covered by nested spans
        self._patched = []      # (module, attribute, original)

    def _wrap(self, name, func, hook):
        layer = self.layers[name]
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                nested = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                layer.calls += 1
                layer.total += elapsed
                layer.self_time += elapsed - nested
            if hook is not None:
                for key, value in hook(args, result).items():
                    layer.counts[key] = layer.counts.get(key, 0) + value
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "screenkit" or n.startswith("screenkit."))]
        for mod, fn, hook in LAYERS:
            original = getattr(sys.modules[f"screenkit.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, ops: int, speed: float) -> dict:
        """Per-op layer metrics: calls, total ms and self ms, plus counters.

        Times are multiplied by `speed`, the host-speed calibration factor.
        """
        out = {}
        per_op = 1.0 / ops
        ms = 1e3 * speed * per_op
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = (layer.calls * per_op, "1/op")
            out[f"{name}.ms"] = (layer.total * ms, "ms/op")
            out[f"{name}.self_ms"] = (layer.self_time * ms, "ms/op")
        layers = self.layers
        out["stochastics.check_dominance.flow_calls"] = (
            layers["stochastics.check_dominance"].counts.get("flow_calls", 0) * per_op, "1/op")
        out["transfers.graph_optimal_transfers.types"] = (
            layers["transfers.graph_optimal_transfers"].counts.get("types", 0) * per_op, "1/op")
        down = layers["solver.solve_downward_1d"]
        allocs = down.counts.get("allocs", 0)
        out["solver.solve_downward_1d.us_per_alloc"] = (
            1e6 * speed * down.total / allocs if allocs else 0.0, "us")
        joint = layers["solver.solve_joint"]
        enumerated = joint.counts.get("enumerated", 0)
        evaluated = joint.counts.get("evaluated", 0)
        out["solver.solve_joint.enumerated"] = (enumerated * per_op, "1/op")
        out["solver.solve_joint.evaluated"] = (evaluated * per_op, "1/op")
        out["solver.solve_joint.evaluated_frac"] = (
            evaluated / enumerated if enumerated else 0.0, "ratio")
        out["solver.solve_joint.assignments_per_s"] = (
            enumerated / (speed * joint.total) if joint.total else 0.0, "1/s")
        out["applications.certify_bundling.options"] = (
            layers["applications.certify_bundling"].counts.get("options", 0) * per_op, "1/op")
        return out
