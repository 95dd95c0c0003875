"""Reading and writing instances and parameter files.

Instances serialize to JSON with tables in row-major nested lists. The
productive tables u_a and v_a are indexed [allocation][type level]; the
costly tables u_b and v_b are indexed [instrument][type row]. Loading a
saved instance reproduces it exactly: values pass through float() untouched.
"""
from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Union

from .errors import StructuralError
from .model import (CostlySpec, JointDistribution, ProductiveSpec,
                    ScreeningInstance, _as_index, float_table)

Pathish = Union[str, Path]


def instance_to_dict(inst: ScreeningInstance) -> dict:
    prod, cost, dist = inst.productive, inst.costly, inst.dist
    return {
        "theta_a": prod.theta_a.tolist(),
        "x_grid": prod.x_grid.tolist(),
        "u_a": prod.u_a.tolist(),
        "v_a": prod.v_a.tolist(),
        "theta_b": cost.theta_b.tolist(),
        "y_set": cost.y_set.tolist(),
        "y0_index": int(cost.y0_index),
        "u_b": cost.u_b.tolist(),
        "v_b": cost.v_b.tolist(),
        "support": [list(p) for p in dist.support],
        "prob": list(dist.prob),
    }


_REQUIRED = ("theta_a", "x_grid", "u_a", "v_a", "theta_b", "y_set",
             "y0_index", "u_b", "v_b", "support", "prob")


def read_field(data: dict, key: str, convert):
    """`convert(data[key])`; a value it rejects raises StructuralError
    that names the field: "malformed field '<key>': <reason>".

    Rejection is a StructuralError (such as `model._as_index` refusing a
    float, bool or string index, or `model._as_real` a bool, string or
    null number), any TypeError, ValueError, IndexError or KeyError (a
    mis-shaped value) or OverflowError (an infinite number where an integer
    belongs).
    """
    if key not in data:
        raise StructuralError(f"missing field {key!r}")
    try:
        return convert(data[key])
    except (StructuralError, TypeError, ValueError, IndexError, KeyError,
            OverflowError) as exc:
        raise StructuralError(f"malformed field {key!r}: {exc}") from exc


def _support_points(points) -> list:
    """Support points as JSON gives them, lists; `JointDistribution` reads
    each as a pair of integer indices."""
    for point in points:
        if type(point) is not list:
            raise ValueError(f"support point {point!r} is not a pair")
    return points


def instance_from_dict(data: dict) -> ScreeningInstance:
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise StructuralError(f"instance is missing fields: {missing}")
    prod = ProductiveSpec(*(read_field(data, k, float_table)
                            for k in ("theta_a", "x_grid", "u_a", "v_a")))
    cost = CostlySpec(
        read_field(data, "theta_b", float_table),
        read_field(data, "y_set", float_table),
        read_field(data, "y0_index", lambda v: _as_index(v, "y0_index")),
        read_field(data, "u_b", float_table),
        read_field(data, "v_b", float_table))
    dist = JointDistribution(
        read_field(data, "support", _support_points),
        read_field(data, "prob", float_table))
    return ScreeningInstance(prod, cost, dist)


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, newline end.

    The text is `json.dumps(obj, sort_keys=True, indent=2) + "\\n"` byte for
    byte, for dict keys that are all str. `indent` would send json.dumps
    through its pure-Python encoder, so dicts render here and every flat
    list of scalars goes through json's C encoder in one call.
    """
    return _render(obj, 0) + "\n"


#: Lists holding only these exact types go to the C encoder in one call;
#: others, subclasses such as np.float64 included, render item by item.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """json's C encoder, its item separator breaking the line at the indent
    of the items of a list nested `depth` deep."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _render(obj, depth: int) -> str:
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "\n" + "  " * (depth + 1)
        items = [encode_basestring_ascii(k) + ": " + _render(obj[k], depth + 1)
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        if _SCALAR_TYPES.issuperset(map(type, obj)):
            body = _flat_encoder(depth)(obj)[1:-1]
        else:
            body = ("," + inner).join([_render(v, depth + 1) for v in obj])
        return "[" + inner + body + "\n" + "  " * depth + "]"
    return _scalar(obj)


def _scalar(value) -> str:
    """One JSON scalar as json.dumps writes it; TypeError for anything else."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_instance(inst: ScreeningInstance, path: Pathish) -> None:
    Path(path).write_text(canonical_json(instance_to_dict(inst)))


def load_instance(path: Pathish) -> ScreeningInstance:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise StructuralError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise StructuralError(f"instance file must hold an object: {path}")
    return instance_from_dict(data)


def load_params(path: Pathish) -> tuple:
    """Parameter file: an object with a 'kind' discriminator.

    Returns (kind, params) where params is the object minus the
    discriminator. Known kinds are handled by the callers: competitive
    markets and bundling problems.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise StructuralError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise StructuralError(f"parameter file needs a 'kind' field: {path}")
    params = dict(data)
    kind = params.pop("kind")
    return kind, params
