import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenkit import (StructuralError, canonical_json, example1_instance,
                       example2_instance, example3_instance,
                       instance_from_dict, instance_to_dict, load_instance,
                       load_params, random_positive_instance, save_instance)

from helpers import canonical_json_oracle

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def assert_instances_equal(a, b):
    assert np.array_equal(a.productive.theta_a, b.productive.theta_a)
    assert np.array_equal(a.productive.x_grid, b.productive.x_grid)
    assert np.array_equal(a.productive.u_a, b.productive.u_a)
    assert np.array_equal(a.productive.v_a, b.productive.v_a)
    assert np.array_equal(a.costly.theta_b, b.costly.theta_b)
    assert np.array_equal(a.costly.y_set, b.costly.y_set)
    assert a.costly.y0_index == b.costly.y0_index
    assert np.array_equal(a.costly.u_b, b.costly.u_b)
    assert np.array_equal(a.costly.v_b, b.costly.v_b)
    assert tuple(map(tuple, a.dist.support)) == tuple(map(tuple, b.dist.support))
    assert np.array_equal(a.dist.prob, b.dist.prob)


@pytest.mark.parametrize("builder", [example1_instance, example2_instance,
                                     example3_instance])
def test_dict_round_trip_is_exact(builder):
    inst = builder()
    assert_instances_equal(inst, instance_from_dict(instance_to_dict(inst)))


@pytest.mark.parametrize("seed", range(5))
def test_file_round_trip_on_generated_instances(seed, tmp_path):
    inst = random_positive_instance(seed)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert_instances_equal(inst, load_instance(path))


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_bundled_instances_round_trip(name, tmp_path):
    src = INSTANCE_DIR / f"{name}.json"
    inst = load_instance(src)
    out = tmp_path / "copy.json"
    save_instance(inst, out)
    assert_instances_equal(inst, load_instance(out))
    assert json.loads(src.read_text()) == json.loads(out.read_text())


def test_bundled_files_match_presets():
    assert_instances_equal(load_instance(INSTANCE_DIR / "example1.json"),
                           example1_instance())
    assert_instances_equal(load_instance(INSTANCE_DIR / "example2.json"),
                           example2_instance())
    assert_instances_equal(load_instance(INSTANCE_DIR / "example3.json"),
                           example3_instance())


def test_missing_fields_are_reported():
    data = instance_to_dict(example1_instance())
    del data["u_a"], data["prob"]
    with pytest.raises(StructuralError, match="u_a"):
        instance_from_dict(data)


def test_numpy_integers_stay_valid_in_the_constructors():
    # only the JSON boundary insists on JSON integers
    from screenkit import CostlySpec, JointDistribution
    inst = example2_instance()
    cost = inst.costly
    spec = CostlySpec(cost.theta_b, cost.y_set, np.int64(cost.y0_index),
                      cost.u_b, cost.v_b)
    dist = JointDistribution(tuple((np.int64(a), np.intp(b))
                                   for a, b in inst.dist.support), inst.dist.prob)
    assert spec.y0_index == cost.y0_index
    assert dist.support == inst.dist.support


@pytest.mark.parametrize("field, value", [
    ("y0_index", 0.0), ("y0_index", True), ("y0_index", "0"),
    ("support", [[0, 0], [1, 1.0]]), ("support", [[0, 0], [1]]),
    ("support", [[0, 0], (1, 1)]), ("support", [[0, 0], [1, 1, 0]]),
])
def test_json_integer_fields_take_json_integers_only(field, value):
    data = instance_to_dict(example2_instance())
    data[field] = value
    with pytest.raises(StructuralError, match=f"malformed field {field!r}"):
        instance_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("y_set", [False, True]), ("y_set", [0.0, True]), ("y_set", ["0", "1"]),
    ("y_set", [0.0, None]), ("y_set", [0.0, 10 ** 30, True]),
    ("u_b", [[0.0, 0.0], [-1.0, False]]), ("prob", ["0.5", "0.5"]),
    ("prob", [0.5, {"p": 0.5}]),
])
def test_json_float_fields_take_json_numbers_only(field, value):
    data = instance_to_dict(example2_instance())
    data[field] = value
    with pytest.raises(StructuralError, match=f"malformed field {field!r}"):
        instance_from_dict(data)


def test_json_float_fields_read_every_json_number():
    # integers, negative zero and integers beyond 64 bits read as floats
    data = instance_to_dict(example2_instance())
    data["y_set"] = [-0.0, 10 ** 30]
    data["u_b"] = [[0, 0], [-1, 0.0]]
    inst = instance_from_dict(data)
    assert inst.costly.y_set.tolist() == [-0.0, 1e30]
    assert inst.costly.u_b.dtype == float and not inst.costly.u_b.flags.writeable
    assert inst.costly.u_b.tolist() == [[0.0, 0.0], [-1.0, 0.0]]


def test_bad_json_is_a_structural_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(StructuralError):
        load_instance(path)


def test_load_params_extracts_kind():
    kind, params = load_params(INSTANCE_DIR / "competitive_default.json")
    assert kind == "competitive"
    assert params["theta_l"] == 0.5
    assert "kind" not in params


def test_params_without_kind_rejected(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{\"theta_l\": 0.5}")
    with pytest.raises(StructuralError):
        load_params(path)


# ---------------------------------------------------------------------------
# the canonical writer against json.dumps
# ---------------------------------------------------------------------------


JSON_SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
                     1e22, 2 ** 64, -2 ** 70, True, False, None, "", "\x00\x1f\"\\",
                     "é \U0001f600"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64),
    st.integers(),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(inner, max_size=6).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_is_json_dumps(obj):
    assert canonical_json(obj) == canonical_json_oracle(obj)


@pytest.mark.parametrize("obj", [[], {}, (), [[]], [{}], {"a": []}, [[], {}, ()],
                                 [1, [2, [3, [4.5, "x"]]], {"k": (None, True)}]])
def test_canonical_json_empty_and_nested_containers(obj):
    assert canonical_json(obj) == canonical_json_oracle(obj)


def test_canonical_json_rejects_what_json_dumps_rejects():
    for bad in (np.int64(1), [np.int64(1)], {"a": object()}, [1, {2}]):
        with pytest.raises(TypeError):
            canonical_json_oracle(bad)
        with pytest.raises(TypeError):
            canonical_json(bad)


@pytest.mark.parametrize("path", sorted(INSTANCE_DIR.glob("*.json")), ids=lambda p: p.name)
def test_bundled_files_are_written_back_byte_for_byte(path, tmp_path):
    text = path.read_text()
    data = json.loads(text)
    assert canonical_json(data) == text
    if "kind" not in data:
        out = tmp_path / "copy.json"
        save_instance(load_instance(path), out)
        assert out.read_text() == text
