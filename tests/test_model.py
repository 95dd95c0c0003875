import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenkit import (FEAS_TOL, OUTSIDE, BundleInstance, CompetitiveParams,
                       CostlySpec, Coupling, DiscreteDistribution,
                       GeneratorKnobs, JointDistribution, Mechanism, Menu,
                       MultiplicativeInstance,
                       MultiplicativeMechanism, OneDimInstance, PathMixture,
                       ProductiveSpec, ScreeningInstance, StructuralError,
                       TypePath, check_ic, check_ir,
                       converse_construct, example1_instance,
                       example2_instance, example2_menu, example3_instance,
                       example3_menu, load_instance,
                       mechanism_value, menu_best_response,
                       productive_marginal, random_positive_instance,
                       save_instance, validate_instance)
from screenkit import model

from helpers import (baseline_loop, costly_monotone_loop, costly_sign_loop,
                     increasing_differences_loop, loop_principal_payoff,
                     productive_monotone_loop, single_crossing_loop)


def test_example2_payoff_arithmetic():
    inst = example2_instance()
    # options (x=0, y=1, t=-1) and (x=1, y=0, t=0); type (theta_a=0,
    # theta_b=-1) is support point 0, type (theta_a=1, theta_b=0) point 1
    agent, principal = inst.payoffs([0, 1], [1, 0], [-1.0, 0.0])
    assert agent[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert principal[0] == pytest.approx([-1.0, 1.25])
    # point 1 taking (x=0, y=1, t=-1) keeps the agent at 1
    assert agent[1, 0] == pytest.approx(1.0)
    # without transfers the tables are the gross utilities
    gross = inst.payoffs([0, 1], [1, 0])
    assert np.array_equal(gross[0], agent + [-1.0, 0.0])
    assert np.array_equal(gross[1], principal - [-1.0, 0.0])


PAYOFF_INDEX_CASES = {
    "x_negative": ([-1], [0], "option 0: x index -1 out of range for x_grid of size 2"),
    "x_beyond": ([0, 5], [0, 0], "option 1: x index 5 out of range for x_grid of size 2"),
    "y_negative": ([0], [-1], "option 0: y index -1 out of range for y_set of size 2"),
    "y_beyond": ([0], [7], "option 0: y index 7 out of range for y_set of size 2"),
    # read through np.asarray(..., dtype=int), the first three priced an
    # index they do not hold, one y broadcast over two options, and a
    # nesting ended in a bare TypeError
    "x_float": ([0.7], [0], "x must be an integer index, got 0.7"),
    "x_string": (["1"], [0], "x must be an integer index, got '1'"),
    "x_bool": ([True], [0], "x must be an integer index, got True"),
    "y_bool_in_list": ([0, 1], [0, True], "y must be an integer index, got True"),
    "y_broadcast": ([0, 1], [1], "y must hold 2 indices, one per option, got 1"),
    "nested": ([[0, 1]], [[1, 0]], "x must be an integer index, got [0, 1]"),
    "float_array": (np.array([0.0]), [0],
                    "x must be a 1-D integer array, got float64 of shape (1,)"),
}


@pytest.mark.parametrize("case", sorted(PAYOFF_INDEX_CASES))
def test_payoffs_refuse_an_index_off_the_grid(case):
    x, y, message = PAYOFF_INDEX_CASES[case]
    inst = example2_instance()
    with pytest.raises(StructuralError, match=re.escape(message)):
        inst.payoffs(x, y)
    with pytest.raises(StructuralError, match=re.escape(message)):
        inst.payoffs(x, y, [0.0] * len(x))


@pytest.mark.parametrize("t, message", [
    ([0.5], "t must hold 2 transfers, one per option, got shape (1,)"),
    (0.5, "t must hold 2 transfers, one per option, got shape ()"),
    ([0.5, True], "t: expected a number, got True"),
])
def test_payoffs_read_one_transfer_per_option(t, message):
    with pytest.raises(StructuralError, match=re.escape(message)):
        example2_instance().payoffs([0, 1], [0, 0], t)


@pytest.mark.parametrize("ix", [-1, 5])
def test_menu_best_response_refuses_an_allocation_off_the_grid(ix):
    # -1 read the last allocation and 5 ended in a bare IndexError
    with pytest.raises(StructuralError, match=f"option 0: x index {ix} out of range"):
        menu_best_response(example2_instance(), Menu(((ix, 0, 0.5),)))


def test_incentive_checks_refuse_a_mechanism_off_the_grid():
    inst = example2_instance()
    mech = Mechanism((-1, 5), (0, 0), (0.0, 0.0))
    for check in (check_ic, check_ir):
        with pytest.raises(StructuralError, match="option 0: x index -1 out of range"):
            check(inst, mech)


@pytest.mark.parametrize("iy", [-1, 7])
def test_mechanism_value_refuses_an_instrument_off_the_grid(iy):
    # -1 silently priced instrument 1
    mech = Mechanism((1, 0), (0, iy), (0.0, -1.0))
    with pytest.raises(StructuralError, match=f"option 1: y index {iy} out of range"):
        mechanism_value(example2_instance(), mech)


def test_example2_menu_value():
    inst = example2_instance()
    assignment, value = menu_best_response(inst, example2_menu())
    assert value == pytest.approx(0.125, abs=1e-12)
    # the low type is indifferent across everything; the principal's pick wins
    assert assignment == [0, 1]


def test_example3_menu_value_exact():
    inst = example3_instance()
    assignment, value = menu_best_response(inst, example3_menu())
    assert value == 1.5
    assert assignment == [0, 1]


def test_menu_ties_resolve_for_the_principal():
    # one type, two options with identical agent payoff, different profit
    prod = ProductiveSpec(np.array([1.0]), np.array([0.0, 1.0]),
                          np.array([[0.0], [1.0]]), np.zeros((2, 1)))
    cost = CostlySpec(np.array([[0.0]]), np.array([0.0]), 0,
                      np.array([[0.0]]), np.array([[0.0]]))
    inst = ScreeningInstance(prod, cost,
                             JointDistribution(((0, 0),), (1.0,)))
    menu = Menu(((0, 0, -0.5), (1, 0, 0.5)))  # both leave the agent at 0.5
    assignment, value = menu_best_response(inst, menu)
    assert assignment == [1] and value == pytest.approx(0.5)


def test_menu_outside_loses_ties():
    prod = ProductiveSpec(np.array([1.0]), np.array([0.0, 1.0]),
                          np.array([[0.0], [1.0]]), np.zeros((2, 1)))
    cost = CostlySpec(np.array([[0.0]]), np.array([0.0]), 0,
                      np.array([[0.0]]), np.array([[0.0]]))
    inst = ScreeningInstance(prod, cost,
                             JointDistribution(((0, 0),), (1.0,)))
    # taking (x=1, t=1) leaves the agent exactly at the outside level
    assignment, value = menu_best_response(inst, Menu(((1, 0, 1.0),)))
    assert assignment == [0] and value == pytest.approx(1.0)


def test_example1_ic_directions():
    inst = example1_instance()
    mech = Mechanism((1, 0), (0, 0), (0.0, -1.0))
    assert check_ic(inst, mech, "downward") == []
    violations = check_ic(inst, mech, "all")
    assert len(violations) == 1
    v = violations[0]
    assert (v.deviator, v.target) == (0, 1)
    assert v.gain == pytest.approx(1.0, abs=1e-12)
    assert check_ir(inst, mech) == []


def test_check_ir_reports_negative_payoffs():
    inst = example1_instance()
    mech = Mechanism((0, 0), (0, 0), (0.5, 0.0))
    bad = check_ir(inst, mech)
    assert [b.point for b in bad] == [0]
    assert bad[0].payoff == pytest.approx(-0.5)


def test_example1_kappa3_single_crossing_witness():
    report = validate_instance(example1_instance(kappa=3.0))
    assert not report.passed("surplus_single_crossing")
    assert report.witness("surplus_single_crossing") is not None
    # the remaining productive assumptions hold
    assert report.passed("productive_monotone")
    assert report.passed("productive_increasing_differences")


def test_example1_kappa1_passes_all_checks():
    report = validate_instance(example1_instance(kappa=1.0))
    assert report.assumptions_hold


def test_example2_flags_only_single_crossing():
    report = validate_instance(example2_instance())
    assert report.failures == ["surplus_single_crossing"]


@pytest.mark.parametrize("seed", range(6))
def test_generated_instances_validate(seed):
    report = validate_instance(random_positive_instance(seed))
    assert report.assumptions_hold, report.failures


def test_structural_checks_reject_bad_shapes():
    with pytest.raises(StructuralError):
        ProductiveSpec(np.array([1.0, 1.0]), np.array([0.0, 1.0]),
                       np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(StructuralError):
        ProductiveSpec(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                       np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(StructuralError):
        CostlySpec(np.array([[0.0], [0.0]]), np.array([0.0, 1.0]), 0,
                   np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(StructuralError):
        JointDistribution(((0, 0), (0, 0)), (0.5, 0.5))
    with pytest.raises(StructuralError):
        JointDistribution(((0, 0),), (0.7,))


def test_mechanism_value_matches_pointwise_sum():
    inst = example2_instance()
    mech = Mechanism((1, 0), (0, 1), (0.0, -1.0))
    by_hand = sum(pr * loop_principal_payoff(inst, p, mech.option(p))
                  for p, pr in enumerate(inst.dist.prob))
    assert mechanism_value(inst, mech) == pytest.approx(by_hand, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_menu_assignment_is_agent_optimal(seed, data):
    inst = random_positive_instance(seed)
    n_x, n_y = inst.productive.n_alloc, inst.costly.n_alloc
    k = data.draw(st.integers(1, 3))
    options = []
    for i in range(k):
        options.append((data.draw(st.integers(0, n_x - 1)),
                        data.draw(st.integers(0, n_y - 1)),
                        data.draw(st.floats(-1.0, 1.0, allow_nan=False))))
    if len(set(options)) < len(options):
        return
    menu = Menu(tuple(options))
    assignment, _ = menu_best_response(inst, menu)
    agent = inst.payoffs(*zip(*menu.options))[0]
    for p, choice in enumerate(assignment):
        chosen = 0.0 if choice == OUTSIDE else agent[p, choice]
        assert chosen >= -FEAS_TOL
        assert (chosen >= agent[p] - FEAS_TOL).all()


# ---------------------------------------------------------------------------
# caller arrays
# ---------------------------------------------------------------------------

LAW = DiscreteDistribution(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))

# class: (builder from a dict of caller arrays, the arrays as nested lists)
CALLER_ARRAYS = {
    "ProductiveSpec": (lambda a: ProductiveSpec(**a), {
        "theta_a": [0.0, 1.0], "x_grid": [0.0, 1.0],
        "u_a": [[0.0, 0.0], [0.5, 1.0]], "v_a": [[0.0, 0.0], [-0.2, -0.2]]}),
    "CostlySpec": (lambda a: CostlySpec(a["theta_b"], a["y_set"], 0,
                                        a["u_b"], a["v_b"]), {
        "theta_b": [[-1.0], [0.0]], "y_set": [0.0, 1.0],
        "u_b": [[0.0, 0.0], [-1.0, -0.5]], "v_b": [[0.0, 0.0], [0.2, 0.1]]}),
    "JointDistribution": (lambda a: JointDistribution(((0, 0), (1, 1)), a["prob"]),
                          {"prob": [0.25, 0.75]}),
    "OneDimInstance": (lambda a: OneDimInstance(**a), {
        "theta": [1.0, 2.0], "mu": [0.5, 0.5], "x_grid": [0.0, 1.0],
        "u": [[0.0, 0.0], [1.0, 2.0]], "v": [[0.0, 0.0], [-0.5, -0.5]]}),
    "DiscreteDistribution": (lambda a: DiscreteDistribution(**a), {
        "points": [[0.0, 0.0], [1.0, 1.0]], "prob": [0.5, 0.5]}),
    "Coupling": (lambda a: Coupling(LAW, LAW, a["mass"]),
                 {"mass": [[0.5, 0.0], [0.0, 0.5]]}),
    "PathMixture": (lambda a: PathMixture((0, 1), a["a_probs"], ()),
                    {"a_probs": [0.5, 0.5]}),
    "MultiplicativeInstance": (lambda a: MultiplicativeInstance(
        a["theta_a"], a["theta_b"], a["mu"], lambda x: x, a["c"], 0), {
        "theta_a": [1.0, 2.0], "theta_b": [[-0.5], [-0.25]], "mu": [0.5, 0.5],
        "c": [[0.0], [1.0]]}),
    "BundleInstance": (lambda a: BundleInstance(1, **a), {
        "values": [[0.0, 2.0], [0.0, 3.0]], "prob": [0.5, 0.5],
        "quality_grid": [0.0, 0.5, 1.0], "cost_samples": [0.0, 0.1, 0.4]}),
}


@pytest.mark.parametrize("name", sorted(CALLER_ARRAYS))
def test_construction_leaves_caller_arrays_writable_and_apart(name):
    build, fields = CALLER_ARRAYS[name]
    arrays = {key: np.array(value) for key, value in fields.items()}
    obj = build(arrays)
    for key, arr in arrays.items():
        kept = np.array(getattr(obj, key))
        assert arr.flags.writeable, key
        arr += 1.0
        assert np.array_equal(getattr(obj, key), kept), key
        assert not getattr(obj, key).flags.writeable, key


def test_float_table_shares_read_only_arrays_and_freezes_fresh_ones():
    ro = np.array([1.0, 2.0])
    ro.setflags(write=False)
    assert model.float_table(ro) is ro
    fresh = model.float_table([1, 2])
    assert fresh.dtype == float and not fresh.flags.writeable
    # a writable view aliases its caller's base, so it is copied
    base = np.zeros((2, 2))
    assert not np.shares_memory(model.float_table(base[0]), base)


# ---------------------------------------------------------------------------
# number fields: numbers only
# ---------------------------------------------------------------------------


def _first_entry_set(table, value):
    """Nested lists `table` with its first scalar entry set to `value`."""
    if not isinstance(table, list):
        return value
    return [_first_entry_set(table[0], value)] + table[1:]


def _table_cases():
    """(case, field, builder of the container from the field's value, the
    field's valid nested lists), one per CALLER_ARRAYS field."""
    for name, (build, arrays) in sorted(CALLER_ARRAYS.items()):
        for key, table in sorted(arrays.items()):
            yield (f"{name}.{key}", key,
                   lambda v, build=build, arrays=arrays, key=key:
                   build({**arrays, key: v}), table)


TABLE_FIELDS = {case: rest for case, *rest in _table_cases()}

#: Each constructor with one scalar number field set to `v`, every other
#: field valid, and the name its refusal leads with.
SCALAR_FIELDS = {
    "Mechanism.t": ("t", lambda v: Mechanism((0, 0), (0, 0), (0.0, v))),
    "Menu.option_t": ("option t", lambda v: Menu(((0, 0, v),))),
    "TypePath.weight": ("weight", lambda v: TypePath(v, (0,))),
    "MultiplicativeMechanism.x": ("x", lambda v: MultiplicativeMechanism(
        (0.4, v), (0, 0), (0.1, 0.3))),
    "MultiplicativeMechanism.t": ("t", lambda v: MultiplicativeMechanism(
        (0.4, 0.8), (0, 0), (0.1, v))),
    **{f"CompetitiveParams.{name}": (
        name, lambda v, name=name: CompetitiveParams(**{name: v}))
       for name in ("theta_l", "theta_h", "a_l", "a_h", "b_l", "b_h")},
}


@pytest.mark.parametrize("bad", ["1", True, None], ids=["str", "bool", "none"])
@pytest.mark.parametrize("case", sorted(TABLE_FIELDS) + sorted(SCALAR_FIELDS))
def test_number_fields_refuse_what_is_not_a_number(case, bad):
    if case in TABLE_FIELDS:
        name, build, table = TABLE_FIELDS[case]
        bad = _first_entry_set(table, bad)
    else:
        name, build = SCALAR_FIELDS[case]
    with pytest.raises(StructuralError, match=rf"^{re.escape(name)}\b"):
        build(bad)


@pytest.mark.parametrize("case", sorted(TABLE_FIELDS))
def test_table_fields_refuse_a_ragged_nesting(case):
    name, build, table = TABLE_FIELDS[case]
    with pytest.raises(StructuralError, match=rf"^{re.escape(name)}: "):
        build(table[:-1] + [[table[-1]]])


def test_loaded_instances_share_their_tables_downstream(tmp_path):
    # the load path hands read-only tables to the containers, and the
    # productive marginal shares the grid and the level masses
    save_instance(example2_instance(), tmp_path / "inst.json")
    inst = load_instance(tmp_path / "inst.json")
    line = productive_marginal(inst)
    assert line.x_grid is inst.productive.x_grid
    assert line.mu is inst.level_couplings.a_probs


# ---------------------------------------------------------------------------
# the six table checks against their scalar loops
# ---------------------------------------------------------------------------


def _tables(rng, shape, valid):
    """A table rising in both axes with increasing differences, or, unless
    `valid`, small multiples of FEAS_TOL around it or alone: ties and exact
    tolerance edges everywhere."""
    rows, cols = shape
    table = np.outer(np.arange(rows), np.arange(cols)) + np.arange(cols) * 0.5
    if not valid:
        table = table * rng.integers(0, 2) + rng.integers(-3, 4, shape) * FEAS_TOL
    return table


def _plant(rng, table, scale):
    """One entry of `table` moved by `scale`, or the table unchanged."""
    table = table.copy()
    if rng.random() < 0.8:
        table[tuple(rng.integers(0, n) for n in table.shape)] += scale
    return table


def _productive(rng, valid):
    n_x, n_a = rng.integers(1, 6), rng.integers(1, 6)
    u = _plant(rng, _tables(rng, (n_x, n_a), valid), rng.choice([-2.0, 2.0, -2e-9]))
    v = _plant(rng, -_tables(rng, (n_x, n_a), valid) * rng.random(),
               rng.choice([-3.0, 3.0]))
    return ProductiveSpec(np.arange(n_a, dtype=float), np.arange(n_x, dtype=float), u, v)


def _costly(rng, valid):
    n_b, n_y, dim = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 4)
    # distinct points on a small lattice: many ordered pairs and ties per axis
    lattice = np.indices((3,) * dim).reshape(dim, -1).T
    theta = lattice[rng.choice(len(lattice), min(n_b, len(lattice)), replace=False)]
    n_b = len(theta)
    u = -0.25 * np.maximum(np.arange(n_y)[:, None] - theta.sum(axis=1), 0.0)
    u = _plant(rng, u + (0 if valid else rng.integers(-2, 3, u.shape) * FEAS_TOL),
               rng.choice([-1.0, 1.0, 2e-9]))
    v = _plant(rng, -np.abs(u) - 0.5, rng.choice([1.0, 5.0]))
    u[0], v[0] = 0.0, 0.0
    if rng.random() < 0.3:
        (u if rng.random() < 0.5 else v)[0, rng.integers(0, n_b)] = rng.choice([-0.0, 1e-300, 1.0])
    return CostlySpec(theta.astype(float), np.arange(n_y, dtype=float), 0, u, v)


PRODUCTIVE_CHECKS = [(model._check_productive_monotone, productive_monotone_loop),
                     (model._check_increasing_differences, increasing_differences_loop),
                     (model._check_single_crossing, single_crossing_loop)]
COSTLY_CHECKS = [(model._check_costly_monotone, costly_monotone_loop),
                 (model._check_costly_sign, costly_sign_loop),
                 (model._check_baseline, baseline_loop)]


@pytest.mark.parametrize("seed", range(150))
def test_table_checks_match_the_scalar_loops(seed):
    rng = np.random.default_rng([seed, 547])
    valid = seed % 3 == 0
    for checks, spec in ((PRODUCTIVE_CHECKS, _productive(rng, valid)),
                         (COSTLY_CHECKS, _costly(rng, valid))):
        for check, loop in checks:
            got, want = check(spec), loop(spec)
            assert tuple(got) == want and repr(tuple(got)) == repr(want), check.__name__


def test_table_checks_cover_passes_and_each_witness():
    outcomes = {}
    for seed in range(150):
        rng = np.random.default_rng([seed, 547])
        valid = seed % 3 == 0
        for checks, spec in ((PRODUCTIVE_CHECKS, _productive(rng, valid)),
                             (COSTLY_CHECKS, _costly(rng, valid))):
            for _, loop in checks:
                passed, _, note = loop(spec)
                outcomes.setdefault(loop.__name__, set()).add((passed, note))
    for name, seen in outcomes.items():
        assert {p for p, _ in seen} == {True, False}, name
    assert {n for _, n in outcomes["single_crossing_loop"]} >= {
        "strict gain reversed", "weak gain reversed"}


# Tables whose first violation in each check's scan order differs from the
# first in another order: a check that scans its mask in the wrong order, or
# reads the wrong note, fails here even where the random tables miss it.
X2, THETA3 = np.array([10.0, 20.0]), np.array([1.0, 2.0, 3.0])


def _productive_pinned(u, x_grid=X2):
    u = np.array(u, dtype=float)
    return ProductiveSpec(THETA3, x_grid, u, np.zeros_like(u))


def _costly_pinned(u_b, v_b, points=((0.0,), (1.0,), (2.0,))):
    u_b = np.array(u_b, dtype=float)
    return CostlySpec(np.array(points), np.arange(len(u_b), dtype=float), 0,
                      u_b, np.array(v_b, dtype=float))


PINNED_TABLES = {
    # falls at (x 10, types 2 -> 3) and (x 20, types 1 -> 2): allocation first
    "productive_monotone": (
        model._check_productive_monotone, productive_monotone_loop,
        _productive_pinned([[0, 1, 0], [1, 0, 1]]),
        (False, (10.0, 2.0, 3.0), "")),
    # differences fail at (steps 10 -> 20, types 2 -> 3) and (20 -> 30, 1 -> 2)
    "increasing_differences": (
        model._check_increasing_differences, increasing_differences_loop,
        _productive_pinned([[0, 0, 0], [1, 2, 2], [2, 3, 5]], np.array([10.0, 20.0, 30.0])),
        (False, (10.0, 20.0, 2.0, 3.0), "")),
    # pair (10, 20) reverses at types 2 -> 3, pair (10, 30) already at 1 -> 2;
    # the gain of 20 over 10 falls from strict to a loss, so both rules fail
    "single_crossing_pair_order": (
        model._check_single_crossing, single_crossing_loop,
        _productive_pinned([[0, 0, 0], [0, 1, -1], [1, -1, -1]],
                           np.array([10.0, 20.0, 30.0])),
        (False, (10.0, 20.0, 2.0, 3.0), "strict gain reversed")),
    "single_crossing_weak_only": (
        model._check_single_crossing, single_crossing_loop,
        _productive_pinned([[0, 0, 0], [0, 0, -1]]),
        (False, (10.0, 20.0, 2.0, 3.0), "weak gain reversed")),
    # falls at (b 0, c 1, y 1) and (b 1, c 2, y 0): first in (b, c, y) order
    # is at y 1, first in (y, b, c) order at y 0
    "costly_monotone_line": (
        model._check_costly_monotone, costly_monotone_loop,
        _costly_pinned([[0, 1, 0], [1, 0, 2]], np.zeros((2, 3))),
        (False, (1, (0.0,), (1.0,)), "")),
    # (0, 1) and (1, 0) are unordered; the first fall in (b, c, y) order is
    # (0, 0) over (1, 1) at y 1, the first at y 0 is (0, 1) over (1, 1)
    "costly_monotone_plane": (
        model._check_costly_monotone, costly_monotone_loop,
        _costly_pinned([[0, 1, 5, 0], [1, 1, 1, 0]], np.zeros((2, 4)),
                       points=((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))),
        (False, (1, (0.0, 0.0), (1.0, 1.0)), "")),
    # surplus positive at (y 0, b 1) and (y 1, b 0): instrument first
    "costly_sign": (
        model._check_costly_sign, costly_sign_loop,
        _costly_pinned([[0, 0], [0, 0]], [[0, 1], [1, 0]], points=((0.0,), (1.0,))),
        (False, (0, 1, 1.0), "")),
    # the baseline row is nonzero in v_b at b 0 and in u_b at b 1: u_b first
    "baseline_both_tables": (
        model._check_baseline, baseline_loop,
        _costly_pinned([[0, 2], [0, 0]], [[3, 0], [0, 0]], points=((0.0,), (1.0,))),
        (False, ("u_b", 1, 2.0), "")),
}


@pytest.mark.parametrize("case", sorted(PINNED_TABLES))
def test_table_check_witness_is_the_first_in_scan_order(case):
    check, loop, spec, want = PINNED_TABLES[case]
    got = tuple(check(spec))
    assert got == want
    assert got == loop(spec) and repr(got) == repr(loop(spec))


# ---------------------------------------------------------------------------
# index fields: integers only
# ---------------------------------------------------------------------------

#: Each constructor with one index field set to `i` and every other field
#: valid (index 1 is in range everywhere), and where it holds that index.
INDEX_FIELDS = {
    "CostlySpec.y0_index": (lambda i: CostlySpec(
        np.array([[0.0]]), np.array([0.0, 1.0]), i,
        np.zeros((2, 1)), np.zeros((2, 1))), lambda c: c.y0_index),
    "JointDistribution.support": (lambda i: JointDistribution(
        ((0, 0), (i, 0)), (0.5, 0.5)), lambda d: d.support[1][0]),
    "Mechanism.x": (lambda i: Mechanism((0, i), (0, 0), (0.0, 0.0)),
                    lambda m: m.x[1]),
    "Mechanism.y": (lambda i: Mechanism((0, 0), (0, i), (0.0, 0.0)),
                    lambda m: m.y[1]),
    "Menu.option_x": (lambda i: Menu(((i, 0, 0.0),)),
                      lambda m: m.options[0][0]),
    "Menu.option_y": (lambda i: Menu(((0, i, 0.0),)),
                      lambda m: m.options[0][1]),
    "BundleInstance.n_goods": (lambda i: BundleInstance(
        i, [[0.0, 2.0], [0.0, 3.0]], [0.5, 0.5], [0.0, 0.5, 1.0],
        [0.0, 0.1, 0.4]), lambda b: b.n_goods),
    "PathMixture.a_indices": (lambda i: PathMixture((0, i), (0.5, 0.5), ()),
                              lambda m: m.a_indices[1]),
    "TypePath.b_indices": (lambda i: TypePath(1.0, (0, i)),
                           lambda p: p.b_indices[1]),
    "MultiplicativeInstance.y0_index": (lambda i: MultiplicativeInstance(
        [1.0, 2.0], [[-0.5], [-0.25]], [0.5, 0.5], lambda x: x,
        [[1.0], [0.0]], i), lambda m: m.y0_index),
    "MultiplicativeMechanism.y": (lambda i: MultiplicativeMechanism(
        (0.4, 0.8), (0, i), (0.1, 0.3)), lambda m: m.y[1]),
    **{f"GeneratorKnobs.{name}": (
        lambda i, name=name: GeneratorKnobs(**{name: i}),
        lambda k, name=name: getattr(k, name))
       for name in ("n_a", "n_b", "n_x", "n_y", "dim", "max_paths")},
    "converse_construct.coord": (lambda i: converse_construct(
        _two_coordinates(example3_instance()), coord=i),
        lambda art: art.coordinate),
}


def _two_coordinates(inst):
    """`inst` with its costly type written twice, as coordinates 0 and 1."""
    c = inst.costly
    return ScreeningInstance(inst.productive, CostlySpec(
        np.column_stack((c.theta_b, c.theta_b)), c.y_set, c.y0_index,
        c.u_b, c.v_b), inst.dist)


@pytest.mark.parametrize("bad", [True, 1.0, 1.9, np.float64(1.0), "1", None],
                         ids=["bool", "float", "fraction", "numpy_float", "str",
                              "none"])
@pytest.mark.parametrize("field", sorted(INDEX_FIELDS))
def test_index_fields_refuse_what_int_would_truncate(field, bad):
    build, _ = INDEX_FIELDS[field]
    with pytest.raises(StructuralError, match="must be an integer index"):
        build(bad)


@pytest.mark.parametrize("good", [1, np.int64(1), np.uint8(1)],
                         ids=["int", "int64", "uint8"])
@pytest.mark.parametrize("field", sorted(INDEX_FIELDS))
def test_index_fields_take_python_and_numpy_integers(field, good):
    build, held = INDEX_FIELDS[field]
    index = held(build(good))
    assert index == 1 and type(index) is int


@pytest.mark.parametrize("support, message", [
    (((0, 0), (1, 0.5)), "support must be an integer index, got 0.5"),
    (((0, 0), (1, True)), "support must be an integer index, got True"),
    (((0, 0, 5), (1, 1)), r"support point \(0, 0, 5\) is not a pair"),
    (((0, 0), 7), "support point 7 is not a pair"),
])
def test_support_points_are_named_as_the_json_reader_names_them(support, message):
    # one rule reads every support point, in the constructor; a file's
    # support goes through it too and reads the same
    with pytest.raises(StructuralError, match=f"^malformed field 'support': {message}$"):
        JointDistribution(support, (0.5, 0.5))


@pytest.mark.parametrize("pair", [(3, 0), (0, 2), (-1, 0), (0, -1)])
def test_support_pairs_out_of_range_are_named(pair):
    inst = example2_instance()
    dist = JointDistribution(((0, 0), pair), (0.5, 0.5))
    with pytest.raises(StructuralError,
                       match=f"^support pair {re.escape(str(pair))} out of range$"):
        ScreeningInstance(inst.productive, inst.costly, dist)


# ---------------------------------------------------------------------------
# weights and grids: one rule for every container
# ---------------------------------------------------------------------------

#: Each container with its weights set to `w` and every other field valid.
WEIGHTS = {
    "JointDistribution.prob": lambda w: JointDistribution(((0, 0), (1, 1)), w),
    "OneDimInstance.mu": lambda w: OneDimInstance(
        [1.0, 2.0], w, [0.0, 1.0], [[0.0, 0.0], [1.0, 2.0]], np.zeros((2, 2))),
    "BundleInstance.prob": lambda w: BundleInstance(
        1, [[0.0, 2.0], [0.0, 3.0]], w, [0.0, 0.5, 1.0], [0.0, 0.1, 0.4]),
    "MultiplicativeInstance.mu": lambda w: MultiplicativeInstance(
        [1.0, 2.0], [[-0.5], [-0.25]], w, lambda x: x, [[0.0], [1.0]], 0),
    "DiscreteDistribution.prob": lambda w: DiscreteDistribution([[0.0], [1.0]], w),
    "PathMixture.a_probs": lambda w: PathMixture((0, 1), w, ()),
}

#: The weights read as the max flow reads a law, within MASS_TOL.
FLOW_WEIGHTS = {"DiscreteDistribution.prob", "PathMixture.a_probs"}


WEIGHT_RULE = r"must (hold \d+ weights|be strictly positive|sum to one)"


@pytest.mark.parametrize("field", sorted(WEIGHTS))
@pytest.mark.parametrize("bad", [[0.5, 0.5 + 1e-6], [1.0, 0.0], [1.5, -0.5],
                                 [0.5, np.nan], [1.0], [0.25, 0.25, 0.5]],
                         ids=["sum", "zero", "negative", "nan", "short", "long"])
def test_weights_refuse_what_is_not_a_law(field, bad):
    with pytest.raises(StructuralError, match=WEIGHT_RULE):
        WEIGHTS[field](bad)


@pytest.mark.parametrize("field", sorted(set(WEIGHTS) - FLOW_WEIGHTS))
def test_payoff_weights_sum_to_one_within_prob_tol(field):
    # they enter payoffs directly; MultiplicativeInstance allowed FEAS_TOL
    with pytest.raises(StructuralError, match="must sum to one"):
        WEIGHTS[field]([0.5, 0.5 + 5e-10])


def test_flow_laws_sum_to_one_within_the_flow_slack():
    # a law off by less than MASS_TOL feeds the max flow as it is
    assert DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5 + 5e-10]).prob.sum() > 1.0


#: Each container with one grid set to `g` and every other field sized to it.
GRIDS = {
    "ProductiveSpec.theta_a": lambda g: ProductiveSpec(
        g, [0.0, 1.0], np.zeros((2, len(g))), np.zeros((2, len(g)))),
    "ProductiveSpec.x_grid": lambda g: ProductiveSpec(
        [0.0, 1.0], g, np.zeros((len(g), 2)), np.zeros((len(g), 2))),
    "OneDimInstance.theta": lambda g: OneDimInstance(
        g, np.full(len(g), 1 / max(len(g), 1)), [0.0, 1.0],
        np.zeros((2, len(g))), np.zeros((2, len(g)))),
    "OneDimInstance.x_grid": lambda g: OneDimInstance(
        [1.0, 2.0], [0.5, 0.5], g, np.zeros((len(g), 2)), np.zeros((len(g), 2))),
    "MultiplicativeInstance.theta_a": lambda g: MultiplicativeInstance(
        g, -np.ones((len(g), 1)), np.full(len(g), 1 / max(len(g), 1)),
        lambda x: x, [[0.0], [1.0]], 0),
}


@pytest.mark.parametrize("field", sorted(GRIDS))
@pytest.mark.parametrize("bad", [[], [2.0, 1.0], [1.0, 1.0], [1.0, np.nan],
                                 [[1.0, 2.0]]],
                         ids=["empty", "falling", "tied", "nan", "2-D"])
def test_grids_refuse_what_does_not_strictly_increase(field, bad):
    # an empty OneDimInstance.x_grid was accepted, with n_alloc 0
    with pytest.raises(StructuralError, match="nonempty 1-D array|strictly increasing"):
        GRIDS[field](bad)


#: Each container with its point cloud set to `p` and every other field sized to it.
POINTS = {
    "CostlySpec.theta_b": lambda p: CostlySpec(
        p, [0.0], 0, np.zeros((1, len(p))), np.zeros((1, len(p)))),
    "DiscreteDistribution.points": lambda p: DiscreteDistribution(
        p, np.full(len(p), 1 / max(len(p), 1))),
}


@pytest.mark.parametrize("field", sorted(POINTS))
@pytest.mark.parametrize("bad", [[], [[0.0, 1.0], [0.0, 1.0]], [[0.0], [np.nan]],
                                 [[0.0], [np.inf]], [[[0.0]]]],
                         ids=["empty", "repeated", "nan", "inf", "3-D"])
def test_point_clouds_refuse_what_is_not_distinct_finite_points(field, bad):
    # a NaN costly type was accepted: it passed the distinct check, being
    # unequal to itself, and validation then reported it as unordered
    with pytest.raises(StructuralError,
                       match="nonempty \\(k, N\\) array|distinct rows|non-finite"):
        POINTS[field](bad)


@pytest.mark.parametrize("field, table", [
    ("theta_b", [[-0.5], [np.nan]]), ("theta_b", [[-0.5], [-np.inf]]),
    ("c", [[0.0], [np.nan]]), ("c", [[0.0], [np.inf]]),
])
def test_multiplicative_tables_refuse_non_finite_entries(field, table):
    # no sign test caught these, so they were accepted
    tables = {"theta_b": [[-0.5], [-0.25]], "c": [[0.0], [1.0]], field: table}
    with pytest.raises(StructuralError, match=f"{field} contains non-finite entries"):
        MultiplicativeInstance([1.0, 2.0], tables["theta_b"], [0.5, 0.5],
                               lambda x: x, tables["c"], 0)


# ---------------------------------------------------------------------------
# shapes: columns, options, paths and counts
# ---------------------------------------------------------------------------

POINT = DiscreteDistribution([[0.0]], [1.0])

#: A constructor call with one malformed column, option, path or shape,
#: and the whole refusal it raises.
SHAPES = {
    "Menu.pair": (lambda: Menu(((0, 0),)),
                  r"options: (0, 0) is not an (x, y, t) triple"),
    "Menu.quadruple": (lambda: Menu(((0, 0, 0.0, 1),)),
                       r"options: (0, 0, 0.0, 1) is not an (x, y, t) triple"),
    "Menu.scalar_option": (lambda: Menu((5,)),
                           r"options: 5 is not an (x, y, t) triple"),
    "Menu.none": (lambda: Menu(None), "options: expected a sequence, got None"),
    "Mechanism.x": (lambda: Mechanism(0, (0,), (0.0,)),
                    "x: expected a sequence, got 0"),
    "Mechanism.y": (lambda: Mechanism((0,), 1.5, (0.0,)),
                    "y: expected a sequence, got 1.5"),
    "Mechanism.t": (lambda: Mechanism((0,), (0,), None),
                    "t: expected a sequence, got None"),
    "Coupling.mass": (lambda: Coupling(POINT, POINT, [[0.5, 0.5]]),
                      "mass must have shape (1, 1), got (1, 2)"),
    "Coupling.mass_1d": (lambda: Coupling(LAW, LAW, [0.5, 0.5]),
                         "mass must have shape (2, 2), got (2,)"),
    "Coupling.no_laws": (lambda: Coupling(None, None, [[1.0]]),
                         "p: expected a DiscreteDistribution, got None"),
    "Coupling.dimensions": (lambda: Coupling(POINT, LAW, [[0.5, 0.5]]),
                            "distributions must share a dimension"),
    "Coupling.not_below": (
        lambda: Coupling(DiscreteDistribution([[1.0]], [1.0]), POINT, [[1.0]]),
        "mass 1 sits on pairs whose p point is not below its q point"),
    "Coupling.incomparable": (
        lambda: Coupling(DiscreteDistribution([[0.0, 1.0], [0.0, 0.0]], [0.5, 0.5]),
                         DiscreteDistribution([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5]),
                         [[0.25, 0.25], [0.25, 0.25]]),
        "mass 0.25 sits on pairs whose p point is not below its q point"),
    "PathMixture.a_probs_short": (lambda: PathMixture((0, 1), (1.0,), ()),
                                  "a_probs must hold 2 weights, got shape (1,)"),
    "PathMixture.a_probs_2d": (
        lambda: PathMixture((0,), ((1.0,),), (TypePath(1.0, (0,)),)),
        "a_probs must hold 1 weights, got shape (1, 1)"),
    "PathMixture.long_path": (
        lambda: PathMixture((0,), (1.0,), (TypePath(1.0, (0, 1)),)),
        "paths: expected a TypePath with 1 b_indices, "
        "got TypePath(weight=1.0, b_indices=(0, 1))"),
    "PathMixture.short_path": (
        lambda: PathMixture((0, 1), (0.5, 0.5), (TypePath(1.0, (0,)),)),
        "paths: expected a TypePath with 2 b_indices, "
        "got TypePath(weight=1.0, b_indices=(0,))"),
    "PathMixture.raw_path": (
        lambda: PathMixture((0,), (1.0,), ((1.0, (0,)),)),
        "paths: expected a TypePath with 1 b_indices, got (1.0, (0,))"),
    "PathMixture.paths_none": (lambda: PathMixture((0,), (1.0,), None),
                               "paths: expected a sequence, got None"),
    "PathMixture.a_indices_none": (lambda: PathMixture(None, (1.0,), ()),
                                   "a_indices: expected a sequence, got None"),
    "TypePath.b_indices": (lambda: TypePath(1.0, 0),
                           "b_indices: expected a sequence, got 0"),
}


@pytest.mark.parametrize("case", sorted(SHAPES))
def test_constructors_refuse_malformed_shapes_naming_the_field(case):
    # each ended in a bare ValueError, TypeError or AttributeError, or built
    build, message = SHAPES[case]
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("raw, message", [
    (((0.7, 0, 0.0),), "option x must be an integer index, got 0.7"),
    ((("1", 0, 0.0),), "option x must be an integer index, got '1'"),
    (((0, True, 0.0),), "option y must be an integer index, got True"),
    (((0, 0),), "options: (0, 0) is not an (x, y, t) triple"),
    (((1, 0, 0.5), (1, 0, 0.5)), "menu options must be distinct"),
], ids=["fraction", "str", "bool", "pair", "repeated"])
def test_menu_best_response_reads_a_raw_menu_through_menu(raw, message):
    # 0.7 was read as allocation 0, "1" and True as index 1
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        menu_best_response(example2_instance(), raw)


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("name", ["n_a", "n_b", "n_x", "n_y", "dim", "max_paths"])
def test_generator_knobs_refuse_counts_below_one(name, count):
    # random_positive_instance ended in a bare ValueError or IndexError, or
    # blamed theta_b for dim = 0
    with pytest.raises(StructuralError, match=f"^{name} must be at least 1, got {count}$"):
        GeneratorKnobs(**{name: count})
