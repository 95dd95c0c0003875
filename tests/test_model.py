import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenkit import (FEAS_TOL, OUTSIDE, BundleInstance, CostlySpec,
                       Coupling, DiscreteDistribution, JointDistribution,
                       Mechanism, Menu, MultiplicativeInstance,
                       OneDimInstance, PathMixture, ProductiveSpec,
                       ScreeningInstance, StructuralError, agent_payoff,
                       check_ic, check_ir, example1_instance,
                       example2_instance, example2_menu, example3_instance,
                       example3_menu, level_couplings, load_instance,
                       mechanism_value, menu_best_response, principal_payoff,
                       productive_marginal, random_positive_instance,
                       save_instance, validate_instance)
from screenkit import model
from screenkit.model import frozen_array

from helpers import (baseline_loop, costly_monotone_loop, costly_sign_loop,
                     increasing_differences_loop, productive_monotone_loop,
                     single_crossing_loop)


def test_example2_payoff_arithmetic():
    inst = example2_instance()
    # type (theta_a=0, theta_b=-1) is support point 0
    assert agent_payoff(inst, 0, (0, 1, -1.0)) == pytest.approx(0.0, abs=1e-12)
    assert principal_payoff(inst, 0, (0, 1, -1.0)) == pytest.approx(-1.0)
    assert agent_payoff(inst, 0, (1, 0, 0.0)) == pytest.approx(0.0)
    assert principal_payoff(inst, 0, (1, 0, 0.0)) == pytest.approx(1.25)
    # type (theta_a=1, theta_b=0) taking (x=0, y=1, t=-1) keeps the agent at 1
    assert agent_payoff(inst, 1, (0, 1, -1.0)) == pytest.approx(1.0)


def test_outside_option_is_zero():
    inst = example2_instance()
    assert agent_payoff(inst, 0, None) == 0.0
    assert principal_payoff(inst, 1, None) == 0.0


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
    by_hand = sum(pr * principal_payoff(inst, p, mech.option(p))
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
    for p, choice in enumerate(assignment):
        chosen = 0.0 if choice == OUTSIDE else agent_payoff(
            inst, p, menu.options[choice])
        assert chosen >= -FEAS_TOL
        for opt in menu.options:
            assert chosen >= agent_payoff(inst, p, opt) - FEAS_TOL


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


def test_frozen_array_shares_read_only_arrays_and_freezes_fresh_ones():
    ro = np.array([1.0, 2.0])
    ro.setflags(write=False)
    assert frozen_array(ro) is ro
    fresh = frozen_array([1, 2])
    assert fresh.dtype == float and not fresh.flags.writeable
    # a writable view aliases its caller's base, so it is copied
    base = np.zeros((2, 2))
    assert not np.shares_memory(frozen_array(base[0]), base)


def test_loaded_instances_share_their_tables_downstream(tmp_path):
    # the load path hands read-only tables to the containers, and the
    # productive marginal shares the grid and the level masses
    save_instance(example2_instance(), tmp_path / "inst.json")
    inst = load_instance(tmp_path / "inst.json")
    levels = level_couplings(inst)
    line = productive_marginal(inst, levels)
    assert line.x_grid is inst.productive.x_grid
    assert line.mu is levels.a_probs


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
