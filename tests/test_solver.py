import itertools

import numpy as np
import pytest

from screenkit import (GeneratorKnobs, OneDimInstance, SizeGuardExceeded,
                       StructuralError, agent_payoff, example1_instance,
                       example2_instance, example3_instance,
                       graph_optimal_transfers, instance_rng,
                       principal_payoff, productive_marginal,
                       random_positive_instance, solve_downward_1d,
                       solve_full_1d, solve_joint)

from helpers import (default_convergence_family, discretize_family,
                     grid_convergence_study, random_onedim_instance)


def oracle_joint_value(inst):
    """Independent brute force: python loops and a hand-rolled relaxation."""
    m = inst.n_support
    options = [(ix, iy) for ix in range(inst.productive.n_alloc)
               for iy in range(inst.costly.n_alloc)]

    def util(p, opt):
        return agent_payoff(inst, p, (opt[0], opt[1], 0.0))

    best = None
    for combo in itertools.product(options, repeat=m):
        t = [util(p, combo[p]) for p in range(m)]  # participation caps
        for _ in range(m + 1):
            changed = False
            for p in range(m):
                for q in range(m):
                    if p == q:
                        continue
                    cap = t[q] + util(p, combo[p]) - util(p, combo[q])
                    if cap < t[p] - 1e-15:
                        t[p] = cap
                        changed = True
            if not changed:
                break
        else:
            continue  # still relaxing after m+1 sweeps: negative cycle
        value = sum(pr * principal_payoff(inst, p, (combo[p][0], combo[p][1], t[p]))
                    for p, pr in enumerate(inst.dist.prob))
        if best is None or value > best:
            best = value
    return best


def test_example1_downward_exact():
    line = productive_marginal(example1_instance())
    res = solve_downward_1d(line)
    assert res.x_idx == (1, 0)
    assert res.t == (0.0, -1.0)
    assert res.value == pytest.approx(0.125, abs=1e-12)


def test_example1_full_ic_value_zero():
    line = productive_marginal(example1_instance())
    res = solve_full_1d(line)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_example1_kappa1_downward_is_monotone():
    line = productive_marginal(example1_instance(kappa=1.0))
    res = solve_downward_1d(line)
    assert res.x_idx == (0, 1)
    assert res.t == (0.0, 1.0)
    assert res.value == pytest.approx(0.25, abs=1e-12)
    assert solve_full_1d(line).value == pytest.approx(0.25, abs=1e-12)


def test_example2_joint_value():
    res = solve_joint(example2_instance())
    assert res.value == pytest.approx(0.125, abs=1e-9)
    assert not res.all_optima_baseline  # the optimum screens with y


def test_example3_joint_value():
    res = solve_joint(example3_instance())
    assert res.value == pytest.approx(1.5, abs=1e-12)
    assert solve_full_1d(productive_marginal(example3_instance())).value == 1.0


def test_single_type_full_extraction():
    inst = random_positive_instance(5, GeneratorKnobs(n_a=1, n_b=1))
    line = productive_marginal(inst)
    res = solve_full_1d(line)
    # one type: the seller extracts the whole surplus of the best allocation
    want = max(line.u[c][0] + line.v[c][0] for c in range(line.x_grid.size))
    want = max(want, 0.0)
    assert res.value == pytest.approx(want, abs=1e-9)


def check_full1d_against_enumeration(inst):
    """Value, smallest maximizer and transfers against all monotone allocations."""
    n, n_x = inst.n, inst.n_alloc
    res = solve_full_1d(inst)
    values = {}
    for combo in itertools.product(range(n_x), repeat=n):
        if any(combo[j] > combo[j + 1] for j in range(n - 1)):
            continue  # increasing differences force monotone optima
        t = graph_optimal_transfers(inst, combo, "all")
        values[combo] = sum(inst.mu[j] * (inst.v[combo[j]][j] + t[j])
                            for j in range(n))
    best = max(values.values())
    assert res.value == pytest.approx(best, abs=1e-9)
    assert res.x_idx == min(c for c, v in values.items() if v >= best - 1e-9)
    np.testing.assert_allclose(
        res.t, graph_optimal_transfers(inst, res.x_idx, "all"), rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_full1d_matches_graph_transfer_enumeration(seed):
    check_full1d_against_enumeration(
        random_onedim_instance(seed, n=4, n_x=3, stream=301))


@pytest.mark.parametrize("seed", range(20))
def test_full1d_breaks_ties_toward_smallest_allocation(seed):
    # small integer tables with exact binary weights: many exact ties
    rng = np.random.default_rng([seed, 303])
    a = np.cumsum(rng.integers(0, 3, 3))
    b = np.cumsum(rng.integers(0, 3, 3))
    u = np.outer(b, a) + np.cumsum(rng.integers(0, 2, 3))
    v = np.tile(rng.integers(-2, 3, (3, 1)), (1, 3))
    check_full1d_against_enumeration(OneDimInstance(
        np.arange(1.0, 4.0), np.array([0.25, 0.25, 0.5]), np.arange(3.0), u, v))


@pytest.mark.parametrize("solver", [solve_downward_1d, solve_full_1d])
@pytest.mark.parametrize("table, bad", [("v", np.nan), ("u", np.inf),
                                        ("v", -np.inf)])
def test_onedim_solvers_reject_non_finite_tables(solver, table, bad):
    tables = {"u": np.array([[0.0, 0.0], [1.0, 2.0]]), "v": np.zeros((2, 2))}
    tables[table][1, 1] = bad
    with pytest.raises(StructuralError, match=f"{table} contains non-finite"):
        solver(OneDimInstance(np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                              np.array([0.0, 1.0]), tables["u"], tables["v"]))


@pytest.mark.parametrize("n_a", [1, 64, 320])
def test_full1d_transfers_match_graph_oracle(n_a):
    knobs = GeneratorKnobs(n_a=n_a, n_b=2, n_x=6, n_y=2, max_paths=1)
    line = productive_marginal(random_positive_instance(n_a, knobs))
    assert line.n == n_a
    res = solve_full_1d(line)
    np.testing.assert_allclose(
        res.t, graph_optimal_transfers(line, res.x_idx, "all"), rtol=0, atol=1e-9)


@pytest.mark.parametrize("u, v", [
    # the low type gains more from the high allocation and mimics the high type
    ([[0.0, 0.0], [2.0, 1.0]], [[0.0, 0.0], [-5.0, 0.0]]),
    # both types take the high allocation; the high type's rent goes negative
    ([[0.0, 0.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
])
def test_full1d_rejects_decreasing_differences(u, v):
    inst = OneDimInstance(np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                          np.array([0.0, 1.0]), np.array(u), np.array(v))
    with pytest.raises(StructuralError):
        solve_full_1d(inst)


def test_full1d_does_not_price_on_the_constraint_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_full_1d priced on the O(n^3) graph route")

    monkeypatch.setattr("screenkit.transfers.graph_optimal_transfers", refuse)
    monkeypatch.setattr("screenkit.solver.graph_optimal_transfers", refuse,
                        raising=False)
    knobs = GeneratorKnobs(n_a=16, n_b=2, n_x=4, n_y=2, max_paths=1)
    res = solve_full_1d(productive_marginal(random_positive_instance(3, knobs)))
    assert len(res.x_idx) == 16


@pytest.mark.parametrize("seed", range(25))
def test_downward_beats_or_ties_full(seed):
    inst = random_onedim_instance(seed, n=4, n_x=3, stream=302)
    down = solve_downward_1d(inst)
    full = solve_full_1d(inst)
    assert down.value >= full.value - 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_joint_solver_matches_independent_oracle(seed):
    knobs = GeneratorKnobs(n_a=2, n_b=2, n_x=2, n_y=2, strict_costly=False)
    inst = random_positive_instance(seed, knobs)
    res = solve_joint(inst)
    assert res.value == pytest.approx(oracle_joint_value(inst), abs=1e-9)


def test_joint_mechanism_is_feasible_and_attains_value():
    from screenkit import check_ic, check_ir, mechanism_value
    inst = random_positive_instance(9)
    res = solve_joint(inst)
    assert check_ic(inst, res.mechanism, "all") == []
    assert check_ir(inst, res.mechanism) == []
    assert mechanism_value(inst, res.mechanism) == pytest.approx(
        res.value, abs=1e-9)


def test_size_guard_raises():
    with pytest.raises(SizeGuardExceeded):
        solve_joint(example2_instance(), guard=8)


def test_productive_marginal_merges_levels():
    inst = example2_instance()
    line = productive_marginal(inst)
    assert line.theta.tolist() == [0.0, 1.0]
    assert line.mu.tolist() == [0.5, 0.5]


def test_grid_convergence_study():
    study = grid_convergence_study(default_convergence_family())
    gaps = study.gaps
    assert len(gaps) == 3
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    assert gaps[-1] < 1e-2


def test_discretize_family_mass_and_grid():
    fam = default_convergence_family()
    inst = discretize_family(fam, 16)
    assert inst.theta.size == 16
    assert inst.mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert (np.diff(inst.theta) > 0).all()
