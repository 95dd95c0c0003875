import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenkit import (FEAS_TOL, NotImplementable, OneDimInstance,
                       StructuralError, closed_form_downward_transfers,
                       example1_instance, graph_optimal_transfers,
                       instance_rng, onedim_ic_violations,
                       onedim_ir_violations, onedim_value,
                       productive_marginal, solve_downward_1d, solve_full_1d)

from helpers import (binding_report, random_onedim_instance,
                     u_region_decomposition)


def test_u_regions_monotone_has_none():
    regions = u_region_decomposition([0, 0, 1, 2])
    assert regions.regions == ()
    assert list(regions.free) == [0, 1, 2, 3]


def test_u_regions_single_dip():
    regions = u_region_decomposition([1, 0, 2])
    assert regions.regions == ((0, 2),)


def test_u_regions_never_recovering_dip_hits_sentinel():
    regions = u_region_decomposition([2, 1, 1])
    assert regions.regions == ((0, 3),)


def test_example1_transfers_closed_form_and_graph():
    line = productive_marginal(example1_instance())
    x = (1, 0)
    closed = closed_form_downward_transfers(line, x)
    graph = graph_optimal_transfers(line, x, "downward")
    assert np.allclose(closed, [0.0, -1.0], atol=1e-12)
    assert np.allclose(graph, closed, atol=1e-9)
    report = binding_report(line, x, graph)
    assert report.passes
    kinds = {(e.kind, e.deviator, e.target) for e in report.entries}
    assert ("ir", 0, 0) in kinds          # lowest type pinned to zero
    assert any(e.kind in ("local", "region") and (e.deviator, e.target) == (1, 0)
               for e in report.entries)


@pytest.mark.parametrize("seed", range(60))
def test_closed_form_matches_graph_on_random_pairs(seed):
    rng = instance_rng(seed, stream=201)
    n = int(rng.integers(2, 6))
    n_x = int(rng.integers(2, 5))
    inst = random_onedim_instance(seed, n=n, n_x=n_x, stream=202)
    x = tuple(int(i) for i in rng.integers(0, n_x, n))
    closed = closed_form_downward_transfers(inst, x)
    graph = graph_optimal_transfers(inst, x, "downward")
    assert np.allclose(closed, graph, atol=1e-9)
    assert binding_report(inst, x, graph).passes
    assert onedim_ic_violations(inst, x, graph, "downward") == []
    assert onedim_ir_violations(inst, x, graph) == []


def test_all_constraints_infeasible_for_nonmonotone_allocation():
    # strict increasing differences make a decreasing allocation
    # unimplementable once upward constraints are enforced
    inst = OneDimInstance(np.array([0.0, 1.0]), np.array([0.5, 0.5]),
                          np.array([0.0, 1.0]),
                          np.array([[0.0, 0.0], [0.0, 1.0]]),
                          np.zeros((2, 2)))
    with pytest.raises(NotImplementable):
        graph_optimal_transfers(inst, (1, 0), "all")
    # the downward relaxation always admits transfers
    t = graph_optimal_transfers(inst, (1, 0), "downward")
    assert np.isfinite(t).all()


def test_all_constraint_transfers_are_fully_ic():
    for seed in range(20):
        inst = random_onedim_instance(seed, n=4, n_x=3, stream=203)
        x = (0, 1, 2, 2)  # monotone, implementable under increasing differences
        t = graph_optimal_transfers(inst, x, "all")
        assert onedim_ic_violations(inst, x, t, "all") == []
        assert onedim_ir_violations(inst, x, t) == []


def test_onedim_value_is_expected_profit():
    inst = random_onedim_instance(3, n=3, n_x=3)
    x = (0, 1, 2)
    t = graph_optimal_transfers(inst, x, "downward")
    by_hand = sum(inst.mu[j] * (inst.v[x[j]][j] + t[j]) for j in range(3))
    assert onedim_value(inst, x, t) == pytest.approx(by_hand, abs=1e-12)


def test_downward_transfers_are_componentwise_maximal():
    # raising any single transfer must break a downward constraint or IR
    for seed in range(10):
        rng = instance_rng(seed, stream=204)
        inst = random_onedim_instance(seed, n=4, n_x=3, stream=205)
        x = tuple(int(i) for i in rng.integers(0, 3, 4))
        t = graph_optimal_transfers(inst, x, "downward")
        eps = 1e-6
        for j in range(4):
            bumped = list(t)
            bumped[j] += eps
            broke = (onedim_ic_violations(inst, x, bumped, "downward") != []
                     or onedim_ir_violations(inst, x, bumped) != [])
            assert broke, f"transfer {j} was not maximal"


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_region_decomposition_covers_all_indices(seed, data):
    n = data.draw(st.integers(1, 7))
    x = [data.draw(st.integers(0, 3)) for _ in range(n)]
    regions = u_region_decomposition(x)
    covered = set(regions.free)
    for lo, hi in regions.regions:
        covered |= set(range(lo, min(hi, n) + 1)) & set(range(n))
    assert covered == set(range(n))


# u = [[2, 0], [2, 2]] falls in the type at x = 0; x = (0, 1) would get
# t = (2, 4) from the closed form, leaving type 1 a payoff of -2
FALLING = OneDimInstance([1.0, 2.0], [0.5, 0.5], [0.0, 1.0],
                         [[2.0, 0.0], [2.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]])


def test_closed_form_prices_a_table_falling_in_the_type():
    # the U-region closed form would give (2, 4) here, and type 1 a payoff of -2
    t = closed_form_downward_transfers(FALLING, (0, 1))
    assert t.tolist() == [2.0, 2.0]
    assert t.tolist() == graph_optimal_transfers(FALLING, (0, 1), "downward").tolist()


def test_closed_form_prices_decreasing_differences():
    # rises in the type, but the gain from x = 1 falls from 2 to 1
    inst = OneDimInstance([1.0, 2.0], [0.5, 0.5], [0.0, 1.0],
                          [[0.0, 1.0], [2.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]])
    t = closed_form_downward_transfers(inst, (1, 1))
    assert t.tolist() == graph_optimal_transfers(inst, (1, 1), "downward").tolist()


def test_closed_form_rejects_a_short_allocation():
    with pytest.raises(StructuralError, match="one entry per type"):
        closed_form_downward_transfers(FALLING, (0,))


BAD_INDEX = "integer indices in \\[0, 3\\)"


def test_closed_form_rejects_a_negative_index():
    # -1 would otherwise price the last allocation, as (0, 1, 2) does
    with pytest.raises(StructuralError, match=BAD_INDEX):
        closed_form_downward_transfers(random_onedim_instance(1, n=3, n_x=3), [0, 1, -1])


def test_closed_form_rejects_a_fractional_index():
    # 0.5 would otherwise be truncated to 0
    with pytest.raises(StructuralError, match=BAD_INDEX):
        closed_form_downward_transfers(random_onedim_instance(1, n=3, n_x=3), [0.5, 1, 2])


def test_closed_form_rejects_an_index_past_the_grid():
    with pytest.raises(StructuralError, match=BAD_INDEX):
        closed_form_downward_transfers(random_onedim_instance(1, n=3, n_x=3), [0, 1, 3])


@pytest.mark.parametrize("x", [[0, 1, -1], [0.5, 1, 2], [0, 1, 2.9]],
                         ids=["wrapping", "fractional", "truncated"])
def test_evaluation_and_checks_reject_a_bad_index(x):
    # -1 would wrap to the last allocation and 0.5 and 2.9 truncate, each
    # pricing as (0, 1, 2) does
    inst = random_onedim_instance(1, n=3, n_x=3)
    for check in (onedim_value, onedim_ic_violations, onedim_ir_violations):
        with pytest.raises(StructuralError, match=BAD_INDEX):
            check(inst, x, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("x", [[0, True, 2], (0, 1, np.bool_(True))],
                         ids=["bool", "numpy_bool"])
@pytest.mark.parametrize("check", [
    lambda inst, x: onedim_value(inst, x, [0.0, 0.0, 0.0]),
    lambda inst, x: closed_form_downward_transfers(inst, x),
    lambda inst, x: graph_optimal_transfers(inst, x),
    lambda inst, x: onedim_ic_violations(inst, x, [0.0, 0.0, 0.0])],
    ids=["onedim_value", "closed_form", "graph", "ic_violations"])
def test_allocation_refuses_a_bool_entry(check, x):
    # np.asarray reads [0, True, 2] as the integers [0, 1, 2]
    with pytest.raises(StructuralError, match=BAD_INDEX):
        check(random_onedim_instance(1, n=3, n_x=3), x)


def test_solvers_guard_the_unchecked_closed_form_themselves():
    # the one-dimensional solvers price with the unchecked kernels and keep
    # their own guards on a table falling in the type: the downward solve
    # prices it, and the full-IC solve refuses it
    down = solve_downward_1d(FALLING)
    assert (down.value, down.x_idx, down.t) == (2.0, (0, 1), (2.0, 2.0))
    with pytest.raises(StructuralError, match="deviation gain of 2; instance "
                                              "likely violates increasing"):
        solve_full_1d(FALLING)
