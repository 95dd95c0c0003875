import dataclasses
import re

import numpy as np
import pytest

from screenkit import (FEAS_TOL, GeneratorKnobs, InputNotIC, Mechanism,
                       MultiplicativeInstance, MultiplicativeMechanism,
                       PreconditionFailed, StructuralError, check_ic,
                       check_ir,
                       converse_construct, example2_instance,
                       example2_mechanism, example3_instance,
                       menu_best_response, path_decomposition,
                       random_negative_instance, random_positive_instance,
                       shift_mechanism, shift_multiplicative, solve_full_1d,
                       productive_marginal, verify_theorem1)
from screenkit.stochastics import TypePath, instance_rng
from screenkit import theorems
from screenkit.model import best_response
from screenkit.theorems import (_CONVERSE_EPS, _coordinate_marginals,
                                _line_instance, _median_split)

from helpers import ic_mechanism_on_line, loop_agent_payoff


# ---------------------------------------------------------------------------
# reduction theorem
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_reduction_holds_on_generated_instances(seed):
    report = verify_theorem1(random_positive_instance(seed))
    assert report.applicable
    assert report.passed, (report.gap, report.y0_almost_surely)
    assert abs(report.gap) <= 1e-6


def test_example2_report_is_diagnostic():
    report = verify_theorem1(example2_instance())
    assert not report.applicable
    assert report.assumption_status.failures == ["surplus_single_crossing"]
    assert report.gap == pytest.approx(0.125, abs=1e-9)
    assert not report.passed


@pytest.mark.parametrize("seed", range(8))
def test_strictly_costly_optima_rest_at_baseline(seed):
    knobs = GeneratorKnobs(strict_costly=True)
    report = verify_theorem1(random_positive_instance(seed, knobs))
    assert report.strictly_costly
    assert report.y0_almost_surely


# ---------------------------------------------------------------------------
# additive shift along a path
# ---------------------------------------------------------------------------


def _line_and_path(seed, knobs=None):
    inst = random_positive_instance(seed, knobs or GeneratorKnobs())
    path = path_decomposition(inst).paths[0]
    return inst, path, _line_instance(inst, path)


def test_example2_shift_frozen_values():
    inst = example2_instance()
    path = path_decomposition(inst).paths[0]
    assert path.b_indices == (0, 1)
    result = shift_mechanism(inst, path, example2_mechanism())
    assert result.mechanism.t == (0.0, -1.0)
    assert result.mechanism.y == (0, 0)
    assert result.shifted_value == pytest.approx(0.125, abs=1e-12)
    assert result.improvement == pytest.approx(0.0, abs=1e-12)
    # the rewrite invites the low type to grab the high bundle (gain 1)
    assert len(result.upward_violations) == 1
    assert result.upward_violations[0].gain == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_shift_preserves_payoffs_and_downward_ic(seed):
    inst, path, line = _line_and_path(seed)
    rng = instance_rng(seed, stream=401)
    mech = ic_mechanism_on_line(line, rng)
    if mech is None:
        pytest.skip("no feasible instrument-using mechanism drawn")
    result = shift_mechanism(inst, path, mech)
    shifted = result.mechanism
    for k in range(len(mech)):
        before = loop_agent_payoff(line, k, mech.option(k))
        after = loop_agent_payoff(line, k, shifted.option(k))
        assert after == pytest.approx(before, abs=1e-12)
    assert check_ic(line, shifted, "downward") == []
    assert check_ir(line, shifted) == []
    assert result.improvement >= -FEAS_TOL
    uses = any(y != line.costly.y0_index and pr > 0 for y, pr in
               zip(mech.y, line.dist.prob))
    if line.costly.strictly_costly and uses:
        assert result.strictly_improved
        assert result.improvement > 0


def test_shift_rejects_non_ic_input():
    inst = example2_instance()
    path = path_decomposition(inst).paths[0]
    greedy = Mechanism((1, 0), (0, 1), (5.0, -1.0))  # IR fails for the low type
    with pytest.raises(InputNotIC):
        shift_mechanism(inst, path, greedy)


def test_shift_refuses_an_instrument_off_the_grid():
    # y = -1 was priced as instrument 1 and the shift returned a result
    inst = example2_instance()
    mech = Mechanism((1, 0), (0, -1), (0.0, -1.0))
    with pytest.raises(StructuralError, match="option 1: y index -1 out of range"):
        shift_mechanism(inst, TypePath(1.0, (0, 1)), mech)


def test_shift_refuses_a_path_off_the_costly_types():
    # the line's own bounds check names the pair, where the path's costly
    # types were read first and a bare IndexError escaped
    with pytest.raises(StructuralError, match=re.escape("support pair (1, 5) out of range")):
        shift_mechanism(example2_instance(), TypePath(1.0, (0, 5)),
                        example2_mechanism())


# ---------------------------------------------------------------------------
# multiplicative shift
# ---------------------------------------------------------------------------


def _mult_instance(cost=None):
    return MultiplicativeInstance(
        theta_a=np.array([1.0, 2.0]),
        theta_b=np.array([[-0.5], [-0.25]]),
        mu=np.array([0.5, 0.5]),
        u=lambda x: x,
        c=np.array([[0.0], [1.0]]),
        y0_index=0,
        cost=cost if cost is not None else (lambda x: 0.0))


def test_multiplicative_shift_trades_instrument_for_allocation():
    minst = _mult_instance()
    mech = MultiplicativeMechanism((0.4, 0.8), (0, 1), (0.1, 0.3))
    result = shift_multiplicative(minst, mech)
    shifted = result.mechanism
    assert shifted.y == (0, 0)
    assert shifted.t == mech.t
    assert shifted.x[0] == pytest.approx(0.4, abs=1e-9)
    assert shifted.x[1] == pytest.approx(0.675, abs=1e-9)  # 0.8 - 0.25/2
    assert result.improvement == pytest.approx(0.0, abs=1e-9)


def test_multiplicative_shift_strictly_helps_with_production_costs():
    minst = _mult_instance(cost=lambda x: 0.5 * x)
    mech = MultiplicativeMechanism((0.4, 0.8), (0, 1), (0.1, 0.3))
    result = shift_multiplicative(minst, mech)
    # the high type's allocation shrinks by 1/8, saving cost at rate 1/2
    assert result.improvement == pytest.approx(0.5 * 0.5 * 0.125, abs=1e-9)
    assert result.strictly_improved


def test_multiplicative_shift_requires_monotone_ratios():
    minst = MultiplicativeInstance(
        theta_a=np.array([1.0, 2.0]),
        theta_b=np.array([[-0.1], [-1.9]]),  # ratios fall: -0.1 then -0.95
        mu=np.array([0.5, 0.5]),
        u=lambda x: x,
        c=np.array([[0.0], [1.0]]),
        y0_index=0)
    mech = MultiplicativeMechanism((0.2, 0.9), (0, 0), (0.0, 0.0))
    with pytest.raises(PreconditionFailed):
        shift_multiplicative(minst, mech)


def test_multiplicative_shift_requires_nonnegative_transfers():
    minst = _mult_instance()
    mech = MultiplicativeMechanism((0.4, 0.8), (0, 1), (-0.2, 0.3))
    with pytest.raises(PreconditionFailed):
        shift_multiplicative(minst, mech)


def test_multiplicative_shift_rejects_non_ic_input():
    minst = _mult_instance()
    # the low type would rather take the high bundle
    mech = MultiplicativeMechanism((0.4, 0.8), (0, 0), (0.4, 0.0))
    with pytest.raises(InputNotIC):
        shift_multiplicative(minst, mech)


@pytest.mark.parametrize("iy", [-1, 5])
def test_multiplicative_shift_refuses_an_instrument_off_the_grid(iy):
    # 5 ended in a bare IndexError and -1 read the last instrument row
    mech = MultiplicativeMechanism((0.4, 0.8), (0, iy), (0.1, 0.3))
    with pytest.raises(StructuralError,
                       match=f"instrument index {iy} out of range for 2 instruments"):
        shift_multiplicative(_mult_instance(), mech)


# ---------------------------------------------------------------------------
# converse construction
# ---------------------------------------------------------------------------


def test_converse_on_anticomonotone_example():
    art = converse_construct(example3_instance())
    assert art.productive_value == pytest.approx(1.0, abs=1e-9)
    assert art.menu_value > 1.0 + 0.4
    assert art.r_val > art.q_val
    assert len(art.menu.options) == 3
    # re-evaluating the menu on the constructed instance reproduces the value
    _, value = menu_best_response(art.instance, art.menu)
    assert value == pytest.approx(art.menu_value, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_converse_certifies_on_negative_instances(seed):
    art = converse_construct(random_negative_instance(seed))
    assert art.margin > 1e-6
    assert art.r_val > art.q_val
    assert art.menu_value >= art.r_val - FEAS_TOL


def test_converse_rejects_positively_correlated_inputs():
    with pytest.raises(PreconditionFailed):
        converse_construct(random_positive_instance(0, GeneratorKnobs(n_a=2)))


def test_converse_needs_a_clean_median():
    inst = random_positive_instance(1, GeneratorKnobs(n_a=3))
    with pytest.raises(PreconditionFailed):
        converse_construct(inst)


def test_converse_productive_value_matches_solver():
    art = converse_construct(example3_instance())
    line = productive_marginal(art.instance)
    assert solve_full_1d(line).value == pytest.approx(
        art.productive_value, abs=1e-9)


def productive_value_by_replace(inst, coord=0):
    """The converse's productive-only value through `productive_marginal`
    and `dataclasses.replace`: two validated lines for one solve."""
    t0, _, w = _coordinate_marginals(inst, coord)
    m0 = _median_split(t0, w, "the productive type")
    x = inst.productive.x_grid
    rise = (x - x[0]) / (x[-1] - x[0])
    line = productive_marginal(inst)
    u_line = np.outer(rise, np.where(line.theta <= m0, 1.0, 2.0))
    return solve_full_1d(dataclasses.replace(
        line, u=u_line, v=np.zeros_like(u_line))).value


@pytest.mark.parametrize("seed", range(1, 6))
def test_converse_productive_value_matches_the_replace_route(seed):
    for stream in range(40):
        inst = random_negative_instance(seed, stream=stream)
        want = productive_value_by_replace(inst)
        assert converse_construct(inst).productive_value.hex() == want.hex()


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1e-9])
def test_converse_rejects_bad_margin_before_any_work(margin):
    # a positively correlated input fails a precondition once work starts;
    # the margin is checked first
    with pytest.raises(StructuralError, match="dominance_margin"):
        converse_construct(random_positive_instance(0, GeneratorKnobs(n_a=2)),
                           dominance_margin=margin)


def test_converse_unmet_margin_names_the_margin_and_the_best_gap():
    inst = random_negative_instance(3, stream=0)
    gap = converse_construct(inst).margin
    with pytest.raises(PreconditionFailed,
                       match=f"dominance margin 5: .* is {gap:.6g}, at eps 1e-08"):
        converse_construct(inst, dominance_margin=5.0)


def test_converse_without_a_bound_certified_eps_blames_the_construction(monkeypatch):
    # every menu value below the bound r: no eps passes the r/q check
    def below_every_bound(inst, menu):
        return [], 0.0
    monkeypatch.setattr(theorems, "menu_best_response", below_every_bound)
    with pytest.raises(StructuralError, match="inconsistent"):
        converse_construct(random_negative_instance(3, stream=0))


# ---------------------------------------------------------------------------
# converse: the least eps is best
# ---------------------------------------------------------------------------

#: The eps the old grid search priced: 49 coarse, an 8-point geometric tail
#: and the refinement around its best, which was `_CONVERSE_EPS` on every draw.
_OLD_GRID = ([0.01 * k for k in range(1, 50)]
             + [1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6, 1e-7, 1e-8]
             + [_CONVERSE_EPS + 0.001 * k for k in range(10)])


def _closed_form_value(inst, art, eps):
    """(1 - eps) P(t1 > m1) + (2 - eps) P(t0 > m0, t1 <= m1)."""
    t0, t1, w = _coordinate_marginals(inst, art.coordinate)
    return ((1.0 - eps) * w[t1 > art.m1].sum()
            + (2.0 - eps) * w[(t0 > art.m0) & (t1 <= art.m1)].sum())


def _menu_values_over_eps(inst, art, eps):
    """The converse's menu priced with each eps in place of `eps_star`."""
    cost = art.instance.costly
    g = np.where(cost.theta_b[:, art.coordinate] <= art.m1, -1.0, -eps[:, None])
    off_baseline = np.arange(cost.n_alloc) != cost.y0_index
    u_b = off_baseline[None, :, None] * g[:, None, :]
    t = np.stack((2.0 - eps, 1.0 - eps, np.zeros_like(eps)), axis=-1)[:, None, :]
    x, y, _ = np.array(art.menu.options).T.astype(int)
    ia, ib = inst.dist.pairs.T[:, :, None]
    prod = art.instance.productive
    agent = prod.u_a[x, ia] + u_b[:, y, ib] - t  # (eps, point, option)
    principal = prod.v_a[x, ia] + cost.v_b[y, ib] + t
    return best_response(agent, principal, inst.dist.prob)[1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_eps_of_the_old_grid_prices_the_menu_above_converse_eps(seed):
    eps = np.array([_CONVERSE_EPS] + _OLD_GRID)
    assert eps.size == 68
    for stream in range(300):
        inst = random_negative_instance(seed, stream)
        art = converse_construct(inst)
        assert art.eps_star == _CONVERSE_EPS
        values = _menu_values_over_eps(inst, art, eps)
        assert values[0] == art.menu_value
        assert values[1:].max() <= values[0], stream
        # menu_value and every grid eps's value are the closed form: the
        # agents choose alike for every eps
        np.testing.assert_allclose(values, _closed_form_value(inst, art, eps),
                                   rtol=0, atol=1e-12)
