"""The payoff tables against the per-pair loops they replaced.

`menu_best_response`, `check_ic`, `check_ir`, the `onedim_*` checks and
`converse_construct` all read one (point, option) payoff table. The oracles
are the previous implementations: one Python loop per (deviator, target)
pair, and one built and validated instance per converse epsilon of the old
grid search (`helpers.loop_converse`). Results must match them bitwise,
ties included.
"""
import struct

import numpy as np
import pytest

from screenkit import (FEAS_TOL, OUTSIDE, CostlySpec, GeneratorKnobs,
                       ICViolation, JointDistribution, Mechanism, Menu,
                       PreconditionFailed, ProductiveSpec,
                       ScreeningInstance, StructuralError, agent_payoff,
                       check_ic, check_ir, converse_construct,
                       example3_instance, instance_rng, menu_best_response,
                       productive_marginal, random_negative_instance,
                       random_positive_instance)
from screenkit.model import best_response, ic_gains, payoff_tables
from screenkit.transfers import onedim_ic_violations, onedim_ir_violations

from helpers import loop_converse, loop_menu_best_response


# ---------------------------------------------------------------------------
# oracles: the loop implementations
# ---------------------------------------------------------------------------


def _type_vector(inst, p):
    ia, ib = inst.dist.support[p]
    return np.concatenate(([inst.productive.theta_a[ia]], inst.costly.theta_b[ib]))


def _type_leq(inst, p, q):
    return bool(np.all(_type_vector(inst, p) <= _type_vector(inst, q) + 0.0))


def loop_check_ic(inst, mech, direction="all"):
    out = []
    for p in range(inst.n_support):
        truthful = agent_payoff(inst, p, mech.option(p))
        for q in range(inst.n_support):
            if q == p:
                continue
            if direction == "downward" and not _type_leq(inst, q, p):
                continue
            if direction == "upward" and not _type_leq(inst, p, q):
                continue
            gain = agent_payoff(inst, p, mech.option(q)) - truthful
            if gain > FEAS_TOL:
                out.append(ICViolation(p, q, float(gain)))
    return out


def loop_check_ir(inst, mech):
    out = []
    for p in range(inst.n_support):
        payoff = agent_payoff(inst, p, mech.option(p))
        if payoff < -FEAS_TOL:
            out.append((p, float(payoff)))
    return out


def loop_onedim_ic(inst, x_idx, t, direction="all"):
    u = inst.u
    x_idx = [int(i) for i in x_idx]
    out = []
    for p in range(inst.n):
        truthful = u[x_idx[p], p] - t[p]
        for q in range(inst.n):
            if q == p:
                continue
            if direction == "downward" and q > p:
                continue
            if direction == "upward" and q < p:
                continue
            gain = (u[x_idx[q], p] - t[q]) - truthful
            if gain > FEAS_TOL:
                out.append((p, q, float(gain)))
    return out


def loop_onedim_ir(inst, x_idx, t):
    out = []
    for p in range(inst.n):
        payoff = inst.u[int(x_idx[p]), p] - t[p]
        if payoff < -FEAS_TOL:
            out.append((p, float(payoff)))
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _bits(value):
    """Exact bytes of a float, a float sequence or an array: signed zeros count."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return np.asarray(value, dtype=float).tobytes()


def _grid_instance(seed, dim, levels=(0.0, 0.5, 1.0), n_a=3, max_support=7):
    """Tables on a coarse grid, so exact payoff ties are common.

    In dim 2 the costly points include (0, 1) and (1, 0), which the
    componentwise order cannot compare; the joint support mixes productive
    and costly types freely, so full types are often incomparable too.
    """
    rng = instance_rng(seed, stream=950 + dim)
    n_x, n_y = 3, 3
    theta_b = ([[0.0], [0.5], [1.0]] if dim == 1
               else [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    n_b = len(theta_b)
    prod = ProductiveSpec(np.arange(1.0, n_a + 1), np.arange(float(n_x)),
                          rng.choice(levels, (n_x, n_a)),
                          rng.choice(levels, (n_x, n_a)) - 0.5)
    u_b = rng.choice(levels, (n_y, n_b))
    v_b = -rng.choice(levels, (n_y, n_b))
    u_b[0] = v_b[0] = 0.0
    cost = CostlySpec(np.array(theta_b), np.arange(float(n_y)), 0, u_b, v_b)
    pairs = [(a, b) for a in range(n_a) for b in range(n_b)]
    size = int(rng.integers(3, min(max_support, len(pairs)) + 1))
    keep = sorted(rng.choice(len(pairs), size=size, replace=False))
    support = tuple(pairs[k] for k in keep)
    prob = rng.uniform(0.2, 1.0, len(support))
    return ScreeningInstance(prod, cost, JointDistribution(support, prob / prob.sum()))


def _instances():
    out = []
    for seed in range(12):
        out.append(_grid_instance(seed, dim=1 + seed % 2))
        knobs = GeneratorKnobs() if seed % 2 else GeneratorKnobs(n_a=3, n_b=3, dim=2)
        out.append(random_positive_instance(seed, knobs, stream=952))
        out.append(random_negative_instance(seed))
    # more than eight points: a pairwise (not sequential) sum would round differently
    out += [_grid_instance(seed, dim=2, n_a=5, max_support=20) for seed in range(4)]
    return out


INSTANCES = _instances()

#: transfers near the grid: exact ties, ties inside FEAS_TOL, and just outside it
JITTER = (0.0, 0.0, 0.0, 4e-10, -4e-10, 3e-9, -3e-9)


def _tie_menu(inst, rng, k):
    n_x, n_y = inst.productive.n_alloc, inst.costly.n_alloc
    options = set()
    while len(options) < k:
        t = float(rng.choice((-0.5, 0.0, 0.5, 1.0))) + float(rng.choice(JITTER))
        options.add((int(rng.integers(n_x)), int(rng.integers(n_y)), t))
    return Menu(tuple(sorted(options)))


def _mechanism(inst, rng):
    m = inst.n_support
    t = rng.choice((-0.5, 0.0, 0.5), m) + rng.choice(JITTER, m)
    return Mechanism(rng.integers(inst.productive.n_alloc, size=m),
                     rng.integers(inst.costly.n_alloc, size=m), t)


# ---------------------------------------------------------------------------
# menus and best responses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_menu_best_response_matches_loop_on_tie_heavy_menus(index):
    inst = INSTANCES[index]
    rng = instance_rng(index, stream=960)
    for k in (0, 1, 2, 3, 3, 4, 5, 6):
        menu = _tie_menu(inst, rng, k)
        got = menu_best_response(inst, menu)
        want = loop_menu_best_response(inst, menu)
        assert got[0] == want[0], menu
        assert _bits(got[1]) == _bits(want[1]), menu


def test_tie_menus_reach_every_tie_rule():
    # the tie-heavy menus above hit each rule; count where the rules decide
    seen = {"agent_tie": 0, "principal_tie": 0, "outside_tie": 0}
    for index, inst in enumerate(INSTANCES[:12]):
        rng = instance_rng(index, stream=960)
        for k in (0, 1, 2, 3, 3, 4, 5, 6):
            menu = _tie_menu(inst, rng, k)
            x, y, t = np.array(menu.options, dtype=float).reshape(-1, 3).T
            agent, principal = inst.payoffs(x, y, t)
            agent = np.concatenate((agent, np.zeros((inst.n_support, 1))), axis=1)
            principal = np.concatenate((principal, np.zeros((inst.n_support, 1))), axis=1)
            for a, p in zip(agent, principal):
                near = np.flatnonzero(a >= a.max() - FEAS_TOL)
                if near.size > 1:
                    seen["agent_tie"] += 1
                    top = p[near] >= p[near].max() - FEAS_TOL
                    seen["principal_tie"] += int(top.sum() > 1)
                    seen["outside_tie"] += int(near[-1] == a.size - 1)
    assert all(count > 0 for count in seen.values()), seen


def test_menu_value_of_negative_zero_payoffs_is_positive_zero():
    # v_a = v_b = t = -0.0: each chosen principal payoff is -0.0, but the
    # loop adds them to 0.0, so the value is +0.0
    prod = ProductiveSpec(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                          np.array([[0.0, 0.0], [1.0, 1.0]]), np.full((2, 2), -0.0))
    cost = CostlySpec(np.array([[0.0]]), np.array([0.0]), 0,
                      np.zeros((1, 1)), np.full((1, 1), -0.0))
    inst = ScreeningInstance(prod, cost, JointDistribution(((0, 0), (1, 0)), (0.5, 0.5)))
    menu = Menu(((1, 0, -0.0),))
    got, want = menu_best_response(inst, menu), loop_menu_best_response(inst, menu)
    assert got[0] == want[0] == [0, 0]
    assert _bits(got[1]) == _bits(want[1]) == _bits(0.0)


def test_menu_value_adds_points_in_order():
    # nine points, where numpy's pairwise sum rounds differently from the loop
    pay = np.array([1.0] + [1.5e-16] * 8)
    prob = np.ones(9)
    loop = 0.0
    for w, v in zip(prob, pay):
        loop += float(w) * float(v)
    assert _bits(float((prob * pay).sum())) != _bits(loop)
    agent = np.ones((9, 1))
    _, value = best_response(agent, pay[:, None], prob)
    assert _bits(float(value)) == _bits(loop)


def test_empty_menu_sends_everyone_outside():
    inst = example3_instance()
    assert menu_best_response(inst, Menu(())) == ([OUTSIDE] * inst.n_support, 0.0)
    assert menu_best_response(inst, ()) == loop_menu_best_response(inst, ())


def test_best_response_prices_a_batch_like_its_rows():
    # a leading batch axis on u_b and t, as the converse uses for its epsilons
    inst = INSTANCES[0]
    menu = _tie_menu(inst, instance_rng(0, stream=961), 3)
    x, y, t = zip(*menu.options)
    batch = np.array(t) + np.array([0.0, 4e-10, -0.5, 0.5, 1.0])[:, None]
    p, c = inst.productive, inst.costly
    u_b = np.broadcast_to(c.u_b, (len(batch),) + c.u_b.shape)
    agent, principal = payoff_tables((p.u_a, p.v_a, u_b, c.v_b),
                                     inst.dist.support, x, y, batch)
    choice, value = best_response(agent, principal, inst.dist.prob)
    for k, row in enumerate(batch):
        want = loop_menu_best_response(inst, Menu(tuple(zip(x, y, row))))
        assert choice[k].tolist() == want[0]
        assert _bits(float(value[k])) == _bits(want[1])


# ---------------------------------------------------------------------------
# incentive checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("direction", ["downward", "upward", "all"])
@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_check_ic_matches_loop(index, direction):
    inst = INSTANCES[index]
    rng = instance_rng(index, stream=962)
    for _ in range(6):
        mech = _mechanism(inst, rng)
        got = check_ic(inst, mech, direction)
        want = loop_check_ic(inst, mech, direction)
        assert [tuple(v[:2]) for v in got] == [tuple(v[:2]) for v in want]
        assert _bits([v.gain for v in got]) == _bits([v.gain for v in want])
        assert [(v.point, v.payoff) for v in check_ir(inst, mech)] == \
            loop_check_ir(inst, mech)


def test_incomparable_types_only_count_in_all():
    inst = _grid_instance(1, dim=2)
    ia, ib = np.array(inst.dist.support).T
    types = np.column_stack((inst.productive.theta_a[ia], inst.costly.theta_b[ib]))
    leq = (types[:, None] <= types[None]).all(-1)
    assert (~(leq | leq.T)).any()  # some pair cannot be compared
    rng = instance_rng(1, stream=962)
    for _ in range(20):
        mech = _mechanism(inst, rng)
        for v in check_ic(inst, mech, "downward"):
            assert leq[v.target, v.deviator]
        for v in check_ic(inst, mech, "upward"):
            assert leq[v.deviator, v.target]


@pytest.mark.parametrize("direction", ["downward", "upward", "all"])
@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_onedim_checks_match_loop(index, direction):
    line = productive_marginal(INSTANCES[index])
    rng = instance_rng(index, stream=963)
    for _ in range(6):
        x = rng.integers(line.n_alloc, size=line.n)
        t = list(rng.choice((-0.5, 0.0, 0.5), line.n) + rng.choice(JITTER, line.n))
        got = onedim_ic_violations(line, x, t, direction)
        want = loop_onedim_ic(line, x, t, direction)
        assert [tuple(v[:2]) for v in got] == [tuple(v[:2]) for v in want]
        assert _bits([v[2] for v in got]) == _bits([v[2] for v in want])
        assert [tuple(v) for v in onedim_ir_violations(line, x, t)] == \
            loop_onedim_ir(line, x, t)


def test_unknown_direction_still_raises():
    inst = INSTANCES[0]
    mech = _mechanism(inst, instance_rng(0, stream=964))
    with pytest.raises(ValueError):
        check_ic(inst, mech, "sideways")
    with pytest.raises(ValueError):
        onedim_ic_violations(productive_marginal(inst), [0] * 3, [0.0] * 3, "sideways")
    with pytest.raises(StructuralError):
        check_ic(inst, Mechanism((0,), (0,), (0.0,)), "all")


def test_ic_gains_reads_rows_then_columns():
    agent = np.array([[0.0, 1.0, -1.0], [2.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
    allowed = np.ones((3, 3), dtype=bool)
    assert ic_gains(agent, allowed) == [(0, 1, 1.0), (1, 0, 1.5)]
    allowed[1, 0] = False
    assert ic_gains(agent, allowed) == [(0, 1, 1.0)]
    # a gain of exactly FEAS_TOL is not a violation
    assert ic_gains(np.array([[0.0, FEAS_TOL], [0.0, 0.0]]), allowed[:2, :2]) == []


# ---------------------------------------------------------------------------
# converse: every epsilon priced at once
# ---------------------------------------------------------------------------


def _assert_same_artifacts(art, want):
    inst, built = art.instance, want["instance"]
    for got_tab, want_tab in (
            (inst.productive.u_a, built.productive.u_a),
            (inst.productive.v_a, built.productive.v_a),
            (inst.costly.u_b, built.costly.u_b),
            (inst.costly.v_b, built.costly.v_b)):
        assert got_tab.shape == want_tab.shape
        assert _bits(got_tab) == _bits(want_tab)
    assert inst.dist is built.dist
    assert art.menu.options == want["menu"].options
    assert _bits([o[2] for o in art.menu.options]) == \
        _bits([o[2] for o in want["menu"].options])
    for name in ("m0", "m1", "eps_star", "r_val", "q_val", "menu_value",
                 "productive_value"):
        assert _bits(getattr(art, name)) == _bits(want[name]), name
    for name in ("f_values", "g_values"):
        assert _bits(getattr(art, name)) == _bits(want[name]), name


def test_converse_matches_per_epsilon_loop_on_example3():
    inst = example3_instance()
    _assert_same_artifacts(converse_construct(inst), loop_converse(inst))


def test_converse_matches_per_epsilon_loop_on_criterion_10_seeds():
    for seed in range(100):
        inst = random_negative_instance(seed)
        _assert_same_artifacts(converse_construct(inst, coord=0),
                               loop_converse(inst, coord=0))


def test_converse_still_rejects_bad_inputs():
    with pytest.raises(PreconditionFailed):
        converse_construct(random_positive_instance(0, GeneratorKnobs(n_a=2)))
