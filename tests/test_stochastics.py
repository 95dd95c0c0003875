import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screenkit
import screenkit.stochastics as stochastics
from screenkit import (MASS_TOL, DiscreteDistribution, GeneratorKnobs,
                       JointDistribution, NotDominated, NotMonotone,
                       ScreeningInstance, check_dominance,
                       check_stochastic_monotonicity, example2_instance,
                       example3_instance, instance_rng, level_couplings,
                       path_decomposition, random_negative_instance,
                       random_positive_instance, save_instance,
                       strassen_coupling)

from helpers import dominance_by_upper_sets


def dist1(pairs):
    pts, w = zip(*pairs)
    return DiscreteDistribution(np.array(pts, dtype=float).reshape(len(pts), -1),
                                np.array(w))


def test_scalar_dominance_via_cdfs():
    low = dist1([((0.0,), 0.5), ((1.0,), 0.5)])
    high = dist1([((0.0,), 0.25), ((1.0,), 0.75)])
    assert check_dominance(low, high)
    assert not check_dominance(high, low)
    assert check_dominance(low, low)


def test_multivariate_dominance_needs_coupling_not_just_marginals():
    # identical marginals on each axis, yet neither law dominates: the upper
    # set missing only the origin separates the anti-diagonal from the
    # diagonal, so coordinatewise CDF comparisons would get this wrong
    diag = dist1([((0.0, 0.0), 0.5), ((1.0, 1.0), 0.5)])
    anti = dist1([((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)])
    assert not check_dominance(anti, diag)
    assert not check_dominance(diag, anti)


GRIDS = {1: [(float(a),) for a in range(6)],
         2: [(float(a), float(b)) for a in range(3) for b in range(3)]}


def _random_grid_dist(rng, max_pts=4, dim=2):
    grid = GRIDS[dim]
    k = int(rng.integers(1, max_pts + 1))
    idx = rng.choice(len(grid), size=k, replace=False)
    w = rng.uniform(0.2, 1.0, k)
    return dist1([(grid[i], wi / w.sum()) for i, wi in zip(idx, w)])


# two-dimensional draws go through max-flow, one-dimensional ones through CDFs
@pytest.mark.parametrize("dim, seed",
                         [pytest.param(2, s, id=str(s)) for s in range(40)]
                         + [pytest.param(1, s, id=f"1d-{s}") for s in range(40)])
def test_flow_and_upper_set_routes_agree(dim, seed):
    rng = instance_rng(seed, stream=101)
    p = _random_grid_dist(rng, dim=dim)
    q = _random_grid_dist(rng, dim=dim)
    assert check_dominance(p, q) == dominance_by_upper_sets(p, q)
    assert check_dominance(q, p) == dominance_by_upper_sets(q, p)


@pytest.mark.parametrize("seed", range(25))
def test_strassen_coupling_marginals_and_monotonicity(seed):
    rng = instance_rng(seed, stream=102)
    p = _random_grid_dist(rng)
    # build q above p by pushing mass upward, so dominance holds
    shift = rng.integers(0, 2, p.points.shape)
    q_pts = np.minimum(p.points + shift, 2.0)
    agg = {}
    for row, w in zip(q_pts, p.prob):
        agg[tuple(row)] = agg.get(tuple(row), 0.0) + float(w)
    q = dist1(sorted(agg.items()))
    coupling = strassen_coupling(p, q)
    assert coupling.marginal_error() <= 1e-9
    for pi, qi in zip(*np.nonzero(coupling.mass > 1e-15)):
        assert (p.points[pi] <= q.points[qi] + 1e-12).all()


def test_strassen_raises_when_not_dominated():
    p = dist1([((1.0, 1.0), 1.0)])
    q = dist1([((0.0, 0.0), 1.0)])
    with pytest.raises(NotDominated):
        strassen_coupling(p, q)


# ---------------------------------------------------------------------------
# the in-repo max-flow
# ---------------------------------------------------------------------------

SCALE = stochastics._FLOW_SCALE


def _law(points, probs):
    return DiscreteDistribution(np.array(points, dtype=float), np.array(probs))


def _flow(p, q, flow=stochastics._flow_between):
    """`flow` from the law p into the law q, called on their arrays."""
    return flow(p.points, p.prob, q.points, q.prob)


# case: (p, q, flow value in integer units)
FLOW_CASES = {
    "one_point_ordered": (_law([[0, 0]], [1.0]), _law([[1, 0]], [1.0]), SCALE),
    "one_point_unordered": (_law([[1, 0]], [1.0]), _law([[0, 1]], [1.0]), 0),
    "equal": (_law([[0, 1], [1, 0], [1, 1]], [0.2, 0.3, 0.5]),
              _law([[0, 1], [1, 0], [1, 1]], [0.2, 0.3, 0.5]), SCALE),
    "no_admissible_pair": (_law([[1, 1], [2, 2]], [0.5, 0.5]),
                           _law([[0, 0], [0, 1]], [0.5, 0.5]), 0),
    # the diagonal half at (1, 1) sits below no point of the anti-diagonal
    "unordered": (_law([[0, 0], [1, 1]], [0.5, 0.5]),
                  _law([[0, 1], [1, 0]], [0.5, 0.5]), SCALE // 2),
    # 4e-10 of mass at (2, 2) has nowhere to go: short by 400 units
    "short_within_slack": (_law([[0, 0], [2, 2]], [1 - 4e-10, 4e-10]),
                           _law([[1, 1]], [1.0]), SCALE - 400),
    "short_beyond_slack": (_law([[0, 0], [2, 2]], [1 - 2e-9, 2e-9]),
                           _law([[1, 1]], [1.0]), SCALE - 2000),
}


def assert_units_feasible(p, q, value, units):
    adm = stochastics._admissible(p.points, q.points)
    assert units.shape == adm.shape
    assert units.min() >= 0
    assert not units[~adm].any()
    assert int(units.sum()) == value
    assert (units.sum(axis=1) <= stochastics._integer_weights(p.prob)).all()
    assert (units.sum(axis=0) <= stochastics._integer_weights(q.prob)).all()


@pytest.mark.parametrize("case", sorted(FLOW_CASES))
def test_flow_edge_cases(case):
    p, q, want = FLOW_CASES[case]
    value, units = _flow(p, q)
    assert value == want
    assert_units_feasible(p, q, value, units)
    ordered = SCALE - want <= stochastics._FLOW_SLACK
    assert check_dominance(p, q) == ordered
    if ordered:
        assert strassen_coupling(p, q).marginal_error() <= MASS_TOL
    else:
        with pytest.raises(NotDominated):
            strassen_coupling(p, q)


def networkx_flow_value(p, q):
    """The max-flow value of the admissibility graph, by networkx."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    for i, w in enumerate(stochastics._integer_weights(p.prob)):
        g.add_edge("s", ("p", i), capacity=w)
    for j, w in enumerate(stochastics._integer_weights(q.prob)):
        g.add_edge(("q", j), "t", capacity=w)
    for i, j in zip(*np.nonzero(stochastics._admissible(p.points, q.points))):
        g.add_edge(("p", i), ("q", j), capacity=SCALE)
    return nx.maximum_flow_value(g, "s", "t")


@pytest.mark.parametrize("seed", range(200))
def test_flow_matches_networkx(seed):
    rng = instance_rng(seed, stream=105)
    p = _random_grid_dist(rng, max_pts=7)
    q = _random_grid_dist(rng, max_pts=7)
    value, units = _flow(p, q)
    assert_units_feasible(p, q, value, units)
    assert value == networkx_flow_value(p, q)


def point_mass_pairs():
    """(p, q) with a point mass on one side or both, over 1-D and 2-D grids,
    some of the other side's points admissible and some not."""
    for seed in range(120):
        rng = instance_rng(seed, stream=106)
        dim = 1 + seed % 2
        one = _random_grid_dist(rng, max_pts=1, dim=dim)
        other = _random_grid_dist(rng, max_pts=1 if seed % 5 == 0 else 5,
                                  dim=dim)
        yield (one, other) if seed % 3 else (other, one)


POINT_MASS_PAIRS = list(point_mass_pairs())


def test_point_mass_pairs_cover_every_admissibility():
    kinds = set()
    for p, q in POINT_MASS_PAIRS:
        adm = stochastics._admissible(p.points, q.points)
        kinds.add((len(p) == 1, len(q) == 1, int(adm.any()) + int(adm.all())))
    for sides in ((True, False), (False, True)):
        for seen in range(3):  # no pair admissible, some, every one
            assert sides + (seen,) in kinds
    assert (True, True, 0) in kinds and (True, True, 2) in kinds


@pytest.mark.parametrize("index", range(len(POINT_MASS_PAIRS)))
def test_point_mass_flow_matches_augmenting_paths(index):
    p, q = POINT_MASS_PAIRS[index]
    value, units = _flow(p, q)
    want_value, want_units = _flow(p, q, stochastics._augmenting_flow)
    assert type(value) is int and value == want_value
    assert units.dtype == want_units.dtype and units.shape == want_units.shape
    assert units.tobytes() == want_units.tobytes()
    assert value == networkx_flow_value(p, q)


def test_stochastic_monotonicity_verdicts():
    ok, _ = check_stochastic_monotonicity(example2_instance())
    assert ok
    ok, witness = check_stochastic_monotonicity(example3_instance())
    assert not ok
    assert witness is not None


def reverse_levels(inst):
    """The same joint law with the productive levels in reverse order."""
    top = inst.productive.n_types - 1
    support = sorted(((top - ia, ib), pr)
                     for (ia, ib), pr in zip(inst.dist.support, inst.dist.prob))
    pairs, prob = zip(*support)
    return ScreeningInstance(inst.productive, inst.costly,
                             JointDistribution(pairs, np.array(prob)))


def first_unordered_levels(inst):
    """Productive values of the first adjacent level pair whose conditional
    costly laws are not ordered, by upper-set enumeration pair by pair."""
    by_level = {}
    for (ia, ib), pr in zip(inst.dist.support, inst.dist.prob):
        by_level.setdefault(ia, []).append((ib, pr))
    laws = []
    for ia in sorted(by_level):
        ib, w = zip(*by_level[ia])
        w = np.array(w)
        laws.append((ia, DiscreteDistribution(inst.costly.theta_b[list(ib)],
                                              w / w.sum())))
    theta = inst.productive.theta_a
    for (ia, lo), (ja, hi) in zip(laws, laws[1:]):
        if not dominance_by_upper_sets(lo, hi):
            return float(theta[ia]), float(theta[ja])
    return None


def monotonicity_cases():
    for seed in range(12):
        for dim in (1, 2):
            knobs = GeneratorKnobs(n_a=2 + seed % 3, n_b=2 + seed % 3, dim=dim,
                                   max_paths=1 + seed % 3)
            inst = random_positive_instance(seed, knobs, stream=104)
            yield f"positive{dim}d-{seed}", inst
            yield f"reversed{dim}d-{seed}", reverse_levels(inst)
        yield f"negative-{seed}", random_negative_instance(seed)


MONOTONICITY_CASES = dict(monotonicity_cases())


@pytest.mark.parametrize("case", sorted(MONOTONICITY_CASES))
def test_monotonicity_matches_pairwise_oracle(case):
    inst = MONOTONICITY_CASES[case]
    witness = first_unordered_levels(inst)
    assert check_stochastic_monotonicity(inst) == (witness is None, witness)


def test_generated_cases_hold_both_verdicts():
    verdicts = {(case.split("-")[0], first_unordered_levels(inst) is None)
                for case, inst in MONOTONICITY_CASES.items()}
    for kind in ("reversed1d", "reversed2d"):
        assert (kind, False) in verdicts and (kind, True) in verdicts
    assert ("negative", False) in verdicts


@pytest.mark.parametrize("case", ["example3", "reversed2d"])
def test_path_decomposition_names_failing_level_pair(case):
    if case == "example3":
        inst = example3_instance()
    else:
        knobs = GeneratorKnobs(n_a=4, n_b=3, dim=2)
        inst = reverse_levels(random_positive_instance(3, knobs, stream=104))
    witness = first_unordered_levels(inst)
    assert witness is not None
    with pytest.raises(NotMonotone) as exc:
        path_decomposition(inst)
    assert str(exc.value) == (f"costly type not stochastically monotone at "
                              f"levels {witness}")


@pytest.mark.parametrize("seed", range(4))
def test_path_decomposition_runs_one_flow_per_level_pair(seed, monkeypatch):
    import screenkit.stochastics as stochastics
    calls = []
    flow = stochastics._flow_between

    def counted(p_points, p_prob, q_points, q_prob):
        calls.append(1)
        return flow(p_points, p_prob, q_points, q_prob)

    monkeypatch.setattr(stochastics, "_flow_between", counted)
    knobs = GeneratorKnobs(n_a=3 + seed, n_b=3, dim=2)
    mixture = path_decomposition(random_positive_instance(seed, knobs))
    assert len(mixture.a_indices) == 3 + seed
    assert len(calls) == len(mixture.a_indices) - 1


@pytest.mark.parametrize("case", sorted(MONOTONICITY_CASES))
def test_level_couplings_keep_marginals_and_order(case):
    inst = MONOTONICITY_CASES[case]
    levels = level_couplings(inst)
    theta = inst.costly.theta_b
    leq = (theta[:, None, :] <= theta[None, :, :]).all(axis=-1)
    unordered = []
    for k, mass in enumerate(levels.couplings):
        assert mass.min() >= 0
        assert np.abs(mass.sum(axis=1) - levels.cond[k]).max() <= MASS_TOL
        assert np.abs(mass.sum(axis=0) - levels.cond[k + 1]).max() <= MASS_TOL
        lo, hi = (DiscreteDistribution(theta[row > 0], row[row > 0])
                  for row in levels.cond[k:k + 2])
        if dominance_by_upper_sets(lo, hi):
            assert mass[~leq].sum() <= MASS_TOL  # monotone
        else:
            unordered.append(k)
    assert levels.first_unordered == (unordered[0] if unordered else None)


@pytest.mark.parametrize("command", [["verify"], ["solve", "--strict"]])
@pytest.mark.parametrize("dim", [1, 2])
def test_validation_and_joint_share_one_flow_per_level_pair(dim, command,
                                                            monkeypatch, tmp_path):
    # validation and the joint solver read one level_couplings pass: L - 1
    # flows in dim 2, and none for a scalar costly type
    import screenkit.stochastics as stochastics
    from screenkit.cli import main
    calls = []
    flow = stochastics._flow_between

    def counted(p_points, p_prob, q_points, q_prob):
        calls.append(1)
        return flow(p_points, p_prob, q_points, q_prob)

    monkeypatch.setattr(stochastics, "_flow_between", counted)
    knobs = GeneratorKnobs(n_a=5, n_b=3, n_x=2, n_y=2, dim=dim, max_paths=1)
    inst = random_positive_instance(4, knobs)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    argv = command + ["--instance", str(path), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    n_levels = len({ia for ia, _ in inst.dist.support})
    assert len(calls) == (n_levels - 1 if dim == 2 else 0)
    assert n_levels > 2


def test_level_couplings_build_no_level_laws(monkeypatch):
    # the dim-2 flows read each level's points and weights as plain arrays:
    # no per-level DiscreteDistribution is built and validated
    built = []
    monkeypatch.setattr(DiscreteDistribution, "__post_init__",
                        lambda self: built.append(1))
    knobs = GeneratorKnobs(n_a=4, n_b=3, n_x=2, n_y=2, dim=2, max_paths=3)
    levels = level_couplings(random_positive_instance(2, knobs))
    assert len(levels.couplings) == 3
    assert built == []


@pytest.mark.parametrize("seed", [74, 179])
def test_path_decomposition_drops_mass_a_short_flow_strands(seed):
    # two adjacent level laws put equal mass on one point, but their integer
    # weights round one unit apart, so a flow falls a unit short and one
    # peeled chain stops early; its stranded unit is dropped
    knobs = GeneratorKnobs(n_a=3 + seed % 4, n_b=3 + seed % 3, n_x=3, n_y=2,
                           dim=2, max_paths=1 + seed % 3)
    inst = random_positive_instance(seed, knobs, stream=900)
    mixture = path_decomposition(inst)
    assert 1 - MASS_TOL <= sum(path.weight for path in mixture.paths) < 1


@pytest.mark.parametrize("seed", range(10))
def test_path_decomposition_reproduces_joint(seed):
    inst = random_positive_instance(seed)
    mixture = path_decomposition(inst)
    joint = mixture.joint()
    want = {p: w for p, w in zip(inst.dist.support, inst.dist.prob)}
    assert set(joint) == set(want)
    for key, w in joint.items():
        assert w == pytest.approx(want[key], abs=1e-9)


#: knob sets of the path tests by id prefix, scalar and 2-D costly types
PATH_KNOBS = {
    "": GeneratorKnobs(),
    "dim2-": GeneratorKnobs(dim=2),
    "wide-": GeneratorKnobs(n_a=5, n_b=4, max_paths=3),
    "wide-dim2-": GeneratorKnobs(n_a=5, n_b=4, dim=2, max_paths=3),
}


@pytest.mark.parametrize("seed, knobs", [
    pytest.param(seed, knobs, id=f"{prefix}{seed}")
    for prefix, knobs in PATH_KNOBS.items() for seed in range(10)])
def test_paths_are_monotone(seed, knobs):
    # one routine serves every dimension: each path steps only along pairs
    # its level couplings carry, so it is monotone wherever they are
    inst = random_positive_instance(seed, knobs)
    rows = inst.costly.theta_b
    couplings = level_couplings(inst).couplings
    for path in path_decomposition(inst).paths:
        assert path.weight > 0
        seq = rows[list(path.b_indices)]
        assert (np.diff(seq, axis=0) >= -1e-12).all()
        for k, (lo, hi) in enumerate(zip(path.b_indices, path.b_indices[1:])):
            assert couplings[k][lo, hi] > 0


def test_negative_generator_geometry():
    for seed in range(15):
        inst = random_negative_instance(seed)
        levels = sorted({ia for ia, _ in inst.dist.support})
        w_lo = sum(pr for (ia, _), pr in
                   zip(inst.dist.support, inst.dist.prob) if ia == levels[0])
        assert w_lo == pytest.approx(0.5, abs=1e-12)
        taste = inst.costly.theta_b[:, 0]
        m1 = taste.mean()
        w_taste_lo = sum(pr for (_, ib), pr in
                         zip(inst.dist.support, inst.dist.prob)
                         if taste[ib] < m1)
        assert w_taste_lo == pytest.approx(0.5, abs=1e-12)
        window = sum(pr for (ia, ib), pr in
                     zip(inst.dist.support, inst.dist.prob)
                     if ia == levels[1] and taste[ib] < m1)
        assert window > 0.25


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_dominance_is_reflexive_and_respects_upward_shifts(seed):
    rng = instance_rng(seed, stream=103)
    p = _random_grid_dist(rng)
    assert check_dominance(p, p)
    up = DiscreteDistribution(p.points + 1.0, p.prob)
    assert check_dominance(p, up)
    assert not check_dominance(up, p)


def test_import_leaves_networkx_unloaded(tmp_path):
    # max-flow is in-repo: importing screenkit, a dim-2 `verify` (one flow
    # per level pair) and `bundling --certify` leave networkx unloaded
    inst = random_positive_instance(4, GeneratorKnobs(n_a=4, n_b=3, dim=2))
    save_instance(inst, tmp_path / "inst.json")
    src = str(Path(screenkit.__file__).resolve().parent.parent)
    params = Path(src).parent / "instances" / "bundling_default.json"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import screenkit; "
             "from screenkit.cli import main; "
             "print('networkx' in sys.modules); "
             "assert main(['verify', '--instance', sys.argv[2], '--out', sys.argv[4]]) == 0; "
             "assert main(['bundling', '--certify', '--params', sys.argv[3], "
             "'--out', sys.argv[4]]) == 0; "
             "print('networkx' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe, src, str(tmp_path / "inst.json"),
                           str(params), str(tmp_path / "out.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
