"""Branch-and-bound joint search against the exhaustive enumerator it replaced."""
from dataclasses import replace
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from screenkit import (FEAS_TOL, CostlySpec, GeneratorKnobs,
                       JointDistribution, ProductiveSpec, ScreeningInstance,
                       SizeGuardExceeded, StructuralError,
                       load_instance, productive_marginal,
                       random_negative_instance, random_positive_instance,
                       solve_full_1d, solve_joint, verify_theorem1)
from screenkit import solver
from screenkit.solver import (_batch_transfers, _chain, _iron, _line_min,
                              _option_tables, _pair_direction,
                              _path_rent_bound, _price)

from helpers import THEOREM_KNOBS, unfiltered_joint

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def _decode(ids: np.ndarray, m: int, n_opts: int) -> np.ndarray:
    """The rows (len(ids), m) of the assignments numbered ids, last digit
    fastest."""
    digits = np.empty((ids.size, m), dtype=np.int64)
    rem = ids.copy()
    for p in range(m - 1, -1, -1):
        digits[:, p] = rem % n_opts
        rem //= n_opts
    return digits


def negative_ic_cycle(U, allocs):
    """Rows whose IC constraints close a negative cycle, by Floyd-Warshall.

    Independent of the solver's Bellman-Ford: the edge q -> p weighs
    U_p(a_p) - U_p(a_q), the slack of p's IC against q's option, and a row is
    infeasible when some closed walk weighs less than -1e-12.
    """
    idx = np.arange(allocs.shape[1])
    own = U[idx[None, :], allocs]                                 # U_p(a_p)
    dist = own[:, :, None] - U[idx[None, :, None], allocs[:, None, :]]
    for k in idx:
        dist = np.minimum(dist, dist[:, :, k, None] + dist[:, None, k, :])
    return (np.diagonal(dist, axis1=1, axis2=2) < -1e-12).any(axis=1)


def enumerate_joint(inst, guard=10 ** 7, chunk=1 << 14):
    """Reference: decode every assignment id, prune on the surplus bound only.

    The prune bound is seeded with every baseline-only assignment, not only
    the level-constant monotone ones `solve_joint` starts from. Feasibility
    is decided by `negative_ic_cycle`; the solver's `_batch_transfers` only
    supplies the maximal transfers of the feasible rows.

    Returns (value, x, y, t, some_optimum_baseline, all_optima_baseline,
    number of optima), the value being the float maximum and the mechanism
    the smallest assignment id attaining it.
    """
    prod, cost, dist = inst.productive, inst.costly, inst.dist
    m = inst.n_support
    options = [(ix, iy) for ix in range(prod.n_alloc) for iy in range(cost.n_alloc)]
    A = len(options)
    total = A ** m
    if total > guard:
        raise SizeGuardExceeded("joint enumeration too large", total, guard)
    prob = np.asarray(dist.prob)
    ia = np.array([a for a, _ in dist.support])
    ib = np.array([b for _, b in dist.support])
    opt_x = np.array([o[0] for o in options])
    opt_y = np.array([o[1] for o in options])
    U = prod.u_a[opt_x][:, ia].T + cost.u_b[opt_y][:, ib].T
    VG = prod.v_a[opt_x][:, ia].T + cost.v_b[opt_y][:, ib].T
    surplus = prob[:, None] * (U + VG)
    idx = np.arange(m)

    def evaluate(allocs):
        D, _ = _batch_transfers(U, allocs)
        values = (prob[None, :] * (VG[idx[None, :], allocs] + D)).sum(axis=1)
        values[negative_ic_cycle(U, allocs)] = -np.inf
        return D, values

    y0_opts = np.array([k for k, (_, iy) in enumerate(options) if iy == cost.y0_index])
    best = -np.inf
    base_total = y0_opts.size ** m
    for start in range(0, base_total, chunk):
        ids = np.arange(start, min(start + chunk, base_total), dtype=np.int64)
        _, values = evaluate(y0_opts[_decode(ids, m, y0_opts.size)])
        best = max(best, float(values.max()))

    cand_ids, cand_vals = [], []
    best_id, best_val = None, -np.inf
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        allocs = _decode(ids, m, A)
        keep = surplus[idx[None, :], allocs].sum(axis=1) >= best - FEAS_TOL
        if not keep.any():
            continue
        ids = ids[keep]
        _, values = evaluate(_decode(ids, m, A))
        top = float(values.max())
        if top > best_val:
            best_val = top
            best_id = int(ids[int(np.argmax(values))])
        best = max(best, top)
        near = values >= best - FEAS_TOL
        cand_ids.append(ids[near])
        cand_vals.append(values[near])

    if best_id is None:
        raise StructuralError("joint enumeration found no feasible assignment")
    optima = np.concatenate(cand_ids)[np.concatenate(cand_vals) >= best_val - FEAS_TOL]
    baseline_mask = (opt_y[_decode(optima, m, A)] == cost.y0_index).all(axis=1)
    alloc = _decode(np.array([best_id], dtype=np.int64), m, A)
    D, _ = evaluate(alloc)
    return (best_val, tuple(opt_x[alloc[0]]), tuple(opt_y[alloc[0]]),
            tuple(float(t) for t in D[0]), bool(baseline_mask.any()),
            bool(baseline_mask.all()), int(optima.size))


def _summary(res):
    mech = res.mechanism
    return (res.value, mech.x, mech.y, mech.t, res.some_optimum_baseline,
            res.all_optima_baseline, res.certificate["optima"])


def off_assumption_instance(seed, shifted_baseline, increasing_differences):
    """Five support points and six options, off the theorem's assumptions.

    `shifted_baseline` makes u_b at y0 vary with theta_b; without
    `increasing_differences`, u_a is a random integer table.
    """
    rng = np.random.default_rng(seed)
    n_a, n_b, n_x, n_y = 3, 2, 3, 2
    if increasing_differences:
        u_a = np.outer(np.arange(n_x), 1.0 + np.arange(n_a))
    else:
        u_a = rng.integers(-2, 3, (n_x, n_a)).astype(float)
    v_a = rng.integers(-3, 3, (n_x, n_a)).astype(float)
    u_b = np.vstack([rng.integers(-2, 3, n_b) if shifted_baseline else np.zeros(n_b),
                     rng.integers(-2, 1, n_b)]).astype(float)
    v_b = np.vstack([np.zeros(n_b), rng.integers(-2, 1, n_b)]).astype(float)
    support = [(a, b) for a in range(n_a) for b in range(n_b)][:5]
    prob = rng.uniform(0.5, 1.5, len(support))
    return ScreeningInstance(
        ProductiveSpec(np.arange(n_a, dtype=float), np.arange(n_x, dtype=float),
                       u_a, v_a),
        CostlySpec(np.arange(n_b, dtype=float), np.arange(n_y, dtype=float), 0,
                   u_b, v_b),
        JointDistribution(tuple(support), prob / prob.sum()))


#: (seed, shifted baseline, increasing differences) per off-assumption case;
#: seeds where the baseline does shift and, without increasing differences,
#: the level-constant seed falls below the all-baseline one
OFF_ASSUMPTION = {
    "shifted-baseline-0": (0, True, True),
    "shifted-baseline-3": (3, True, True),
    "decreasing-differences-1": (1, False, False),
    "decreasing-differences-4": (4, False, False),
    "shifted-decreasing-4": (4, True, False),
    "shifted-decreasing-6": (6, True, False),
}


def _cases():
    for name, knobs in OFF_ASSUMPTION.items():
        yield name, lambda k=knobs: off_assumption_instance(*k)
    for k in (1, 2, 3):
        yield f"example{k}", lambda k=k: load_instance(INSTANCE_DIR / f"example{k}.json")
    for seed in range(20):
        yield f"negative-{seed}", lambda s=seed: random_negative_instance(s, stream=7)
    mid = GeneratorKnobs(n_a=4, n_b=3, n_x=3, n_y=2)
    for seed in (*range(8), 21, 25):  # m from 4 to 7; seeds 21 and 25 give 7
        yield f"positive-{seed}", lambda s=seed: random_positive_instance(s, mid, stream=11)
    heavy = GeneratorKnobs(n_a=6, n_b=4, n_x=3, n_y=3, max_paths=1)
    for seed in (0,):
        yield f"heavy-{seed}", lambda s=seed: random_positive_instance(s, heavy, stream=13)


CASES = dict(_cases())

#: CASES plus a grid of off-assumption draws; each has an unordered level
#: pair, where the path-rent bound runs on the product coupling
DIFFERENTIAL = {**CASES, **{
    f"off-{seed}-{'shifted' if shifted else 'fixed'}-"
    f"{'increasing' if incdiff else 'free'}":
        lambda k=(seed, shifted, incdiff): off_assumption_instance(*k)
    for seed in range(30) for shifted in (False, True) for incdiff in (False, True)}}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_branch_and_bound_matches_enumeration(name, monkeypatch):
    inst = DIFFERENTIAL[name]()
    want = enumerate_joint(inst)
    # small blocks split ties and leaves across blocks
    for chunk in (solver._JOINT_CHUNK, 5):
        monkeypatch.setattr(solver, "_JOINT_CHUNK", chunk)
        res = solve_joint(inst)
        assert _summary(res) == want
    cert = res.certificate
    assert cert["method"] == "branch_and_bound"
    assert cert["enumerated"] == (inst.productive.n_alloc
                                  * inst.costly.n_alloc) ** inst.n_support
    # a kept product of one can be the lifted full1d row, priced alone; any
    # larger one goes to the depth-first search
    assert 1 <= cert["kept"] <= cert["enumerated"]
    assert cert["nodes"] > 0 or cert["kept"] == 1


@pytest.mark.parametrize("chunk", [solver._JOINT_CHUNK, 200])
def test_priced_blocks_hold_about_a_chunk_of_cells(chunk, monkeypatch):
    # a priced block's (rows, m, m) tables hold at most max(chunk, m * m)
    # cells, whatever the support size m
    monkeypatch.setattr(solver, "_JOINT_CHUNK", chunk)
    blocks = []
    price = solver._price
    monkeypatch.setattr(solver, "_price", lambda U, VG, prob, allocs: (
        blocks.append(allocs.shape) or price(U, VG, prob, allocs)))
    for name in sorted(DIFFERENTIAL):
        solve_joint(DIFFERENTIAL[name]())
    assert max(rows for rows, _ in blocks) > 1
    assert all(rows * m * m <= max(chunk, m * m) for rows, m in blocks)


def _filter_cases():
    yield from CASES.items()
    for k, knobs in enumerate(THEOREM_KNOBS):
        for seed in range(12):
            yield (f"knobs{k}-{seed}", lambda k=knobs, s=seed:
                   random_positive_instance(s, k, stream=510))
    for seed in range(6):
        yield (f"pooled-{seed}", lambda s=seed: random_positive_instance(
            s, GeneratorKnobs(n_a=6, n_b=4, n_x=3, n_y=3, max_paths=1), stream=13))
    for name in ("negative-8", "negative-11", "positive-2", "shifted-baseline-3",
                 "example2", "heavy-0"):
        for c in (1e-3, 1e3):
            yield f"{name}-x{c:g}", lambda n=name, c=c: _scaled(CASES[n](), c)


#: CASES, acceptance-knob draws, draws whose full1d optimum pools levels,
#: and tables scaled by 1e-3 and 1e3
FILTERED = dict(_filter_cases())


@pytest.mark.parametrize("name", sorted(FILTERED))
def test_root_filter_matches_the_unfiltered_search(name, monkeypatch):
    # the ironed bound and the root filter classify the optimal set
    # exactly as the search over every option did
    inst = FILTERED[name]()
    want = unfiltered_joint(inst)
    for chunk in (solver._JOINT_CHUNK, 5):
        monkeypatch.setattr(solver, "_JOINT_CHUNK", chunk)
        got = solve_joint(inst)
        assert _summary(got) == want
    if got.certificate["enumerated"] <= 50_000:
        assert enumerate_joint(inst) == want


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_leaf_pricing_flags_exactly_the_negative_ic_cycles(name):
    # the differential test above sees an infeasible row only when it would
    # price above the optimum; here every sampled row is classified
    inst = DIFFERENTIAL[name]()
    _, _, U, _ = _option_tables(inst)
    m, A = U.shape
    rng = np.random.default_rng(sorted(DIFFERENTIAL).index(name))
    allocs = rng.integers(0, A, (2048, m))
    D, infeasible = _batch_transfers(U, allocs)
    assert (infeasible == negative_ic_cycle(U, allocs)).all()
    # feasible rows get transfers within every participation and IC cap
    idx = np.arange(m)
    own = U[idx[None, :], allocs]
    slack = own[:, :, None] - U[idx[None, :, None], allocs[:, None, :]]
    ok = ~infeasible
    assert (D[ok] <= own[ok] + FEAS_TOL).all()
    assert (D[ok][:, :, None] <= D[ok][:, None, :] + slack[ok] + FEAS_TOL).all()
    assert infeasible.any() and ok.any()  # the sample holds both kinds


def _permuted(inst, order):
    dist = inst.dist
    return ScreeningInstance(inst.productive, inst.costly, JointDistribution(
        tuple(dist.support[i] for i in order),
        np.asarray(dist.prob)[list(order)]))


@pytest.mark.parametrize("name", ["example2", "example3", "negative-0",
                                  "negative-1", "positive-1", "positive-4",
                                  "heavy-0"])
def test_support_permutation_leaves_joint_result(name):
    inst = CASES[name]()
    want = solve_joint(inst)
    rng = np.random.default_rng(5)
    for _ in range(2):
        order = rng.permutation(inst.n_support)
        got = solve_joint(_permuted(inst, order))
        assert got.value == pytest.approx(want.value, abs=1e-9)
        assert got.some_optimum_baseline == want.some_optimum_baseline
        assert got.all_optima_baseline == want.all_optima_baseline


def baseline_seeds(inst):
    """Best value over all baseline-only assignments, and over those that are
    constant on each productive level and nondecreasing in it."""
    prod, cost, dist = inst.productive, inst.costly, inst.dist
    m = inst.n_support
    ia = np.array([a for a, _ in dist.support])
    ib = np.array([b for _, b in dist.support])
    opt_x = np.repeat(np.arange(prod.n_alloc), cost.n_alloc)
    opt_y = np.tile(np.arange(cost.n_alloc), prod.n_alloc)
    U = prod.u_a[opt_x][:, ia].T + cost.u_b[opt_y][:, ib].T
    VG = prod.v_a[opt_x][:, ia].T + cost.v_b[opt_y][:, ib].T
    prob = np.asarray(dist.prob)

    def best(x):
        return _price(U, VG, prob, x * cost.n_alloc + cost.y0_index)[0].max()

    every = _decode(np.arange(prod.n_alloc ** m), m, prod.n_alloc)
    levels, level_of = np.unique(ia, return_inverse=True)
    menus = np.array(list(combinations_with_replacement(range(prod.n_alloc),
                                                        levels.size)))
    return best(every), best(menus[:, level_of])


@pytest.mark.parametrize("name", sorted(OFF_ASSUMPTION))
def test_off_assumption_cases_keep_their_seed_gap(name):
    # with increasing differences the level-constant seed loses nothing, a
    # shifted baseline notwithstanding; without them it is strictly lower,
    # so the differential test above runs the search from a weaker bound
    inst = CASES[name]()
    every, monotone = baseline_seeds(inst)
    assert monotone <= every
    if OFF_ASSUMPTION[name][2]:
        assert monotone == every
    else:
        assert monotone < every - FEAS_TOL
    if OFF_ASSUMPTION[name][1]:
        assert np.ptp(inst.costly.u_b[inst.costly.y0_index]) > 0


def _relabelled(inst, order):
    cost = inst.costly
    order = np.asarray(order)
    y0 = int(np.flatnonzero(order == cost.y0_index)[0])
    return ScreeningInstance(inst.productive, CostlySpec(
        cost.theta_b, cost.y_set[order], y0, cost.u_b[order], cost.v_b[order]),
        inst.dist)


@pytest.mark.parametrize("name", ["example2", "example3",  # example1: one instrument
                                  "negative-0", "negative-1", "negative-2",
                                  "positive-1", "positive-4", "heavy-0",
                                  "shifted-baseline-0",
                                  "decreasing-differences-1"])
def test_instrument_relabelling_leaves_joint_result(name):
    inst = CASES[name]()
    want = solve_joint(inst)
    n_y = inst.costly.n_alloc
    assert n_y > 1
    rng = np.random.default_rng(9)
    # the roll moves y0 to the next index; the mechanism may change with the
    # option order, the optimal set's size and kind may not
    for order in (np.roll(np.arange(n_y), 1), *(rng.permutation(n_y) for _ in range(2))):
        got = solve_joint(_relabelled(inst, order))
        assert got.value == pytest.approx(want.value, abs=1e-9)
        assert got.some_optimum_baseline == want.some_optimum_baseline
        assert got.all_optima_baseline == want.all_optima_baseline
        assert got.certificate["optima"] == want.certificate["optima"]


# ---------------------------------------------------------------------------
# the path-rent bound
# ---------------------------------------------------------------------------


def _every_assignment(inst):
    """Option tables, every assignment of a small space, and its priced value."""
    _, _, U, VG = _option_tables(inst)
    m, A = U.shape
    allocs = _decode(np.arange(A ** m), m, A)
    values, _ = _price(U, VG, np.asarray(inst.dist.prob), allocs)
    return U, VG, allocs, values


def _product_couplings(levels):
    return replace(levels, couplings=tuple(
        np.outer(lo, hi) for lo, hi in zip(levels.cond, levels.cond[1:])))


#: CASES whose whole assignment space is small enough to price
SMALL_CASES = sorted(OFF_ASSUMPTION) + [
    "example1", "example2", "example3", "negative-0", "negative-1",
    "negative-5", "negative-11", "positive-1", "positive-4"]


@pytest.mark.parametrize("coupling", ["level", "product"])
@pytest.mark.parametrize("name", SMALL_CASES)
def test_path_rent_bound_caps_every_feasible_assignment(name, coupling):
    # the chain of IC constraints along any coupling bounds the value of
    # every implementable assignment; level_couplings gives the monotone
    # coupling where the levels are ordered
    inst = CASES[name]()
    levels = inst.level_couplings
    if coupling == "product":
        levels = _product_couplings(levels)
    U, VG, allocs, values = _every_assignment(inst)
    g, lift = _path_rent_bound(inst, levels, _chain(inst, levels), U, VG)
    bound = g[np.arange(inst.n_support), allocs].sum(axis=1)
    feasible = values > -np.inf
    assert feasible.any()
    assert lift <= FEAS_TOL
    assert (bound[feasible] >= values[feasible] - FEAS_TOL).all()


@pytest.mark.parametrize("coupling", ["level", "product"])
@pytest.mark.parametrize("name", SMALL_CASES)
def test_ironed_bound_caps_every_feasible_assignment(name, coupling):
    # upward multipliers on any level pairs, of any size, keep the bound:
    # each pair's downward and upward IC chains cancel in the rents
    inst = CASES[name]()
    levels = inst.level_couplings
    if coupling == "product":
        levels = _product_couplings(levels)
    U, VG, allocs, values = _every_assignment(inst)
    chain = lv, _ = _chain(inst, levels)
    g, lift = _path_rent_bound(inst, levels, chain, U, VG)
    pairs = list(range(lv.max()))
    steps = [_pair_direction(U, chain, j) for j in pairs]
    feasible = values > -np.inf
    rows = np.arange(inst.n_support)
    rng = np.random.default_rng(SMALL_CASES.index(name))
    for scale in (0.1, 1.0, 100.0):
        mu = scale * rng.exponential(size=lv.max() + 1) * rng.integers(0, 2, lv.max() + 1)
        ironed = g.copy()
        for j, (pair_rows, h) in zip(pairs, steps):
            ironed[pair_rows] += mu[j] * h
        bound = ironed[rows, allocs].sum(axis=1) + lift
        assert (bound[feasible] >= values[feasible] - FEAS_TOL).all()
    # and so does the search's own choice, aimed at the best feasible value
    ironed = _iron(g, U, chain, pairs, values.max() - lift)
    bound = ironed[rows, allocs].sum(axis=1) + lift
    assert (bound[feasible] >= values[feasible] - FEAS_TOL).all()


@pytest.mark.parametrize("name", ["example2", "negative-1", "positive-1"])
def test_lift_covers_couplings_with_wrong_marginals(name):
    # too much coupled mass makes some point pay out more rent weight than it
    # holds; the lift prices that and keeps the bound sound
    inst = CASES[name]()
    levels = inst.level_couplings
    levels = replace(levels, couplings=tuple(2.0 * c for c in levels.couplings))
    U, VG, allocs, values = _every_assignment(inst)
    g, lift = _path_rent_bound(inst, levels, _chain(inst, levels), U, VG)
    bound = g[np.arange(inst.n_support), allocs].sum(axis=1) + lift
    assert lift > 0
    assert (bound >= values - FEAS_TOL).all()


def test_root_bound_certifies_the_theorem():
    # on positive instances the monotone coupling makes the bound the
    # productive-only virtual surplus, ironed where the full1d optimum
    # pools levels, so the root bound alone proves the optimum
    certified = [solve_joint(random_positive_instance(
        seed, THEOREM_KNOBS[seed % len(THEOREM_KNOBS)], stream=507)
    ).certificate["root_certified"] for seed in range(60)]
    assert all(certified)
    # off the assumptions the bound is loose here and the search does the work
    assert not any(solve_joint(CASES[name]()).certificate["root_certified"]
                   for name in OFF_ASSUMPTION)


def _pooled_draws():
    """Draws whose unironed root misses the optimum, with the pooled level
    pairs of their full1d optimum and the pieces of the bound."""
    heavy = GeneratorKnobs(n_a=6, n_b=4, n_x=3, n_y=3, max_paths=1)
    for seed in range(30):
        inst = random_positive_instance(seed, heavy, stream=13)
        res = solve_joint(inst)
        levels = inst.level_couplings
        _, _, U, VG = _option_tables(inst)
        chain = _chain(inst, levels)
        g, lift = _path_rent_bound(inst, levels, chain, U, VG)
        if g.max(axis=1).sum() + lift > res.value + FEAS_TOL:
            x = solve_full_1d(productive_marginal(inst)).x_idx
            pooled = [j for j in range(len(x) - 1) if x[j] == x[j + 1]]
            yield seed, res, g, lift, U, chain, pooled


def test_ironing_certifies_the_pooled_optima():
    # the upward multipliers on the pooled pairs close the gap the unironed
    # root leaves, except on seeds 4 and 20, where no multipliers of the
    # per-pair family do (see the linprog cross-check below)
    certified = {seed: res.certificate["root_certified"]
                 for seed, res, *_ in _pooled_draws()}
    assert certified == {1: True, 4: False, 10: True, 11: True, 20: False,
                         23: True, 28: True}


@pytest.mark.parametrize("chunk", [solver._JOINT_CHUNK, 5])
def test_line_search_finds_the_least_sum_over_every_crossing(chunk, monkeypatch):
    # a row's kinks are where a line leaves its envelope, so the sum at the
    # chosen mu is the least over 0 and every crossing of two lines of a
    # row; integer tables give ties and flat stretches
    monkeypatch.setattr(solver, "_JOINT_CHUNK", chunk)
    rng = np.random.default_rng(7)
    for _ in range(400):
        r, A = rng.integers(1, 6), rng.integers(1, 9)
        G = rng.integers(-3, 4, (r, A)) / rng.integers(1, 4)
        h = rng.integers(-3, 4, (r, A)) / rng.integers(1, 4)
        h[:, 0] = np.abs(h[:, 0])  # a line per row that never falls: bounded
        rise = h[:, None, :] - h[:, :, None]
        cross = (G[:, :, None] - G[:, None, :])[rise > 0] / rise[rise > 0]
        mus = np.append(cross[cross > 0], 0.0)
        least = (G[:, :, None] + h[:, :, None] * mus).max(axis=1).sum(axis=0).min()
        mu = _line_min(G, h)
        assert mu >= 0
        assert (G + mu * h).max(axis=1).sum() == pytest.approx(least, abs=1e-12)


def test_line_search_takes_the_middle_of_a_closed_flat_stretch():
    # max(-mu, -1, mu - 3) is least on [1, 2], whose right end is the last
    # kink; a stretch open to the right keeps its left end
    assert _line_min(np.array([[0.0, -1.0, -3.0]]), np.array([[-1.0, 0.0, 1.0]])) == 1.5
    assert _line_min(np.array([[0.0, -1.0]]), np.array([[-1.0, 0.0]])) == 1.0


def test_ironing_reaches_the_optimum_of_its_family():
    # the root bound is convex in the multipliers; the coordinate line
    # searches stop where a linear program over all of them does
    linprog = pytest.importorskip("scipy.optimize").linprog
    for seed, res, g, lift, U, chain, pooled in _pooled_draws():
        m, A = g.shape
        h = np.zeros((len(pooled), m, A))
        for k, j in enumerate(pooled):
            rows, step = _pair_direction(U, chain, j)
            h[k][rows] = step
        # variables: one cap per point, then the multipliers; g + mu h <= cap
        a_ub = np.hstack((-np.repeat(np.eye(m), A, axis=0),
                          h.reshape(len(pooled), -1).T))
        lp = linprog(np.r_[np.ones(m), np.zeros(len(pooled))], A_ub=a_ub,
                     b_ub=-g.ravel(), bounds=[(None, None)] * m + [(0, None)] * len(pooled))
        assert lp.status == 0
        root = _iron(g, U, chain, pooled, res.value + FEAS_TOL - lift).max(axis=1).sum()
        assert root + lift == pytest.approx(max(lp.fun + lift, res.value), abs=1e-9), seed


def _scaled(inst, c):
    prod, cost = inst.productive, inst.costly
    return ScreeningInstance(
        ProductiveSpec(prod.theta_a, prod.x_grid, c * prod.u_a, c * prod.v_a),
        CostlySpec(cost.theta_b, cost.y_set, cost.y0_index, c * cost.u_b,
                   c * cost.v_b),
        inst.dist)


@pytest.mark.parametrize("knobs", range(len(THEOREM_KNOBS)))
def test_scaling_utilities_scales_the_value_and_keeps_verdicts(knobs):
    # every tolerance is absolute, so scaling all four utility tables by
    # 1e-3 or 1e3 must move no decision of the prune or of the verdicts
    for seed in range(8):
        inst = random_positive_instance(seed, THEOREM_KNOBS[knobs], stream=508)
        want, report = solve_joint(inst), verify_theorem1(inst)
        for c in (1e-3, 1e3):
            got, scaled = solve_joint(_scaled(inst, c)), verify_theorem1(_scaled(inst, c))
            assert got.value == pytest.approx(c * want.value, rel=1e-9, abs=0)
            assert got.certificate["optima"] == want.certificate["optima"]
            assert scaled.passed == report.passed
            assert scaled.y0_almost_surely == report.y0_almost_surely
            assert scaled.some_optimum_baseline == report.some_optimum_baseline


def _with_dominated_instrument(inst, c=1.0):
    # every type and the principal lose c on the new instrument, so y0 with
    # c more in transfers leaves the agent as well off and the principal
    # better off: no optimum uses it
    cost = inst.costly
    row = np.full((1, cost.n_types), -c)
    return ScreeningInstance(inst.productive, CostlySpec(
        cost.theta_b, np.append(cost.y_set, cost.y_set.max() + 1.0),
        cost.y0_index, np.vstack((cost.u_b, row)), np.vstack((cost.v_b, row))),
        inst.dist)


@pytest.mark.parametrize("knobs", range(len(THEOREM_KNOBS)))
def test_dominated_instrument_changes_no_optimum_and_no_verdict(knobs):
    assert THEOREM_KNOBS[knobs].n_y >= 2
    for seed in range(6):
        inst = random_positive_instance(seed, THEOREM_KNOBS[knobs], stream=509)
        padded = _with_dominated_instrument(inst)
        assert _summary(solve_joint(padded)) == _summary(solve_joint(inst))
        want, got = verify_theorem1(inst), verify_theorem1(padded)
        for name in ("v_joint", "v_productive", "passed", "y0_almost_surely",
                     "some_optimum_baseline"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.assumption_status.failures == want.assumption_status.failures
