"""Branch-and-bound joint search against the exhaustive enumerator it replaced."""
from pathlib import Path

import numpy as np
import pytest

from screenkit import (FEAS_TOL, GeneratorKnobs, JointDistribution,
                       ScreeningInstance, SizeGuardExceeded, StructuralError,
                       load_instance, random_negative_instance,
                       random_positive_instance, solve_joint)
from screenkit.solver import _batch_transfers, _decode

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def enumerate_joint(inst, guard=10 ** 7, chunk=1 << 14):
    """Reference: decode every assignment id, prune on the surplus bound only.

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
        D, infeasible = _batch_transfers(U, allocs)
        values = (prob[None, :] * (VG[idx[None, :], allocs] + D)).sum(axis=1)
        values[infeasible] = -np.inf
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


def _cases():
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_branch_and_bound_matches_enumeration(name):
    inst = CASES[name]()
    want = enumerate_joint(inst)
    # small blocks split ties and leaves across blocks
    for chunk in (1 << 14, 5):
        res = solve_joint(inst, chunk=chunk)
        assert _summary(res) == want
    cert = res.certificate
    assert cert["method"] == "branch_and_bound"
    assert cert["enumerated"] == (inst.productive.n_alloc
                                  * inst.costly.n_alloc) ** inst.n_support
    assert 0 < cert["evaluated"] and 0 < cert["nodes"]


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

