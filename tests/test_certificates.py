"""Batched certificates against the per-item loops they replaced.

`solve_downward_1d` runs one forward sweep on the prefix tree of the
allocations, `_option_cells` builds the option table in one pass and
`certify_bundling` finds its best pair of options with one sort of s =
U[0] - U[1] and a running maximum, pricing that pair alone through the
joint solver's `_price`. The oracles
below price every allocation with a scalar sweep loop and, within
rounding, the U-region closed form, every option pair with the two-type
relaxation, and every pair of the options a lexsort over every option's
agent values keeps.
`helpers.bundle_options_loop` builds the option table one bundle
composition at a time.
"""
import dataclasses
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from screenkit import (FEAS_TOL, BundleInstance, GeneratorKnobs, OneDimInstance,
                       bundling_default, certify_bundling,
                       load_instance, productive_marginal,
                       random_positive_instance, solve_downward_1d)
from screenkit import applications, solver
from screenkit.applications import (BundlingSolution, _best_pair,
                                    _cell_tables, solve_bundling)
from screenkit.solver import SolveResult
from screenkit.transfers import (graph_optimal_transfers,
                                 onedim_ic_violations, onedim_ir_violations,
                                 onedim_value)

from helpers import (bundle_options, bundle_options_loop, closed_form_loop,
                     distinct_options_lexsort, downward_sweep_loop,
                     random_onedim_instance)
from test_applications import random_bundle

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def downward_oracle(inst, price):
    """Every allocation priced by `price`, a scalar loop over u's rows, and
    summed type by type from 0.0; the first strict maximum is kept."""
    n, n_alloc = inst.n, inst.n_alloc
    u_rows = inst.u.tolist()
    v_rows = inst.v.tolist()
    mu = inst.mu.tolist()
    best = -float("inf")
    best_x = best_t = None
    for combo in itertools.product(range(n_alloc), repeat=n):
        t = price(u_rows, combo)
        value = 0.0
        for i in range(n):
            value += mu[i] * (v_rows[combo[i]][i] + t[i])
        if value > best:
            best, best_x, best_t = value, combo, t
    return SolveResult("downward1d", float(best), tuple(best_x),
                       tuple(float(v) for v in best_t),
                       {"method": "enumeration", "enumerated": n_alloc ** n})


def bundle_options_oracle(b):
    """(U, P, descriptors) of every option, built one option at a time."""
    grid = b.quality_grid
    steps = grid.size - 1
    n_bundles = 2 ** b.n_goods
    agent_rows, cost_col, descr = [], [], []
    for cuts in itertools.combinations(range(steps + n_bundles - 1), n_bundles - 1):
        parts = []
        prev = -1
        for c in cuts + (steps + n_bundles - 1,):
            parts.append(c - prev - 1)
            prev = c
        alpha = np.array(parts) / steps
        used = [i for i in range(n_bundles) if parts[i] > 0]
        for qs in itertools.product(range(grid.size), repeat=len(used)):
            q = np.zeros(n_bundles)
            for slot, bundle in zip(qs, used):
                q[bundle] = grid[slot]
            agent_rows.append(b.values @ (alpha * q))
            cost_col.append(float(alpha[used] @ b.cost_samples[list(qs)]))
            descr.append((tuple(alpha), tuple(q)))
    return np.array(agent_rows).T, -np.array(cost_col), descr


def pair_values(mu, U, P, rows, cols):
    """Two-type relaxation values, option rows[i] for type 0, cols[j] for 1,
    type weights mu; -inf where the IC 2-cycle is negative."""
    u1_i, u2_i = U[0, rows][:, None], U[1, rows][:, None]
    u1_j, u2_j = U[0, cols][None, :], U[1, cols][None, :]
    w21 = u1_i - u1_j
    w12 = u2_j - u2_i
    d1 = np.minimum(u1_i, u2_j + w21)
    d2 = np.minimum(u2_j, u1_i + w12)
    d1 = np.minimum(d1, d2 + w21)
    d2 = np.minimum(d2, d1 + w12)
    vals = mu[0] * (P[rows][:, None] + d1) + mu[1] * (P[cols][None, :] + d2)
    vals[w12 + w21 < -1e-12] = -np.inf
    return vals


def bundling_oracle(b):
    """(brute-force value, options) over every option pair, no collapsing."""
    U, P, _ = bundle_options_oracle(b)
    n_o = U.shape[1]
    if b.n_types == 1:
        return float((P + U[0]).max()), n_o
    rows_per_block = max(1, (1 << 20) // n_o)
    best = max(float(pair_values(b.prob, U, P, slice(start, start + rows_per_block),
                                 slice(None)).max())
               for start in range(0, n_o, rows_per_block))
    return best, n_o


def distinct_scan_oracle(b):
    """(brute-force value, best descriptors) pricing every distinct pair.

    The unpruned scan over the options `distinct_options_lexsort` keeps of
    every option, in row blocks: the first maximizer in row-major order wins.
    """
    U, P, alpha, q = bundle_options(b)
    if b.n_types == 1:
        best = int(np.argmax(P + U[0]))
        return float((P + U[0])[best]), ((tuple(alpha[best]), tuple(q[best])),)
    keep = distinct_options_lexsort(U, P)
    U, P = U[:, keep], P[keep]
    n_k = keep.size
    best_val, best_pair = -np.inf, (0, 0)
    rows_per_block = max(1, (1 << 16) // n_k)
    for start in range(0, n_k, rows_per_block):
        vals = pair_values(b.prob, U, P, np.arange(start, min(start + rows_per_block, n_k)),
                           np.arange(n_k))
        flat = int(np.argmax(vals))
        if float(vals.flat[flat]) > best_val:
            best_val = float(vals.flat[flat])
            best_pair = (start + flat // n_k, flat % n_k)
    return best_val, tuple((tuple(alpha[keep[i]]), tuple(q[keep[i]]))
                           for i in best_pair)


# ---------------------------------------------------------------------------
# downward relaxation
# ---------------------------------------------------------------------------


def _tie_heavy(seed):
    # small integer tables with binary weights: many exact ties. u rises in
    # the type with increasing differences, where the closed form is the
    # maximal feasible transfer vector of every allocation
    rng = np.random.default_rng([seed, 907])
    n, n_x = 2 + seed % 3, 2 + seed % 2
    a = np.cumsum(rng.integers(0, 3, n))
    b = np.cumsum(rng.integers(0, 3, n_x))
    u = (np.outer(b, a) + np.cumsum(rng.integers(0, 2, n))).astype(float)
    v = rng.integers(-2, 3, (n_x, n)).astype(float)
    mu = 0.5 ** np.arange(n, 0, -1)
    mu[0] *= 2
    return OneDimInstance(np.arange(n, dtype=float), mu,
                          np.arange(n_x, dtype=float), u, v)


def _decimal_ties(seed):
    # decimal steps round differently in the sweep and in the closed form;
    # at these seeds maximizers tie in exact arithmetic and the closed-form
    # maximizer's sweep value falls below the sweep maximum, so the two keep
    # different allocations
    rng = np.random.default_rng([seed, 41])
    n, n_x = 3 + seed % 3, 2 + seed // 3 % 2
    a = np.cumsum(rng.integers(0, 3, n)) * (0.1, 0.3, 0.7, 0.35)[seed % 4]
    b = np.cumsum(rng.integers(1, 3, n_x)) * (0.3, 0.1, 1.3)[seed % 3]
    u = np.outer(b, a) + np.cumsum(rng.integers(0, 3, n)) * 0.7
    v = rng.integers(-1, 2, (n_x, n)) * (0.1, 0.0, 0.2)[seed % 3]
    mu = (np.full(n, 1.0 / n) if seed % 2
          else np.arange(1.0, n + 1) / (n * (n + 1) / 2))
    return OneDimInstance(np.arange(n, dtype=float), mu,
                          np.arange(n_x, dtype=float), u, v)


def _zero_table(n, n_x=3):
    # u = v = 0: every allocation ties, and the first is kept
    return OneDimInstance(np.arange(n, dtype=float), np.full(n, 1.0 / n),
                          np.arange(n_x, dtype=float), np.zeros((n_x, n)),
                          np.zeros((n_x, n)))


DOWNWARD_CASES = (
    [pytest.param(lambda: _zero_table(5), id="zeros5")]
    + [pytest.param(lambda k=k: productive_marginal(
        load_instance(INSTANCE_DIR / f"example{k}.json")), id=f"example{k}")
     for k in (1, 2, 3)]
    + [pytest.param(lambda s=s: random_onedim_instance(
        s, n=2 + s % 5, n_x=2 + s % 3, surplus_single_crossing=s % 2 == 0,
        stream=911), id=f"random{s}") for s in range(100)]
    + [pytest.param(lambda s=s: _tie_heavy(s), id=f"ties{s}") for s in range(20)]
    + [pytest.param(lambda s=s: _decimal_ties(s), id=f"decimal{s}")
       for s in (415, 529, 1296)]
    + [pytest.param(lambda s=s: productive_marginal(random_positive_instance(
        s, GeneratorKnobs(n_a=8, n_b=2, n_x=3, n_y=2, max_paths=1), stream=s)),
        id=f"knobs{s}") for s in range(3)])


@pytest.mark.parametrize("chunk", [None, 1, 2, 7, 8],
                         ids=["default_chunk", "chunk1", "chunk2", "chunk7", "chunk8"])
@pytest.mark.parametrize("make", DOWNWARD_CASES)
def test_downward_sweep_matches_closed_form_loop(make, chunk, monkeypatch):
    # small blocks cut the prefix tree's levels inside a parent's children
    # and split ties across blocks. The solve is the scalar sweep bit for
    # bit (repr spells out every bit of a float, the sign of zero too) and
    # the U-region closed form within rounding: the two can keep different
    # allocations only where maximizers tie in exact arithmetic
    if chunk is not None:
        monkeypatch.setattr(solver, "_DOWNWARD_CHUNK", chunk)
    inst = make()
    res = solve_downward_1d(inst)
    assert repr(res) == repr(downward_oracle(inst, downward_sweep_loop))
    assert abs(res.value - downward_oracle(inst, closed_form_loop).value) <= 1e-12
    np.testing.assert_allclose(res.t, closed_form_loop(inst.u.tolist(), res.x_idx),
                               rtol=0, atol=1e-12)


def test_downward_sweep_memory_stays_bounded_by_the_block():
    # 2^20 allocations: built a whole tree level at a time, the sweep's
    # traced peak is about 32 MiB; in blocks of _DOWNWARD_CHUNK prefixes it
    # is about 4 MiB
    inst = random_onedim_instance(0, n=20, n_x=2)
    tracemalloc.start()
    try:
        res = solve_downward_1d(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certificate["enumerated"] == 1 << 20
    assert peak < 8 << 20


# ---------------------------------------------------------------------------
# bundling certificate
# ---------------------------------------------------------------------------


def _additive_bundle(n_goods, points, n_types):
    # bundle values add up the goods' values, so supersets are worth more
    rng = np.random.default_rng([n_goods, points, n_types, 923])
    goods = rng.uniform(0.0, 2.0, (n_types, n_goods))
    members = (np.arange(2 ** n_goods)[:, None] >> np.arange(n_goods)) & 1
    cost = np.concatenate([[0.0], np.cumsum(np.sort(rng.uniform(0.05, 0.8, points - 1)))])
    return BundleInstance(n_goods, goods @ members.T, np.full(n_types, 1.0 / n_types),
                          np.linspace(0, 1, points), cost)


# three goods stop at five grid points: six points already give 0.87 million
# options
@pytest.mark.parametrize("n_types", [1, 2])
@pytest.mark.parametrize("n_goods,points", [(g, k) for g in (1, 2) for k in range(2, 8)]
                         + [(3, k) for k in range(2, 6)])
def test_bundle_option_table_matches_the_composition_loop(n_goods, points, n_types):
    b = _additive_bundle(n_goods, points, n_types)
    for got, want in zip(bundle_options(b), bundle_options_loop(b), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


BUNDLE_CASES = (
    [pytest.param(bundling_default, id="default"),
     pytest.param(lambda: bundling_default(zero_cost=True), id="zero_cost")]
    + [pytest.param(lambda s=s: random_bundle(s, 913), id=f"random{s}")
       for s in range(8)]
    + [pytest.param(lambda: BundleInstance(
        2, np.array([[0.0, 2.0, 1.5, 4.0]]), np.array([1.0]),
        np.linspace(0, 1, 5), np.array([0.0, 0.1, 0.3, 0.6, 1.0])),
        id="one_type"),
       pytest.param(lambda: random_bundle(8, 913, np.linspace(0, 1, 4)),
                    id="thirds")])


@pytest.mark.parametrize("make", BUNDLE_CASES)
def test_bundling_certificate_matches_all_pairs(make):
    b = make()
    cert = certify_bundling(b)
    value, n_o = bundling_oracle(b)
    assert cert.options == n_o
    assert abs(cert.brute_force_value - value) <= 1e-12
    assert cert.menu_value == solve_bundling(b).value
    assert cert.menu_is_optimal == (cert.menu_value >= value - FEAS_TOL)
    # the reported descriptors attain the reported value
    U, P, descr = bundle_options_oracle(b)
    found = [descr.index(d) for d in cert.best_descriptor]
    if b.n_types == 1:
        attained = P[found[0]] + U[0, found[0]]
    else:
        attained = pair_values(b.prob, U, P, [found[0]], [found[1]])[0, 0]
    assert abs(attained - cert.brute_force_value) <= 1e-12


@pytest.mark.parametrize("make", [case for case in BUNDLE_CASES
                                  if case.id in ("default", "one_type")])
def test_bundling_certificate_prices_once_through_the_joint_kernel(make, monkeypatch):
    # one assignment row, the picked option per type, priced by `_price`
    b = make()
    rows = []

    def counting(U, VG, prob, allocs):
        rows.append(allocs.tolist())
        return solver._price(U, VG, prob, allocs)

    monkeypatch.setattr(applications, "_price", counting)
    cert = certify_bundling(b)
    assert len(rows) == 1 and len(rows[0]) == 1
    picks = rows[0][0]
    U, P, alpha, q = bundle_options(b)
    assert cert.best_descriptor == tuple((tuple(alpha[k]), tuple(q[k])) for k in picks)
    assert cert.brute_force_value == kernel_value(U, P, b.prob, picks)


PRUNE_CASES = (
    list(BUNDLE_CASES)
    + [pytest.param(lambda s=s: random_bundle(s, 917), id=f"draw{s}")
       for s in range(50)]
    + [pytest.param(lambda: random_bundle(5, 917, np.linspace(0, 1, 7)),
                    id="grid7")])


@pytest.mark.parametrize("shift", [0.0, 1.0, -1.0],
                         ids=["menu", "fallback", "low_floor"])
@pytest.mark.parametrize("make", PRUNE_CASES)
def test_pruned_bundling_certificate_matches_the_distinct_scan(make, shift):
    # the menu value, at the optimum or 1 off it either way, moves nothing:
    # the closed form finds the best pair over every option, and the scan
    # over the distinct options agrees bit for bit
    b = make()
    sol = solve_bundling(b)
    sol = dataclasses.replace(sol, value=sol.value + shift)
    cert = certify_bundling(b, sol)
    value, descriptors = distinct_scan_oracle(b)
    assert cert.brute_force_value == value
    assert cert.best_descriptor == descriptors
    assert cert.menu_value == sol.value


def _scan_first_max(U, P, mu):
    """(value, (i, j)): the first maximizer, row-major, of pricing every
    pair by the two-type relaxation."""
    n = P.size
    vals = pair_values(mu, U, P, np.arange(n), np.arange(n))
    flat = int(np.argmax(vals))
    return vals.flat[flat], divmod(flat, n)


def kernel_value(U, P, mu, picks):
    """The joint solver's price of option picks[k] for type k, the one
    assignment row `certify_bundling` prices."""
    value, _ = solver._price(U, np.broadcast_to(P, U.shape), mu, np.array([picks]))
    return value[0]


def _exact_table(rng, far):
    """(U, P, mu) whose every sum and product the certificate forms is exact,
    with ties in U, P and s = U[0] - U[1].

    Near: integers plus multiples of 2^-40, so two options' s may be one
    multiple apart, 2^-40 < `_ROUND_TOL`: the pair is feasible only through
    the tolerance. Far: |s| about 2^20, so s + `_ROUND_TOL` rounds to s and
    only exact ties in s make a pair feasible at the boundary.
    """
    n = int(rng.integers(1, 9))
    if far:
        U1 = rng.integers(0, 4, n) * 2.0 ** 20
        s = rng.choice([-1, 1]) * (2.0 ** 20 + rng.integers(-1, 2, n))
        P = -rng.integers(0, 4, n) * 2.0 ** 19
    else:
        U1 = rng.integers(0, 4, n) + rng.integers(-2, 3, n) * 2.0 ** -40
        s = rng.integers(-2, 3, n) + rng.integers(-2, 3, n) * 2.0 ** -40
        P = -rng.integers(0, 4, n) * 0.5 + rng.integers(-2, 3, n) * 2.0 ** -40
    mu0 = rng.choice([0.25, 0.375, 0.5])
    return np.array([U1 + s, U1]), P, np.array([mu0, 1.0 - mu0])


@pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
def test_best_pair_is_the_first_maximizer_of_every_pair(far):
    # exact tables: the closed form and pricing every pair agree bit for bit,
    # on the value and on the row-major first maximizer
    rng = np.random.default_rng([int(far), 919])
    for _ in range(400):
        U, P, mu = _exact_table(rng, far)
        want, (wi, wj) = _scan_first_max(U, P, mu)
        i, j = _best_pair(U, P, mu)
        assert (i, j) == (wi, wj)
        assert kernel_value(U, P, mu, (i, j)).tobytes() == want.tobytes()


def test_best_pair_keeps_a_pair_feasible_only_through_the_tolerance():
    # s = (0, -1e-12): the pair (1, 0) has s_0 = s_1 + `_ROUND_TOL` exactly.
    # Its value ties the diagonal (1, 1) in the last bit, so the first
    # maximizer is (1, 0) in the scan and in the closed form
    U = np.array([[2e-12, 0.0], [2e-12, 1e-12]])
    P = np.array([2.0 ** 14, 2.0 ** 14 + 2 * np.spacing(2.0 ** 14)])
    mu = np.array([0.7, 1.0 - 0.7])
    want, pair = _scan_first_max(U, P, mu)
    assert pair == (1, 0) == _best_pair(U, P, mu)
    assert kernel_value(U, P, mu, (1, 0)) == want


def test_best_pair_is_the_first_maximizer_of_the_sum_on_rounding_tables():
    # entries within a few units of `_ROUND_TOL` beside P near 2^e, where
    # sums round: the pair is the first feasible maximizer of A_i + B_j, the
    # quantity the closed form maximizes, found here by brute force
    rng = np.random.default_rng(923)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        L = 2.0 ** int(rng.integers(-2, 20))
        P = L + rng.integers(-2, 3, n) * np.spacing(L)
        U = rng.choice([0.0, 5e-13, 1e-12, 2e-12, 3e-12], (2, n))
        mu0 = rng.uniform(0.05, 0.95)
        mu = np.array([mu0, 1.0 - mu0])
        s = U[0] - U[1]
        A = mu[0] * (P + U[0]) - mu[1] * np.maximum(0.0, -s)
        B = mu[1] * (P + U[1]) - mu[0] * np.maximum(0.0, s)
        sums = np.where(s[None, :] <= s[:, None] + 1e-12,
                        A[:, None] + B[None, :], -np.inf)
        pair = _best_pair(U, P, mu)
        assert pair == divmod(int(np.argmax(sums)), n)
        # the kernel's negative-cycle test keeps the pick the closed form
        # counts feasible, 6 of these picks only through `_ROUND_TOL`
        assert np.isfinite(kernel_value(U, P, mu, pair))


def _swap_types(b):
    return BundleInstance(b.n_goods, b.values[::-1], b.prob[::-1],
                          b.quality_grid, b.cost_samples)


def _swap_goods(b):
    return BundleInstance(b.n_goods, b.values[:, [0, 2, 1, 3]], b.prob,
                          b.quality_grid, b.cost_samples)


@pytest.mark.parametrize("relabel", [_swap_types, _swap_goods])
@pytest.mark.parametrize("make", [bundling_default] + [
    lambda s=s: random_bundle(s, 913) for s in range(3)])
def test_bundling_certificate_invariant_under_relabelling(make, relabel):
    b = make()
    base = certify_bundling(b).brute_force_value
    assert abs(certify_bundling(relabel(b)).brute_force_value - base) <= 1e-12


def _bundle_variant(n_goods, points, n_types, variant):
    """`_additive_bundle` reshaped so that distinct bundle weights give equal
    agent values, or P ties, or zeros carry a sign."""
    b = _additive_bundle(n_goods, points, n_types)
    values, grid, cost = b.values.copy(), b.quality_grid.copy(), b.cost_samples.copy()
    if variant == "equal_bundles":
        # goods of equal value: distinct weights on the single-good bundles
        # give equal agent values
        members = (np.arange(2 ** n_goods)[:, None] >> np.arange(n_goods)) & 1
        values = np.outer(np.arange(1.0, n_types + 1), members.sum(axis=1))
    elif variant == "flat_cost":
        # free up to the middle of the grid: P ties across alpha splits
        cost = 1.3 * np.maximum(grid - grid[points // 2], 0.0)
    elif variant == "nonuniform_grid":
        grid = np.linspace(0.0, 1.0, points) ** 1.7
        cost = 0.9 * grid ** 2
    elif variant == "negative_zero":
        grid[0], cost[0], values[:, 0] = -0.0, -0.0, -0.0
    return BundleInstance(n_goods, values, b.prob, grid, cost)


BUNDLE_VARIANTS = ["additive", "equal_bundles", "flat_cost", "nonuniform_grid",
                   "negative_zero"]


@pytest.mark.parametrize("n_types", [1, 2])
@pytest.mark.parametrize("variant", BUNDLE_VARIANTS)
@pytest.mark.parametrize("n_goods,points", [(1, 2), (1, 5), (1, 9), (2, 2), (2, 3),
                                            (2, 5), (2, 7), (3, 2), (3, 3), (3, 4)])
def test_weight_class_certificate_matches_the_distinct_scan(n_goods, points, variant,
                                                            n_types):
    # instances where weights and agent values part ways, P ties or zeros
    # carry a sign; the menu value, at the optimum or above it, moves nothing
    b = _bundle_variant(n_goods, points, n_types, variant)
    value, descriptors = distinct_scan_oracle(b)
    for menu in (value, value + 1.0):
        cert = certify_bundling(b, BundlingSolution(menu, (), None))
        assert cert.brute_force_value == value
        assert cert.best_descriptor == descriptors
        assert [type(v) for d in cert.best_descriptor for row in d for v in row] == \
            [type(v) for d in descriptors for row in d for v in row]


def test_weight_class_certificate_memory_stays_within_two_option_tables():
    # three goods on a 5-point grid: 66,890 options of 8 cells, 4.3 MB a
    # table. The certificate's traced peak was 19.5 MiB while it built every
    # option's alpha, q and agent values; it is about 9 MiB now, two cell
    # tables. A table indexed by the space of bundle-weight codes (10^7
    # here) would break the bound alone, even one byte a code
    members = (np.arange(8)[:, None] >> np.arange(3)) & 1
    base = members @ np.array([1.0, 1.5, 0.75])
    grid = np.linspace(0.0, 1.0, 5)
    b = BundleInstance(3, np.array([base, 1.7 * base]), np.array([0.6, 0.4]),
                       grid, 0.8 * grid ** 2)
    assert np.unique(_cell_tables(b)[2]).size ** 7 == 10 ** 7
    tracemalloc.start()
    try:
        cert = certify_bundling(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.options == 66_890 and cert.menu_is_optimal
    assert peak < 12 << 20


@pytest.mark.parametrize("seed", range(20))
def test_downward_prices_tables_outside_the_assumptions_feasibly(seed):
    # integer tables where u can fall in the type and differences can
    # decrease; the closed form then overshoots the feasible transfers
    rng = np.random.default_rng([seed, 919])
    n, n_x = 2 + seed % 3, 2 + seed % 2
    inst = OneDimInstance(np.arange(n, dtype=float), np.full(n, 1.0 / n),
                          np.arange(n_x, dtype=float),
                          rng.integers(-2, 3, (n_x, n)).astype(float),
                          rng.integers(-2, 3, (n_x, n)).astype(float))
    res = solve_downward_1d(inst)
    assert onedim_ir_violations(inst, res.x_idx, res.t) == []
    assert onedim_ic_violations(inst, res.x_idx, res.t, "downward") == []
    best = max(onedim_value(inst, x, graph_optimal_transfers(inst, x, "downward"))
               for x in itertools.product(range(n_x), repeat=n))
    assert res.value == pytest.approx(best, abs=1e-9)
