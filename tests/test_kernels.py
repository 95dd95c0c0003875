"""The array kernels of the one-dimensional solvers, bit for bit against the
scalar loops in `helpers`.

The full1d output check of the benchmark prices with the program's own
transfers and value, so these loops, the U-region closed form and the
shortest-path transfers are the only independent check on them. Floats
compare through their bits, so a different summation order or sign of zero
fails.
"""
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from screenkit import (OneDimInstance, closed_form_downward_transfers,
                       graph_optimal_transfers, instance_rng, onedim_value,
                       solve_full_1d)
from screenkit.transfers import _downward_sweep, _monotone_transfers

from helpers import (closed_form_loop, downward_sweep_loop,
                     full1d_allocation_loop, onedim_value_loop,
                     random_onedim_instance, u_region_decomposition)

SIZES = [1, 2, 3, 5, 8, 9, 17, 64, 128, 256, 320]
N_X = 6


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def allocations(n, n_x, seed):
    """A monotone allocation, a free draw, a run of dips that each recover
    (1, 0, 2, 1, 3, 2, ...) and one that ends in a dip it never recovers
    from (the `dest == n` sentinel)."""
    rng = instance_rng(seed, stream=541)
    monotone = np.sort(rng.integers(0, n_x, n))
    types = np.arange(n)
    dip = monotone.copy()
    dip[-2:] = (n_x - 1, 0)[2 - min(n, 2):]
    return {"monotone": monotone, "free": rng.integers(0, n_x, n),
            "valleys": np.minimum(types // 2 + 1 - types % 2, n_x - 1),
            "dip": dip}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["monotone", "free", "valleys", "dip"])
def test_closed_form_kernel_is_the_loop_bit_for_bit(n, kind):
    # the sweep on every kind, and the running sum where it applies
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=N_X, stream=n)
        x = allocations(n, N_X, seed)[kind]
        assert np.array_equal(bits(_downward_sweep(inst.u, x)),
                              bits(downward_sweep_loop(inst.u.tolist(), x)))
        if kind == "monotone":
            assert np.array_equal(bits(_monotone_transfers(inst.u, x)),
                                  bits(closed_form_loop(inst.u.tolist(), x)))


def test_closed_form_cases_reach_regions_and_the_sentinel():
    for n in SIZES[1:]:
        assert u_region_decomposition(allocations(n, N_X, 0)["dip"]).regions[-1][1] == n
    regions = u_region_decomposition(allocations(320, N_X, 0)["valleys"]).regions
    assert len(regions) == N_X - 1 and regions[0] == (0, 2)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["free", "valleys", "dip"])
def test_sweep_is_the_region_form_and_the_graph_within_rounding(n, kind):
    # three independent routes to the downward maximum, on the allocations
    # whose regions the closed form has to find
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=N_X, stream=n)
        x = allocations(n, N_X, seed)[kind]
        t = _downward_sweep(inst.u, x)
        np.testing.assert_allclose(t, closed_form_loop(inst.u.tolist(), x),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(t, graph_optimal_transfers(inst, x),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_form_block_of_every_allocation_is_the_loop(n):
    # every allocation of a 3-point grid, the columns of one block, priced
    # by the public function on a random table and on u = 0
    inst = random_onedim_instance(n, n=n, n_x=3, stream=559)
    block = np.indices((3,) * n).reshape(n, -1)
    for u in (inst.u, np.zeros_like(inst.u)):
        line = OneDimInstance(inst.theta, inst.mu, inst.x_grid, u, inst.v)
        for x in block.T:
            t = closed_form_downward_transfers(line, x)
            assert np.array_equal(bits(t), bits(downward_sweep_loop(u.tolist(), x)))
            np.testing.assert_allclose(t, closed_form_loop(u.tolist(), x),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_onedim_value_is_the_loop_bit_for_bit(n):
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=N_X, stream=n)
        for x in allocations(n, N_X, seed).values():
            t = _downward_sweep(inst.u, x)
            assert bits(onedim_value(inst, x, t)) == bits(onedim_value_loop(inst, x, t))


def test_onedim_value_of_all_zero_terms_is_positive_zero():
    # v = t = -0.0 makes every term -0.0; a scalar loop from 0.0 returns +0.0
    inst = OneDimInstance([1.0, 2.0, 3.0], [0.25, 0.25, 0.5], [0.0, 1.0],
                          np.full((2, 3), -0.0), np.full((2, 3), -0.0))
    for t in ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]):
        value = onedim_value(inst, (0, 1, 1), t)
        assert bits(value) == bits(onedim_value_loop(inst, (0, 1, 1), t)) == bits(0.0)


def tie_heavy(seed, n, n_x):
    """Integer tables with strict increasing differences and dyadic weights:
    1/2^m for every type but the last, which takes the rest, 2^m the least
    power of two from n (1/n each when n is one). Every contribution is an
    exact dyadic rational, so the dynamic program meets exact ties and
    every sum in it is exact."""
    rng = instance_rng(seed, stream=547)
    a = np.cumsum(rng.integers(1, 3, n))
    b = np.arange(n_x)
    u = np.outer(b, a).astype(float)
    v = (-np.outer(b, a) + rng.integers(-2, 3, (n_x, n))).astype(float)
    mu = np.full(n, 0.5 ** int(np.ceil(np.log2(n))))
    mu[-1] = 1.0 - mu[:-1].sum()
    return OneDimInstance(np.arange(1.0, n + 1), mu, np.arange(float(n_x)), u, v)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 256])
@pytest.mark.parametrize("n_x", [2, 3, 6])
def test_full1d_allocation_is_the_loop_on_exact_ties(n, n_x):
    for seed in range(6):
        inst = tie_heavy(seed, n, n_x)
        assert solve_full_1d(inst).x_idx == full1d_allocation_loop(inst)


def exact_monotone_values(inst) -> dict:
    """Every nondecreasing allocation's full-IC value in exact rationals:
    type 0's participation and every local downward constraint bind."""
    u, v = inst.u.tolist(), inst.v.tolist()
    mu = [Fraction(m) for m in inst.mu.tolist()]
    values = {}
    for x in combinations_with_replacement(range(inst.n_alloc), inst.n):
        t = [Fraction(u[x[0]][0])]
        for j in range(1, inst.n):
            t.append(t[-1] + Fraction(u[x[j]][j]) - Fraction(u[x[j - 1]][j]))
        values[x] = sum(m * (Fraction(v[c][j]) + tj)
                        for j, (m, c, tj) in enumerate(zip(mu, x, t)))
    return values


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("n_x", [1, 2, 3, 4])
def test_full1d_allocation_is_the_smallest_exact_optimum(n, n_x):
    # a brute force over every monotone allocation, on tables whose sums are
    # exact: the optimum value, and the lexicographically smallest optimum
    for seed in range(6):
        inst = tie_heavy(seed, n, n_x)
        values = exact_monotone_values(inst)
        best = max(values.values())
        res = solve_full_1d(inst)
        assert res.value == best
        assert res.x_idx == min(x for x, value in values.items() if value == best)


@pytest.mark.parametrize("n, n_x", [(1, 1), (1, 2), (1, 6), (2, 1), (64, 1), (256, 1)])
def test_full1d_edge_lines_are_the_loop(n, n_x):
    # one type, or one allocation: no step, or no threshold but the first
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=n_x, stream=n,
                                      surplus_single_crossing=True)
        res = solve_full_1d(inst)
        assert res.x_idx == full1d_allocation_loop(inst)
        assert bits(res.value) == bits(onedim_value_loop(inst, res.x_idx, res.t))
        if n_x == 1:
            assert res.x_idx == (0,) * n


@pytest.mark.parametrize("n", [3, 64, 256])
def test_full1d_allocation_is_the_loop_on_random_tables(n):
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=6, stream=n,
                                      surplus_single_crossing=True)
        res = solve_full_1d(inst)
        assert res.x_idx == full1d_allocation_loop(inst)
        assert np.array_equal(bits(res.t), bits(closed_form_loop(inst.u.tolist(), res.x_idx)))
        assert bits(res.value) == bits(onedim_value_loop(inst, res.x_idx, res.t))
