"""The array kernels of the one-dimensional solvers, bit for bit against the
scalar loops in `helpers`.

The full1d output check of the benchmark prices with the program's own
closed form and value, so these loops and the shortest-path transfers are
the only independent check on them. Floats compare through their bits, so
a different summation order or sign of zero fails.
"""
import numpy as np
import pytest

from screenkit import (OneDimInstance, instance_rng, onedim_value,
                       random_onedim_instance, solve_full_1d,
                       u_region_decomposition)
from screenkit.transfers import _closed_form, _regions

from helpers import closed_form_loop, full1d_allocation_loop, onedim_value_loop

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
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=N_X, stream=n)
        x = allocations(n, N_X, seed)[kind]
        assert np.array_equal(bits(_closed_form(inst.u, x)),
                              bits(closed_form_loop(inst.u.tolist(), x)))


def test_closed_form_cases_reach_regions_and_the_sentinel():
    for n in SIZES[1:]:
        assert u_region_decomposition(allocations(n, N_X, 0)["dip"]).regions[-1][1] == n
    regions = u_region_decomposition(allocations(320, N_X, 0)["valleys"]).regions
    assert len(regions) == N_X - 1 and regions[0] == (0, 2)


@pytest.mark.parametrize("n", SIZES)
def test_closed_form_block_prices_each_column_as_the_loop(n):
    # the four kinds side by side, and random columns: regions of different
    # counts and ends in one block
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=N_X, stream=n)
        rng = instance_rng(seed, stream=557)
        block = np.column_stack(list(allocations(n, N_X, seed).values())
                                + [rng.integers(0, N_X, n) for _ in range(12)])
        t = _closed_form(inst.u, block)
        assert t.shape == block.shape
        for k in range(block.shape[1]):
            assert np.array_equal(bits(t[:, k]),
                                  bits(closed_form_loop(inst.u.tolist(), block[:, k])))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 17])
def test_block_regions_are_each_columns_decomposition(n):
    rng = instance_rng(n, stream=563)
    block = rng.integers(0, 4, (n, 200))
    passes, bound = _regions(block)
    for k in range(block.shape[1]):
        want = u_region_decomposition(block[:, k].tolist())
        got = [(int(o[k]), int(d[k])) for found, o, d in passes if found[k]]
        assert tuple(got) == want.regions
        free = [j for j in range(n - 1) if bound is None or not bound[j, k]]
        assert free == [j for j in want.free if j < n - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_form_block_of_every_allocation_is_the_loop(n):
    # every allocation of a 3-point grid, on a random table and on u = 0
    inst = random_onedim_instance(n, n=n, n_x=3, stream=559)
    block = np.indices((3,) * n).reshape(n, -1)
    for u in (inst.u, np.zeros_like(inst.u)):
        t = _closed_form(u, block)
        for k in range(block.shape[1]):
            assert np.array_equal(bits(t[:, k]), bits(closed_form_loop(u.tolist(), block[:, k])))


@pytest.mark.parametrize("n", SIZES)
def test_onedim_value_is_the_loop_bit_for_bit(n):
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=N_X, stream=n)
        for x in allocations(n, N_X, seed).values():
            t = _closed_form(inst.u, x)
            assert bits(onedim_value(inst, x, t)) == bits(onedim_value_loop(inst, x, t))


def test_onedim_value_of_all_zero_terms_is_positive_zero():
    # v = t = -0.0 makes every term -0.0; a scalar loop from 0.0 returns +0.0
    inst = OneDimInstance([1.0, 2.0, 3.0], [0.25, 0.25, 0.5], [0.0, 1.0],
                          np.full((2, 3), -0.0), np.full((2, 3), -0.0))
    for t in ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]):
        value = onedim_value(inst, (0, 1, 1), t)
        assert bits(value) == bits(onedim_value_loop(inst, (0, 1, 1), t)) == bits(0.0)


def tie_heavy(seed, n, n_x):
    """Integer tables with strict increasing differences and weights 1/n,
    n a power of two: every contribution is an exact multiple of 1/n, so
    the dynamic program meets exact ties."""
    rng = instance_rng(seed, stream=547)
    a = np.cumsum(rng.integers(1, 3, n))
    b = np.arange(n_x)
    u = np.outer(b, a).astype(float)
    v = (-np.outer(b, a) + rng.integers(-2, 3, (n_x, n))).astype(float)
    return OneDimInstance(np.arange(1.0, n + 1), np.full(n, 1.0 / n),
                          np.arange(float(n_x)), u, v)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 256])
@pytest.mark.parametrize("n_x", [2, 3, 6])
def test_full1d_allocation_is_the_loop_on_exact_ties(n, n_x):
    for seed in range(6):
        inst = tie_heavy(seed, n, n_x)
        assert solve_full_1d(inst).x_idx == full1d_allocation_loop(inst)


@pytest.mark.parametrize("n", [3, 64, 256])
def test_full1d_allocation_is_the_loop_on_random_tables(n):
    for seed in range(4):
        inst = random_onedim_instance(seed, n=n, n_x=6, stream=n,
                                      surplus_single_crossing=True)
        res = solve_full_1d(inst)
        assert res.x_idx == full1d_allocation_loop(inst)
        assert np.array_equal(bits(res.t), bits(closed_form_loop(inst.u.tolist(), res.x_idx)))
        assert bits(res.value) == bits(onedim_value_loop(inst, res.x_idx, res.t))
