"""Transfers for one-dimensional screening under downward incentive constraints.

Given a (possibly non-monotone) allocation over a sorted scalar type grid,
the closed form pins every type's transfer through the binding pattern of the
relaxed problem: local downward constraints bind along monotonic runs, and
inside each U-shaped region every type is held to its region origin. The same
transfers fall out of single-source shortest paths on the difference
constraint graph, which this module also implements. That route is O(n^3)
and serves only as an independent oracle: the one-dimensional solvers price
with the closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotImplementable, StructuralError
from .model import (FEAS_TOL, PROB_TOL, deviation_mask, frozen_array,
                    ic_gains, ir_shortfalls)


@dataclass(frozen=True, eq=False)
class OneDimInstance:
    """Screening problem with a scalar type and full-support weights."""

    theta: np.ndarray   # (n,) strictly increasing
    mu: np.ndarray      # (n,) strictly positive, sums to 1
    x_grid: np.ndarray  # (n_x,) strictly increasing
    u: np.ndarray       # (n_x, n) agent utility
    v: np.ndarray       # (n_x, n) principal utility

    def __post_init__(self):
        for name in ("theta", "mu", "x_grid", "u", "v"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        if self.theta.ndim != 1 or self.theta.size == 0:
            raise StructuralError("theta must be a nonempty 1-D array")
        if not np.all(np.diff(self.theta) > 0):
            raise StructuralError("theta must be strictly increasing")
        if not np.all(np.diff(self.x_grid) > 0):
            raise StructuralError("x_grid must be strictly increasing")
        if self.mu.shape != self.theta.shape or not np.all(self.mu > 0):
            raise StructuralError("mu must be strictly positive and align with theta")
        if abs(float(self.mu.sum()) - 1.0) > PROB_TOL:
            raise StructuralError("mu must sum to 1")
        shape = (self.x_grid.size, self.theta.size)
        for name in ("u", "v"):
            if getattr(self, name).shape != shape:
                raise StructuralError(f"{name} must have shape {shape}")
            if not np.all(np.isfinite(getattr(self, name))):
                raise StructuralError(f"{name} contains non-finite entries")

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def n_alloc(self) -> int:
        return self.x_grid.size


@dataclass(frozen=True)
class URegions:
    """Decomposition of an allocation sequence into U-shaped regions.

    ``regions`` holds (origin, dest) index pairs, 0-based; ``dest == n`` is
    the sentinel for a region whose allocation never strictly recovers above
    its origin. ``free`` lists the indices outside every region plus each
    region destination that does not itself open the next region.
    """

    regions: tuple
    free: tuple


def u_region_decomposition(x: Sequence) -> URegions:
    """Scan an allocation sequence for U-shaped regions.

    A region opens at the first strict descent of a monotonic run and closes
    at the first later index whose allocation strictly exceeds the origin's;
    equal allocations extend the current run on both sides of the rule.
    """
    x = list(x)
    n = len(x)
    regions = []
    i = 0
    while i < n - 1:
        if x[i + 1] < x[i]:
            origin = i
            dest = n
            for j in range(origin + 1, n):
                if x[j] > x[origin]:
                    dest = j
                    break
            regions.append((origin, dest))
            if dest >= n:
                break
            i = dest
        else:
            i += 1
    # free: outside every region, or a destination that opens no region
    free = [True] * n
    for origin, dest in regions:
        stop = min(dest, n - 1) + 1
        free[origin:stop] = [False] * (stop - origin)
    for _, dest in regions:
        if dest < n:
            free[dest] = True
    for origin, _ in regions:
        free[origin] = False
    return URegions(tuple(regions), tuple(compress(range(n), free)))


def _allocation(inst: OneDimInstance, x_idx: Sequence) -> np.ndarray:
    """x_idx as an index array; StructuralError unless it holds one integer
    index into the allocation grid per type."""
    x = np.asarray(x_idx)
    if x.shape != (inst.n,):
        raise StructuralError("allocation must assign one entry per type")
    if x.dtype.kind not in "iu" or ((x < 0) | (x >= inst.n_alloc)).any():
        raise StructuralError(
            f"allocation entries must be integer indices in [0, {inst.n_alloc})")
    return x


def closed_form_downward_transfers(inst: OneDimInstance, x_idx: Sequence) -> np.ndarray:
    """Componentwise-maximal transfers for the downward-constraint relaxation.

    Each type pays its own gross utility less the rents accumulated along the
    binding chain: local downward steps over the free indices below it, plus
    one origin-anchored term per U-shaped region it sits in or above.

    The result is the downward maximum only when u rises in the type and has
    increasing differences, so any other table raises StructuralError.
    Otherwise the transfers could break participation or IC: u = [[2, 0],
    [2, 2]] with x = (0, 1) would give t = (2, 4), leaving type 1 a payoff
    of -2. An allocation entry that is not an integer index into the grid
    raises StructuralError as well. `solve_full_1d` and `solve_downward_1d`
    run the unchecked kernel and guard its result themselves.
    """
    x = _allocation(inst, x_idx)
    if (np.diff(inst.u, axis=1) < -FEAS_TOL).any():
        raise StructuralError("closed-form transfers need u nondecreasing in the type")
    if (np.diff(np.diff(inst.u, axis=0), axis=1) < -FEAS_TOL).any():
        raise StructuralError("closed-form transfers need u with increasing differences")
    return _closed_form(inst.u, x)


def _closed_form(u: np.ndarray, x_idx: Sequence) -> np.ndarray:
    """`closed_form_downward_transfers` on the table u, with no checks.

    Type i pays u[x_i, i] less the running sum of the local steps
    u[x_j, j + 1] - u[x_j, j] over the free j < i, then less one term per
    region opened below it, region by region. `np.cumsum` adds in type order
    from 0.0, so every transfer is the one a scalar loop over the types
    computes, bit for bit.
    """
    x = np.asarray(x_idx, dtype=np.intp)
    n = x.size
    decomp = u_region_decomposition(x.tolist())
    types = np.arange(n)
    own = u[x, types]
    free = np.array([j for j in decomp.free if j < n - 1], dtype=np.intp)
    step = np.zeros(n)
    step[free + 1] = u[x[free], free + 1] - own[free]
    t = own - np.cumsum(step)
    for origin, dest in decomp.regions:
        row = u[x[origin]]
        t[origin + 1:] -= row[np.minimum(dest, types[origin + 1:])] - row[origin]
    return t


# ---------------------------------------------------------------------------
# constraint-graph oracle
# ---------------------------------------------------------------------------


#: A relaxation must lower a distance by more than this to count, so
#: rounding alone never keeps Bellman-Ford sweeping.
_RELAX_SLACK = 1e-15


def graph_optimal_transfers(inst: OneDimInstance, x_idx: Sequence,
                            constraint_set: str = "downward") -> np.ndarray:
    """Maximal feasible transfers via shortest paths from a virtual source.

    Every enforced constraint `type p must not prefer q's bundle` bounds
    t_p - t_q, and participation bounds each t_p directly, so the feasible
    set is a difference-constraint polyhedron: its componentwise maximum is
    the vector of shortest-path distances, which also maximizes the expected
    transfer because the weights are positive. A negative cycle means the
    allocation is not implementable under the requested constraint set.
    """
    if constraint_set not in ("downward", "all"):
        raise ValueError(f"unknown constraint set {constraint_set!r}")
    u = inst.u
    x_idx = [int(i) for i in x_idx]
    n = inst.n
    edges = []  # (q, p, weight) meaning t_p <= t_q + weight; q == -1 is the source
    for p in range(n):
        edges.append((-1, p, float(u[x_idx[p], p])))
        for q in range(n):
            if q == p:
                continue
            if constraint_set == "downward" and q > p:
                continue
            edges.append((q, p, float(u[x_idx[p], p] - u[x_idx[q], p])))
    dist = [float("inf")] * n
    for _ in range(n + 1):
        changed = False
        for q, p, w in edges:
            base = 0.0 if q == -1 else dist[q]
            if base + w < dist[p] - _RELAX_SLACK:
                dist[p] = base + w
                changed = True
        if not changed:
            break
    else:
        raise NotImplementable("negative cycle: no feasible transfers for this allocation")
    return np.array(dist)


# ---------------------------------------------------------------------------
# binding pattern
# ---------------------------------------------------------------------------


class BindingEntry(NamedTuple):
    kind: str       # "ir", "local", or "region"
    deviator: int   # type whose constraint this is
    target: int     # imitated type (== deviator for "ir")
    residual: float
    binds: bool


@dataclass(frozen=True)
class BindingReport:
    """Which designated constraints hold with equality for (x, t)."""

    entries: tuple

    @property
    def passes(self) -> bool:
        return all(e.binds for e in self.entries)

    def __str__(self) -> str:
        rows = []
        for e in self.entries:
            mark = "=" if e.binds else f"slack {e.residual:.3g}"
            rows.append(f"{e.kind}[{e.deviator}->{e.target}]: {mark}")
        return "\n".join(rows)


def binding_report(inst: OneDimInstance, x_idx: Sequence, t: Sequence,
                   tol: float = FEAS_TOL) -> BindingReport:
    """Check the designated binding set for the downward relaxation.

    Designated constraints: participation of the lowest type, each local
    downward constraint stepping onto a free index, and inside every U-shaped
    region each type's constraint against the region origin. Indices past the
    top type (sentinel destinations) are ignored.
    """
    u = inst.u
    x_idx = [int(i) for i in x_idx]
    t = [float(v) for v in t]
    n = inst.n
    decomp = u_region_decomposition(x_idx)
    entries = []

    residual = u[x_idx[0], 0] - t[0]
    entries.append(BindingEntry("ir", 0, 0, float(residual), abs(residual) <= tol))
    for i in decomp.free:
        if i >= n - 1:
            continue
        lhs = u[x_idx[i + 1], i + 1] - t[i + 1]
        rhs = u[x_idx[i], i + 1] - t[i]
        entries.append(BindingEntry("local", i + 1, i, float(lhs - rhs),
                                    abs(lhs - rhs) <= tol))
    for origin, dest in decomp.regions:
        for i in range(origin + 1, min(dest, n - 1) + 1):
            lhs = u[x_idx[i], i] - t[i]
            rhs = u[x_idx[origin], i] - t[origin]
            entries.append(BindingEntry("region", i, origin, float(lhs - rhs),
                                        abs(lhs - rhs) <= tol))
    return BindingReport(tuple(entries))


# ---------------------------------------------------------------------------
# feasibility checks and evaluation
# ---------------------------------------------------------------------------


def _onedim_payoffs(inst: OneDimInstance, x_idx: Sequence, t: Sequence) -> np.ndarray:
    """Agent table (deviator, target): u[x_q, p] - t_q."""
    return inst.u[_allocation(inst, x_idx)].T - np.asarray(t, dtype=float)


def onedim_ic_violations(inst: OneDimInstance, x_idx: Sequence, t: Sequence,
                         direction: str = "all") -> list:
    """(deviator, target, gain) triples violating IC in the given direction."""
    order = np.arange(inst.n)
    allowed = deviation_mask(order[:, None] <= order[None, :], direction)
    return ic_gains(_onedim_payoffs(inst, x_idx, t), allowed)


def onedim_ir_violations(inst: OneDimInstance, x_idx: Sequence, t: Sequence) -> list:
    return ir_shortfalls(np.diagonal(_onedim_payoffs(inst, x_idx, t)))


def onedim_value(inst: OneDimInstance, x_idx: Sequence, t: Sequence) -> float:
    """Expected principal payoff of (x, t) under truthful play; an
    allocation entry that is not an integer index into the grid raises
    StructuralError."""
    terms = inst.mu * (inst.v[_allocation(inst, x_idx), np.arange(inst.n)]
                       + np.asarray(t, dtype=float))
    # added in type order from 0.0: np.sum would add pairwise
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


# ---------------------------------------------------------------------------
# seeded generator for scalar-type problems
# ---------------------------------------------------------------------------


def random_onedim_instance(seed: int, n: int = 4, n_x: int = 3,
                           surplus_single_crossing: bool = False,
                           stream: int = 0) -> OneDimInstance:
    """Draw a scalar-type instance with strict increasing differences.

    With ``surplus_single_crossing`` the principal table depends on the
    allocation only (plus an optional nonnegative complementarity term), so
    the total surplus inherits single crossing from the agent side.
    """
    from .stochastics import instance_rng

    rng = instance_rng(seed, stream)
    theta = np.round(rng.uniform(0.1, 0.5) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 0.8, n - 1))]), 6)
    mu = rng.uniform(0.25, 1.0, n)
    mu /= mu.sum()
    x_grid = np.round(rng.uniform(0.0, 0.3) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 0.7, n_x - 1))]), 6)
    a_vals = rng.uniform(0.2, 0.5) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.15, 0.5, n - 1))])
    b_vals = rng.uniform(0.0, 0.3) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 0.6, n_x - 1))])
    d_vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.3, n - 1))])
    u = np.outer(b_vals, a_vals) + np.tile(d_vals, (n_x, 1))
    if surplus_single_crossing:
        v = np.tile(rng.uniform(-0.8, 0.8, n_x)[:, None], (1, n))
        if rng.random() < 0.5:
            v = v + rng.uniform(0.0, 0.5) * np.outer(
                np.sort(rng.uniform(0.0, 0.5, n_x)), np.sort(rng.uniform(0.0, 0.5, n)))
    else:
        v = rng.uniform(-1.0, 1.0, (n_x, n))
    return OneDimInstance(theta, mu, x_grid, u, v)
