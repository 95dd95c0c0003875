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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotImplementable, StructuralError
from .model import (FEAS_TOL, PROB_TOL, deviation_mask, ic_gains,
                    ir_shortfalls)


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
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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
    covered = set()
    for origin, dest in regions:
        covered.update(range(origin, min(dest, n - 1) + 1))
    origins = {origin for origin, _ in regions}
    dests = {dest for _, dest in regions if dest < n}
    free = tuple(j for j in range(n)
                 if j not in covered or (j in dests and j not in origins))
    return URegions(tuple(regions), free)


def closed_form_downward_transfers(inst: OneDimInstance, x_idx: Sequence,
                                   *, _u_rows=None) -> np.ndarray:
    """Componentwise-maximal transfers for the downward-constraint relaxation.

    Each type pays its own gross utility less the rents accumulated along the
    binding chain: local downward steps over the free indices below it, plus
    one origin-anchored term per U-shaped region it sits in or above.

    The result is the downward maximum only when u rises in the type and has
    increasing differences. Otherwise it can break participation or IC:
    u = [[2, 0], [2, 2]] with x = (0, 1) gives t = (2, 4), leaving type 1 a
    payoff of -2. Nothing here checks the table; `solve_full_1d` raises
    StructuralError when the transfers fail its IC and participation check,
    and `solve_downward_1d` keeps its sweep's transfers where the two differ.
    """
    u = _u_rows if _u_rows is not None else inst.u.tolist()
    x_idx = [int(i) for i in x_idx]
    if len(x_idx) != inst.n:
        raise StructuralError("allocation must assign one entry per type")
    decomp = u_region_decomposition(x_idx)
    n = inst.n
    free = set(decomp.free)
    t = [0.0] * n
    local_acc = 0.0
    for i in range(n):
        ti = u[x_idx[i]][i] - local_acc
        for origin, dest in decomp.regions:
            if origin < i:
                row = u[x_idx[origin]]
                ti -= row[min(dest, i)] - row[origin]
        t[i] = ti
        if i in free and i < n - 1:
            row = u[x_idx[i]]
            local_acc += row[i + 1] - row[i]
    return np.array(t)


# ---------------------------------------------------------------------------
# constraint-graph oracle
# ---------------------------------------------------------------------------


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
            if base + w < dist[p] - 1e-15:
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
    return inst.u[np.asarray(x_idx, dtype=int)].T - np.asarray(t, dtype=float)


def onedim_ic_violations(inst: OneDimInstance, x_idx: Sequence, t: Sequence,
                         direction: str = "all") -> list:
    """(deviator, target, gain) triples violating IC in the given direction."""
    order = np.arange(inst.n)
    allowed = deviation_mask(order[:, None] <= order[None, :], direction)
    return ic_gains(_onedim_payoffs(inst, x_idx, t), allowed)


def onedim_ir_violations(inst: OneDimInstance, x_idx: Sequence, t: Sequence) -> list:
    return ir_shortfalls(np.diagonal(_onedim_payoffs(inst, x_idx, t)))


def onedim_value(inst: OneDimInstance, x_idx: Sequence, t: Sequence) -> float:
    """Expected principal payoff of (x, t) under truthful play."""
    total = 0.0
    for p in range(inst.n):
        total += float(inst.mu[p]) * (float(inst.v[int(x_idx[p]), p]) + float(t[p]))
    return total


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
