"""Transfers for one-dimensional screening under downward incentive constraints.

The downward constraints t_p <= t_q + u[x_p, p] - u[x_q, p] (q < p) and
participation t_p <= u[x_p, p] form an acyclic difference system, so one
forward sweep over the types gives the maximal transfers of any allocation
over a sorted scalar type grid, monotone or not (Rochet 1987). For a
nondecreasing allocation, where u rises in the type with increasing
differences, every local downward constraint binds, and the transfers are a
running sum of local steps. The same transfers fall out of
single-source shortest paths on the difference constraint graph, which
this module also implements. That route is O(n^3) and serves only as an
independent oracle: the one-dimensional solvers price with the sweep and
the running sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotImplementable, StructuralError
from .model import (_ROUND_TOL, _grid, _table, _weights,
                    deviation_mask, ic_gains, ir_shortfalls)


@dataclass(frozen=True, eq=False)
class OneDimInstance:
    """Screening problem with a scalar type and full-support weights."""

    theta: np.ndarray   # (n,) strictly increasing
    mu: np.ndarray      # (n,) strictly positive, sums to 1
    x_grid: np.ndarray  # (n_x,) strictly increasing
    u: np.ndarray       # (n_x, n) agent utility
    v: np.ndarray       # (n_x, n) principal utility

    def __post_init__(self):
        object.__setattr__(self, "theta", _grid(self.theta, "theta"))
        object.__setattr__(self, "mu", _weights(self.mu, self.n, "mu"))
        object.__setattr__(self, "x_grid", _grid(self.x_grid, "x_grid"))
        shape = (self.n_alloc, self.n)
        object.__setattr__(self, "u", _table(self.u, shape, "u"))
        object.__setattr__(self, "v", _table(self.v, shape, "v"))

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def n_alloc(self) -> int:
        return self.x_grid.size


def _allocation(inst: OneDimInstance, x_idx: Sequence) -> np.ndarray:
    """x_idx as an index array; StructuralError unless it holds one integer
    index into the allocation grid per type."""
    x = np.asarray(x_idx)
    if x.shape != (inst.n,):
        raise StructuralError("allocation must assign one entry per type")
    # np.asarray reads [0, True] as [0, 1]; an array's own dtype decides
    if (x.dtype.kind not in "iu" or ((x < 0) | (x >= inst.n_alloc)).any()
            or not (isinstance(x_idx, np.ndarray)
                    or {bool, np.bool_}.isdisjoint(map(type, x_idx)))):
        raise StructuralError(
            f"allocation entries must be integer indices in [0, {inst.n_alloc})")
    return x


def closed_form_downward_transfers(inst: OneDimInstance, x_idx: Sequence) -> np.ndarray:
    """Componentwise-maximal transfers for the downward-constraint relaxation.

    The downward constraints and participation form an acyclic difference
    system, so one forward sweep over the types (`_downward_sweep`) gives
    its maximum: each type pays its own gross utility less the most it
    gains by imitating a lower type, or nothing. That holds on every table,
    whether or not u rises in the type or has increasing differences
    (u = [[2, 0], [2, 2]] with x = (0, 1) gives t = (2, 2), where the
    U-region closed form gives (2, 4) and type 1 a payoff of -2). An
    allocation entry that is not an integer index into the grid raises
    StructuralError.
    """
    return _downward_sweep(inst.u, _allocation(inst, x_idx))


def _downward_sweep(u: np.ndarray, x_idx: Sequence) -> np.ndarray:
    """The downward maximum on the table u, with no checks.

    Type by type, t_p = u[x_p, p] - max(0, max over q < p of u[x_q, p] - t_q).
    `solve_downward_1d` prices with the same max and subtraction, so this
    gives its transfers bit for bit.
    """
    x = np.asarray(x_idx, dtype=np.intp)
    t = u[x, np.arange(x.size)]
    for p in range(1, x.size):
        t[p] -= np.maximum((u[x[:p], p] - t[:p]).max(), 0.0)
    return t


def _monotone_transfers(u: np.ndarray, x_idx: Sequence) -> np.ndarray:
    """The downward maximum for a nondecreasing allocation, with no checks.

    Where u rises in the type with increasing differences, every local
    downward constraint binds there, so type i pays u[x_i, i]
    less the running sum of the local steps u[x_j, j + 1] - u[x_j, j] over
    j < i. `np.cumsum` adds down the type axis from 0.0, so every transfer
    is the one a scalar loop over the types computes, bit for bit.
    """
    x = np.asarray(x_idx, dtype=np.intp)
    types = np.arange(x.size)
    own = u[x, types]
    step = np.zeros(x.size)
    step[1:] = u[x[:-1], types[1:]] - own[:-1]
    return own - step.cumsum()


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
    allocation is not implementable under the requested constraint set; a
    bad allocation raises StructuralError, as in `onedim_value`.
    """
    if constraint_set not in ("downward", "all"):
        raise ValueError(f"unknown constraint set {constraint_set!r}")
    u = inst.u
    x_idx = _allocation(inst, x_idx).tolist()
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
            # rounding alone never keeps Bellman-Ford sweeping
            if base + w < dist[p] - _ROUND_TOL:
                dist[p] = base + w
                changed = True
        if not changed:
            break
    else:
        raise NotImplementable("negative cycle: no feasible transfers for this allocation")
    return np.array(dist)


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
    return _onedim_value(inst, _allocation(inst, x_idx), t)


def _onedim_value(inst: OneDimInstance, x: np.ndarray, t: Sequence) -> float:
    """`onedim_value` of an index array x, with no checks."""
    terms = inst.mu * (inst.v[x, np.arange(inst.n)] + np.asarray(t, dtype=float))
    # added in type order: np.sum would add pairwise. A loop from 0.0 gives
    # the same sum but never -0.0, which adding 0.0 turns into +0.0
    return float(terms.cumsum()[-1]) + 0.0

