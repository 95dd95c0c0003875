"""Exact solvers: downward relaxation, full IC, and the joint problem.

Everything here is a certificate, not an estimate: solvers enumerate or use
exact dynamic programming, and refuse (SizeGuardExceeded) rather than sample
when a problem is too large. Ties break deterministically toward the
lexicographically smallest allocation.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice
from math import comb, prod
from operator import add
from typing import Callable, Sequence

import numpy as np

from .errors import SizeGuardExceeded, StructuralError
from .model import (FEAS_TOL, JointDistribution, Mechanism, ScreeningInstance)
from .stochastics import LevelCouplings, level_couplings, scalar_levels
from .transfers import OneDimInstance, _closed_form, onedim_value

#: Default ceiling on the allocations or assignment rows an exact solver
#: enumerates or prices.
DEFAULT_GUARD = 10 ** 7

#: Prefixes of one depth (allocations at the last) that `solve_downward_1d`
#: prices per block of its prefix tree.
_DOWNWARD_CHUNK = 1 << 14

#: Cells in the tables of one block of prefixes, seed menus or leaves that
#: `solve_joint` extends or prices (at least one row per block), and of one
#: block of its line search.
_JOINT_CHUNK = 1 << 14

#: Bellman-Ford slack: distances that still fall by more than this after m
#: sweeps reveal a negative cycle, an assignment no transfers implement.
_CYCLE_TOL = 1e-12


@dataclass(frozen=True)
class SolveResult:
    """Solution of a scalar-type problem."""

    mode: str
    value: float
    x_idx: tuple
    t: tuple
    certificate: dict


@dataclass(frozen=True)
class JointSolveResult:
    """Solution of the joint problem over all instruments."""

    value: float
    mechanism: Mechanism
    some_optimum_baseline: bool  # an optimum keeps every instrument at y0
    all_optima_baseline: bool    # every optimum does
    certificate: dict


def productive_marginal(inst: ScreeningInstance,
                        levels: LevelCouplings | None = None) -> OneDimInstance:
    """Scalar-type problem induced by ignoring the costly instruments; pass
    `levels`, a computed `level_couplings(inst)`, to reuse its level table."""
    a, mu = (scalar_levels(inst)[:2] if levels is None
             else (levels.a_indices, levels.a_probs))
    p = inst.productive
    theta, u, v = p.theta_a[a], p.u_a[:, a], p.v_a[:, a]
    for fresh in (theta, u, v):
        fresh.setflags(write=False)  # shared by the instance, not copied
    return OneDimInstance(theta, mu, p.x_grid, u, v)


# ---------------------------------------------------------------------------
# scalar-type solvers
# ---------------------------------------------------------------------------


def solve_downward_1d(inst: OneDimInstance,
                      guard: int = DEFAULT_GUARD) -> SolveResult:
    """Maximize expected payoff subject to downward IC and participation only.

    Enumerates every allocation (size-guarded) in lexicographic order and
    keeps the lexicographically smallest maximizer. Optimal allocations here
    may be non-monotone.

    The downward constraints t_p <= t_q + u[x_p, p] - u[x_q, p] (q < p) and
    participation t_p <= u[x_p, p] form an acyclic difference system, so one
    forward sweep over the types gives every allocation its maximal
    transfers (Rochet 1987). Type p's transfer depends only on x_0 .. x_p, so
    the sweep runs on the prefix tree of the allocations: each prefix prices
    its last type once, from its parent's running rents
    M[q'] = max over placed q of u[x_q, q'] - t_q for the types q' still to
    place, and extends the payoff, summed type by type from 0.0. Max is
    exact, so every allocation gets the flat sweep's values bit for bit. The
    tree is walked depth first in blocks of at most `_DOWNWARD_CHUNK`
    prefixes of one depth, the last digit fastest, so the leaves come in
    lexicographic order and memory stays bounded.

    The sweep rounds differently from the closed form, so the leaves whose
    sweep value comes within a magnitude-scaled tolerance of the running
    maximum are decoded, swept again for their transfers and re-priced with
    the closed form, one call per block, before the strict comparison in
    enumeration order; the result is that of closed-form pricing of every
    allocation, bit for bit.
    Where the closed form leaves the sweep by more than the tolerance, the
    table breaks the model's assumptions (u falls in the type or differences
    decrease), the closed form is infeasible and the sweep's transfers stay.
    """
    n, n_alloc = inst.n, inst.n_alloc
    total = n_alloc ** n
    if total > guard:
        raise SizeGuardExceeded("downward enumeration too large", total, guard)
    # far above rounding, which is O(n * 1e-16) of the table's magnitude. A
    # re-priced value lies within tol plus rounding of its sweep value, so
    # every maximizer's sweep value comes within 3 * tol of the sweep maximum
    tol = FEAS_TOL * n * (1.0 + np.abs(inst.u).max() + np.abs(inst.v).max())
    u, mu = inst.u, inst.mu
    u_by_type = np.ascontiguousarray(u.T)
    v_by_type = np.ascontiguousarray(inst.v.T)

    def payoff(x, t):
        # summed type by type from 0.0, like a scalar loop over the types
        surplus = np.take_along_axis(v_by_type, x, axis=1) + t
        values = np.zeros(x.shape[1])
        for p in range(n):
            values += mu[p] * surplus[p]
        return values

    sweep_best = best = -np.inf
    best_x = best_t = None
    # pending blocks: (depth, first parent id, the parents' rents M for the
    # types from the depth on and partial payoffs S, child id range); ids
    # number the prefixes of one depth lexicographically
    stack = [(0, 0, np.full((1, n), -np.inf), np.zeros(1), 0, n_alloc)]
    while stack:
        depth, first, M, S, lo, hi = stack.pop()
        # priced as (parent, digit) tables over the parents of children
        # lo .. hi - 1, then cut to those children (at most 2 * n_alloc more)
        a, b = lo // n_alloc - first, -(-hi // n_alloc) - first
        cut = slice(lo % n_alloc, lo % n_alloc + hi - lo)
        M, S = M[a:b], S[a:b]
        # the most type `depth` gains by imitating a lower type, or 0
        t = u_by_type[depth] - np.maximum(M[:, :1], 0.0)
        S = (S[:, None] + mu[depth] * (v_by_type[depth] + t)).ravel()[cut]
        if depth + 1 < n:
            M = np.maximum(M[:, None, 1:], u[:, depth + 1:] - t[:, :, None])
            M = M.reshape(-1, n - depth - 1)[cut]
            starts = range(lo * n_alloc, hi * n_alloc, _DOWNWARD_CHUNK)
            stack.extend((depth + 1, lo, M, S, start,
                          min(start + _DOWNWARD_CHUNK, hi * n_alloc))
                         for start in reversed(starts))
            continue
        sweep_best = max(sweep_best, S.max())
        near = lo + np.flatnonzero(S >= sweep_best - 3 * tol)
        if near.size == 0:
            continue
        x = np.ascontiguousarray(_decode(near, n, n_alloc).T)  # (n, near)
        t = np.take_along_axis(u_by_type, x, axis=1)           # u[x_p, p]
        for p in range(1, n):
            t[p] -= np.maximum((u_by_type[p].take(x[:p]) - t[:p]).max(axis=0), 0.0)
        closed = _closed_form(u, x)
        agree = np.abs(closed - t).max(axis=0) <= tol
        t[:, agree] = closed[:, agree]
        values = payoff(x, t)
        k = int(np.argmax(values))
        if values[k] > best:
            best, best_x, best_t = float(values[k]), x[:, k], t[:, k]
    return SolveResult("downward1d", best, tuple(best_x.tolist()),
                       tuple(best_t.tolist()),
                       {"method": "enumeration", "enumerated": total})


def solve_full_1d(inst: OneDimInstance) -> SolveResult:
    """Maximize expected payoff subject to all IC and participation.

    Under the model assumptions the optimum uses a nondecreasing allocation
    with every local downward constraint binding, so each type contributes
    its weighted virtual surplus and an exact dynamic program over monotone
    allocations finds the optimum; no ironing step is needed. Transfers come
    from the O(n) closed form of the downward relaxation. The lowest type's
    participation and every local downward constraint bind there, so these
    transfers bound every feasible vector from above; a level-wise check that
    they also satisfy every IC and participation constraint makes them the
    full-IC maximum (Rochet 1987, cycle monotonicity). The check needs
    O(n * n_x) work: a type's best deviation takes the cheapest transfer
    among the types allocated each level.

    The dynamic program runs on Python lists, a running suffix maximum per
    stage and a first-match backtrack, so ties go to the lowest allocation.
    """
    n, n_alloc = inst.n, inst.n_alloc
    u, v, mu = inst.u, inst.v, inst.mu
    tail = np.concatenate([np.cumsum(mu[::-1])[::-1][1:], [0.0]])  # tail[j] = sum_{i>j} mu_i
    contrib = mu[:, None] * (u.T + v.T)
    contrib[:-1] -= (u.T[1:] - u.T[:-1]) * tail[:-1, None]
    # M[j][c] = contrib + best continuation; G[j][c] = max over allocations >= c
    rows = contrib.tolist()
    G = [0.0] * n_alloc
    stage_m = [None] * n
    stage_g = [None] * n
    downward = range(n_alloc - 2, -1, -1)
    for j in range(n - 1, -1, -1):
        M = list(map(add, rows[j], G))
        G = M[:]
        best = G[-1]  # running suffix maximum; a tie keeps the lower index
        for c in downward:
            g = G[c]
            if best > g:
                G[c] = best
            else:
                best = g
        stage_m[j], stage_g[j] = M, G
    x_idx = []
    floor = 0
    for M, G in zip(stage_m, stage_g):
        floor = M.index(G[floor], floor)
        x_idx.append(floor)
    t = _closed_form(u, x_idx)
    cheapest = np.full(n_alloc, np.inf)
    np.minimum.at(cheapest, x_idx, t)
    # best of mimicking each level at its cheapest transfer and opting out
    best_deviation = np.maximum((u - cheapest[:, None]).max(axis=0), 0.0)
    gain = best_deviation - (u[x_idx, np.arange(n)] - t)
    worst = int(np.argmax(gain))
    if gain[worst] > FEAS_TOL:
        raise StructuralError(
            f"closed-form transfers leave type {worst} a deviation gain of "
            f"{gain[worst]:.3g}; instance likely violates increasing "
            f"differences")
    value = onedim_value(inst, x_idx, t)
    dp_value = stage_g[0][0]
    if abs(value - dp_value) > FEAS_TOL:
        raise StructuralError(
            f"full-IC transfers disagree with the dynamic program "
            f"({value:.12g} vs {dp_value:.12g}); instance likely violates "
            f"increasing differences")
    return SolveResult("full1d", float(value), tuple(x_idx),
                       tuple(t.tolist()), {"method": "monotone_dp", "stages": n})


# ---------------------------------------------------------------------------
# joint solver
# ---------------------------------------------------------------------------


def _decode(ids: np.ndarray, m: int, n_opts: int) -> np.ndarray:
    digits = np.empty((ids.size, m), dtype=np.int64)
    rem = ids.copy()
    for p in range(m - 1, -1, -1):
        digits[:, p] = rem % n_opts
        rem //= n_opts
    return digits


def _batch_transfers(U: np.ndarray, allocs: np.ndarray):
    """Maximal feasible transfers per allocation row; -inf rows are infeasible.

    U is the (support point, option) utility table. Runs Bellman-Ford on all
    rows at once: distances start at the participation caps and relax through
    every deviation edge until stable.
    """
    C, m = allocs.shape
    idx = np.arange(m)
    Ualloc = U[idx[None, :], allocs]                      # (C, m)
    T = U[idx[None, :, None], allocs[:, None, :]]         # (C, m, m): U_p(a_q)
    W = Ualloc[:, :, None] - T                            # edge weight q -> p
    D = Ualloc.copy()
    for _ in range(m):
        cand = (D[:, None, :] + W).min(axis=2)
        newD = np.minimum(D, cand)
        if np.array_equal(newD, D):
            break
        D = newD
    cand = (D[:, None, :] + W).min(axis=2)
    infeasible = (cand < D - _CYCLE_TOL).any(axis=1)
    return D, infeasible


def _price(U: np.ndarray, VG: np.ndarray, prob: np.ndarray, allocs: np.ndarray):
    """Expected principal value and transfers of each assignment row.

    Infeasible rows get value -inf. A row's result does not depend on the
    other rows of the batch, so any batching prices an assignment alike.
    """
    D, infeasible = _batch_transfers(U, allocs)
    idx = np.arange(allocs.shape[1])
    values = (prob[None, :] * (VG[idx[None, :], allocs] + D)).sum(axis=1)
    values[infeasible] = -np.inf
    return values, D


def _option_tables(inst: ScreeningInstance):
    """Options in x-major order, and the agent's and the principal's gross
    utility of each (support point, option): opt_x, opt_y, U, VG."""
    prod, cost = inst.productive, inst.costly
    opt_x = np.repeat(np.arange(prod.n_alloc), cost.n_alloc)
    opt_y = np.tile(np.arange(cost.n_alloc), prod.n_alloc)
    ia, ib = np.array(inst.dist.support).reshape(-1, 2).T
    U = prod.u_a[opt_x][:, ia].T + cost.u_b[opt_y][:, ib].T
    VG = prod.v_a[opt_x][:, ia].T + cost.v_b[opt_y][:, ib].T
    return opt_x, opt_y, U, VG


def _chain(inst: ScreeningInstance, levels: LevelCouplings):
    """Level of each support point, and c[p, q]: the mass the coupling of
    levels j and j + 1 sends from p at level j to q, zero unless q lies at
    level j + 1."""
    ia, ib = np.array(inst.dist.support).reshape(-1, 2).T
    lv = np.searchsorted(levels.a_indices, ia)
    n_b = levels.cond.shape[1]
    mu = np.concatenate((np.reshape(levels.couplings, (-1, n_b, n_b)),
                         np.zeros((1, n_b, n_b))))  # no level above the top
    return lv, mu[lv[:, None], ib[:, None], ib[None, :]] * (lv[None, :] == lv[:, None] + 1)


def _path_rent_bound(inst: ScreeningInstance, levels: LevelCouplings,
                     U: np.ndarray, VG: np.ndarray):
    """The path-rent bound: (g, lift) with value <= sum_p g[p, a_p] + lift.

    Holds for every assignment a and its maximal IC and IR transfers. For
    support point p at level j, with T_j the mass of the levels above j and
    mu_j the coupling of levels j and j + 1,

        g[p, a] = prob_p (U_p(a) + VG_p(a)) - T_j sum_q mu_j(p, q) (U_q(a) - U_p(a)).

    IC of q against p's option bounds q's rent below by p's rent plus
    U_q(a_p) - U_p(a_p); weighting those constraints by T_j mu_j(p, q) chains
    every point's rent down to the participation of the lowest level
    (Myerson 1981, taken along the couplings). Any coupling will do. The
    chain is exact when every point sends out no more weight than its mass
    plus what it receives; couplings read off the integer max-flow miss
    their marginals by up to MASS_TOL, and `lift` prices that shortfall at
    the largest rent any point can get, (m - 1) times the largest gain of
    one point over another from the same option.
    """
    prob = np.asarray(inst.dist.prob)
    lv, c = _chain(inst, levels)
    above = np.append(np.cumsum(levels.a_probs[::-1])[::-1][1:], 0.0)
    # weight[p, q]: multiplier of q's IC against p's option, q one level up
    weight = above[lv][:, None] * c
    inflow = weight.sum(axis=1)
    g = prob[:, None] * (U + VG) - (weight @ U - inflow[:, None] * U)
    shortfall = np.maximum(weight.sum(axis=0) - inflow - prob, 0.0).sum()
    return g, shortfall * (len(prob) - 1) * float(np.ptp(U, axis=0).max())


def _ironing_terms(inst: ScreeningInstance, levels: LevelCouplings,
                   U: np.ndarray):
    """The upward-IC terms of the path-rent bound: (lv, down, up).

    With c from `_chain`, down[p] = sum_q c(p, q) (U_q - U_p) and
    up[q] = sum_p c(p, q) (U_q - U_p), over every option. For the level
    pair j and any mu_j >= 0, adding -mu_j down to the rows of g at level j
    (lv == j) and mu_j up to those at level j + 1 keeps the bound of
    `_path_rent_bound`: it weights q's IC against p's option and p's IC
    against q's option both by mu_j c(p, q), so the rents cancel and the
    pair adds mu_j c (U_q(a_q) - U_p(a_q) - U_q(a_p) + U_p(a_p)), at least
    0 by the two constraints. Every point's net outflow stays as it was, so
    `lift` needs no change.
    """
    lv, c = _chain(inst, levels)
    return (lv, c @ U - c.sum(axis=1)[:, None] * U,
            c.sum(axis=0)[:, None] * U - c.T @ U)


def _line_min(G: np.ndarray, h: np.ndarray) -> float:
    """A mu >= 0 minimising sum_r max_a (G[r, a] + mu h[r, a]).

    The sum is convex and piecewise linear in mu, so its minimum lies at 0
    or at a kink of some row's upper envelope. A line leaves its row's
    envelope, if ever, where the first steeper line crosses it, so those
    points, at most one per line, hold every kink; the sum is tried there
    and just beyond the last. Of a flat stretch of minima the middle is
    taken: no row's lines cross inside it, so the move leaves no new tie
    for the root filter to keep, and the search does not stall at a kink
    where only a joint move of two multipliers lowers the bound. A stretch
    open to the right keeps its left end. Tables are built in blocks of
    about `_JOINT_CHUNK` cells.
    """
    step = max(1, _JOINT_CHUNK // G.size)
    leave = []
    for k in range(0, G.shape[1], step):
        rise = h[:, None, :] - h[:, k:k + step, None]    # [r, a, b]: h_b - h_a
        cross = np.divide(G[:, k:k + step, None] - G[:, None, :], rise,
                          out=np.full(rise.shape, np.inf), where=rise > 0)
        leave.append(cross.min(axis=2).ravel())
    mus = np.concatenate(leave)
    mus = np.sort(mus[(mus > 0) & (mus < np.inf)])
    mus = np.concatenate(([0.0], mus, [2 * mus[-1] + 1 if mus.size else 1.0]))
    total = np.concatenate([
        (G[:, :, None] + h[:, :, None] * mus[k:k + step]).max(axis=1).sum(axis=0)
        for k in range(0, mus.size, step)])
    at_min = np.flatnonzero(total == total.min())
    lo, hi = mus[at_min[0]], mus[at_min[-1]]
    return float(lo if at_min[-1] == mus.size - 1 else 0.5 * (lo + hi))


def _iron(g: np.ndarray, terms, pairs: list, target: float) -> np.ndarray:
    """Lower the root bound sum_p max_a g[p, a] toward `target` by upward
    multipliers on the level `pairs`, `terms` being `_ironing_terms`: one
    exact line search per pair in turn, until the bound reaches the target
    or a whole pass lowers it by no more than FEAS_TOL."""
    lv, down, up = terms
    g = g.copy()
    mu = dict.fromkeys(pairs, 0.0)
    root = g.max(axis=1).sum()
    while root > target:
        start = root
        for j in pairs:
            rows = np.flatnonzero((lv == j) | (lv == j + 1))
            h = np.where((lv[rows] == j)[:, None], -down[rows], up[rows])
            base = g[rows] - mu[j] * h
            mu[j] = _line_min(base, h)
            g[rows] = base + mu[j] * h
            root = g.max(axis=1).sum()
            if root <= target:
                return g
        if root >= start - FEAS_TOL:
            break
    return g


def solve_joint(inst: ScreeningInstance, guard: int = DEFAULT_GUARD,
                levels: LevelCouplings | None = None,
                full1d: SolveResult | None = None) -> JointSolveResult:
    """Exact optimum of the joint problem: a root bound decides, and a
    search classifies what the bound leaves.

    Every support point independently receives one (x, y) option; transfers
    are the componentwise-maximal feasible point of the full IC + IR system
    for that assignment.

    The bound is the paper's proof. Chaining each point's IC against the
    level below along a coupling of adjacent conditional costly laws bounds
    every IC assignment's value by a separable virtual surplus,
    sum_p g_p(a_p) + lift (`_path_rent_bound`). It holds for any coupling;
    `levels` (default `level_couplings(inst)`) supplies the monotone one
    where the paper's assumption holds, which makes it tight, and the
    product coupling on unordered pairs. Its root value, the sum of
    max_a g_p(a) plus the lift, caps the optimum; the certificate's
    `root_certified` says it equals it, so the bound alone proves the
    optimal value.

    The first row priced is the full-IC productive optimum (`full1d`,
    default `solve_full_1d` of the productive marginal) with every
    instrument at baseline. Where the root misses that row by more than
    FEAS_TOL, the bound is ironed: each level pair the full1d allocation
    pools gets an upward multiplier mu_j >= 0 along the same coupling
    (`_ironing_terms`; Myerson 1981, Rochet 1987), chosen by exact line
    search over the breakpoints of the convex root bound until it meets the
    row. Any mu >= 0 keeps the bound sound. Only when the row still misses
    does the seed enumerate the baseline-only menus that give every support
    point of a productive level the same allocation, nondecreasing in the
    level: C(n_x + L - 1, L) assignments for L levels and n_x allocations.
    Each seed row is a real assignment priced exactly, so the incumbent
    `best` is a feasible value or -inf and never above the optimum. Where
    u_a has strict increasing differences the monotone seed is the best of
    all baseline-only assignments: implementability makes one nondecreasing
    in the level (Mussa and Rosen 1978; Rochet 1987), and the points of one
    level differ at y0 only by constants, so moving them all to the option
    worth more to the principal keeps every constraint and does not lower
    the value.

    The root then filters the options. Any assignment within FEAS_TOL of
    the optimum has sum_p g_p(a_p) + lift >= best - FEAS_TOL, so no point
    gives up more than slack = root - best + FEAS_TOL of its best g, and
    each point keeps only the options within the slack of its maximum.
    The size guard bounds the rows the solver may price, the seed menus
    plus the kept product. When that product is the lifted row alone, it is
    the answer. Otherwise a depth-first search assigns support points in
    support order, extending blocks of prefixes by every kept option in
    lexicographic order, and drops a prefix when its surplus plus the most
    surplus the remaining points can add (sound: transfers never exceed
    willingness to pay), or its partial g plus the most g they can add,
    falls below the incumbent. Prefix, menu and leaf blocks are sized so
    that their tables, m * m cells per priced row, hold about
    `_JOINT_CHUNK` cells, however large the support. Leaf pricing rejects
    every assignment no transfers implement (a negative IC cycle). Every
    test allows FEAS_TOL, so no assignment within FEAS_TOL of the optimum
    is dropped: the optimal set is classified exactly, ties kept, and the
    mechanism is the lexicographically smallest assignment of the maximal
    value.
    """
    cost, dist = inst.costly, inst.dist
    levels = level_couplings(inst) if levels is None else levels
    if full1d is None:
        try:
            full1d = solve_full_1d(productive_marginal(inst, levels))
        except StructuralError:
            pass  # off the assumptions; the monotone seed stands in
    prob, m = np.asarray(dist.prob), inst.n_support
    opt_x, opt_y, U, VG = _option_tables(inst)
    g, lift = _path_rent_bound(inst, levels, U, VG)
    level_of = np.searchsorted(levels.a_indices, [a for a, _ in dist.support])
    certificate = {"method": "branch_and_bound",
                   "enumerated": opt_x.size ** m}

    best = -np.inf
    n_evaluated = 0
    if full1d is not None:
        x = full1d.x_idx
        lifted = np.array(x)[level_of] * cost.n_alloc + cost.y0_index
        values, D = _price(U, VG, prob, lifted[None, :])
        best, n_evaluated = float(values[0]), 1
        pooled = [j for j in range(len(x) - 1) if x[j] == x[j + 1]]
        if pooled and g.max(axis=1).sum() + lift > best + FEAS_TOL:
            g = _iron(g, _ironing_terms(inst, levels, U), pooled,
                      best + FEAS_TOL - lift)
    root = float(g.max(axis=1).sum()) + lift
    n_seed = 0
    if best < root - FEAS_TOL:
        n_x, n_levels = inst.productive.n_alloc, levels.a_indices.size
        n_seed = comb(n_x + n_levels - 1, n_levels)
        if n_seed > guard:
            raise SizeGuardExceeded("joint search too large", n_seed, guard)
        menus = combinations_with_replacement(range(n_x), n_levels)
        # (menus, m, m) pricing tables of about _JOINT_CHUNK cells
        while block := list(islice(menus, max(1, _JOINT_CHUNK // m ** 2))):
            menu_x = np.array(block)[:, level_of]
            seed_values, _ = _price(U, VG, prob,
                                    menu_x * cost.n_alloc + cost.y0_index)
            n_evaluated += len(block)
            best = max(best, float(seed_values.max()))

    kept = [np.flatnonzero(row) for row in
            g >= g.max(axis=1, keepdims=True) - (root - best + FEAS_TOL)]
    n_kept = prod(k.size for k in kept)
    if n_seed + n_kept > guard:
        raise SizeGuardExceeded("joint search too large", n_seed + n_kept, guard)
    certificate["kept"] = n_kept
    if n_kept == 1 and full1d is not None and [k[0] for k in kept] == lifted.tolist():
        mech = Mechanism(tuple(opt_x[lifted]), tuple(opt_y[lifted]),
                         tuple(float(t) for t in D[0]))
        return JointSolveResult(best, mech, True, True, {
            **certificate, "evaluated": n_evaluated, "nodes": 0, "optima": 1,
            "root_certified": bool(root <= best + FEAS_TOL)})
    n_nodes = 0

    def depth_first():
        # prefixes in support order, extended and priced in blocks whose
        # tables hold about _JOINT_CHUNK cells; leaves come out in
        # lexicographic order
        nonlocal n_nodes
        block = max(1, _JOINT_CHUNK // (m * max(m, max(k.size for k in kept))))
        surplus = [prob[p] * (U[p, k] + VG[p, k]) for p, k in enumerate(kept)]
        gain = [g[p, k] for p, k in enumerate(kept)]
        # rest[d], bound[d]: the most surplus and g points d, ..., m - 1 can add
        rest = np.append(np.cumsum([s.max() for s in surplus][::-1])[::-1], 0.0)
        bound = np.append(np.cumsum([s.max() for s in gain][::-1])[::-1], 0.0) + lift
        stack = [(np.zeros((1, 0), dtype=np.intp), np.zeros(1), np.zeros(1))]
        while stack:
            prefixes, partial, partial_g = stack.pop()
            d = prefixes.shape[1]
            if d == m:
                yield prefixes
                continue
            child = partial[:, None] + surplus[d]                 # (k, kept)
            child_g = partial_g[:, None] + gain[d]
            floor = best - FEAS_TOL
            alive = (child >= floor - rest[d + 1]) & (child_g >= floor - bound[d + 1])
            rows, opts = np.nonzero(alive)
            n_nodes += rows.size
            prefixes = np.column_stack((prefixes[rows], kept[d][opts]))
            partial, partial_g = child[rows, opts], child_g[rows, opts]
            for start in reversed(range(0, rows.size, block)):
                span = slice(start, start + block)
                stack.append((prefixes[span], partial[span], partial_g[span]))

    cand_vals = []
    cand_base = []
    best_val = -np.inf
    best_alloc = best_t = None
    # the first strict improvement in lexicographic order is the smallest
    # assignment of the maximal value
    for leaves in depth_first():
        values, D = _price(U, VG, prob, leaves)
        n_evaluated += leaves.shape[0]
        i = int(np.argmax(values))
        top = float(values[i])
        if top > best_val:
            best_val, best_alloc, best_t = top, leaves[i].copy(), D[i].copy()
        best = max(best, top)
        near = values >= best - FEAS_TOL
        cand_vals.append(values[near])
        cand_base.append((opt_y[leaves[near]] == cost.y0_index).all(axis=1))

    if best_alloc is None:
        raise StructuralError("joint search found no feasible assignment")
    optimal = np.concatenate(cand_vals) >= best_val - FEAS_TOL
    baseline_mask = np.concatenate(cand_base)[optimal]
    mech = Mechanism(tuple(opt_x[best_alloc]), tuple(opt_y[best_alloc]),
                     tuple(float(t) for t in best_t))
    return JointSolveResult(
        best_val, mech, bool(baseline_mask.any()), bool(baseline_mask.all()),
        {**certificate, "evaluated": n_evaluated, "nodes": n_nodes,
         "optima": int(baseline_mask.size),
         "root_certified": bool(root <= best_val + FEAS_TOL)})


# ---------------------------------------------------------------------------
# grid convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceFamily:
    """Continuous-type family sampled onto left-endpoint grids."""

    u: Callable      # u(x, theta)
    v: Callable      # v(x, theta)
    x_grid: np.ndarray
    cdf: Callable = staticmethod(lambda q: q)  # type distribution on [0, 1]
    name: str = "family"


def default_convergence_family() -> ConvergenceFamily:
    return ConvergenceFamily(
        u=lambda x, th: th * x,
        v=lambda x, th: -0.5 * x,
        x_grid=np.linspace(0.0, 1.0, 6),
        name="linear-costly-supply")


@dataclass(frozen=True)
class ConvergenceStudy:
    levels: tuple
    values: tuple

    @property
    def gaps(self) -> tuple:
        return tuple(abs(self.values[i + 1] - self.values[i])
                     for i in range(len(self.values) - 1))


def discretize_family(family: ConvergenceFamily, n: int) -> OneDimInstance:
    """Left-endpoint discretization with interval masses."""
    theta = np.arange(n) / n
    edges = np.arange(n + 1) / n
    mu = np.array([family.cdf(edges[i + 1]) - family.cdf(edges[i]) for i in range(n)])
    x_grid = np.asarray(family.x_grid, dtype=float)
    u = np.array([[family.u(x, th) for th in theta] for x in x_grid])
    v = np.array([[family.v(x, th) for th in theta] for x in x_grid])
    return OneDimInstance(theta, mu, x_grid, u, v)


def grid_convergence_study(family: ConvergenceFamily,
                           levels: Sequence = (8, 16, 32, 64)) -> ConvergenceStudy:
    """Solve the full-IC problem on successively finer type grids."""
    values = []
    for n in levels:
        inst = discretize_family(family, int(n))
        values.append(solve_full_1d(inst).value)
    return ConvergenceStudy(tuple(int(n) for n in levels), tuple(values))
