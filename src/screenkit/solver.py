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

import numpy as np

from .errors import SizeGuardExceeded, StructuralError
from .model import _ROUND_TOL, FEAS_TOL, Mechanism, ScreeningInstance
from .stochastics import LevelCouplings
from .transfers import (OneDimInstance, _downward_sweep, _monotone_transfers,
                        _onedim_value)

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


def productive_marginal(inst: ScreeningInstance) -> OneDimInstance:
    """Scalar-type problem induced by ignoring the costly instruments, on
    the instance's level table."""
    a, mu, _ = inst.levels
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
    keeps the lexicographically smallest maximizer of the sweep's values.
    Optimal allocations here may be non-monotone.

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

    The first strict maximum of the leaves' values in that order wins, and
    `_downward_sweep` prices its transfers with the tree's own max and
    subtraction, bit for bit.
    """
    n, n_alloc = inst.n, inst.n_alloc
    total = n_alloc ** n
    if total > guard:
        raise SizeGuardExceeded("downward enumeration too large", total, guard)
    u, mu = inst.u, inst.mu
    u_by_type = np.ascontiguousarray(u.T)
    v_by_type = np.ascontiguousarray(inst.v.T)
    best, best_id = -np.inf, 0
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
        k = int(np.argmax(S))
        if S[k] > best:
            best, best_id = float(S[k]), lo + k
    x = np.unravel_index(best_id, (n_alloc,) * n)
    return SolveResult("downward1d", best, tuple(map(int, x)),
                       tuple(_downward_sweep(u, x).tolist()),
                       {"method": "enumeration", "enumerated": total})


def solve_full_1d(inst: OneDimInstance) -> SolveResult:
    """Maximize expected payoff subject to all IC and participation.

    Under the model assumptions the optimum uses a nondecreasing allocation
    with every local downward constraint binding, so each type contributes
    its weighted virtual surplus and an exact dynamic program over monotone
    allocations finds the optimum; no ironing step is needed. Transfers come
    from the O(n) running sum of local steps (`_monotone_transfers`), the
    downward maximum of a monotone allocation. The lowest type's
    participation and every local downward constraint bind there, so these
    transfers bound every feasible vector from above; a level-wise check that
    they also satisfy every IC and participation constraint makes them the
    full-IC maximum (Rochet 1987, cycle monotonicity). The check needs
    O(n * n_x) work: a type's best deviation takes the cheapest transfer
    among the types allocated each level.

    The dynamic program runs over the n_x - 1 allocation steps, not the
    types. A nondecreasing allocation is the same as its thresholds
    k_1 <= ... <= k_S (S = n_x - 1), k_s the first type with x >= s (n if
    none). Its value is the sum of surplus[0, j] over the types plus
    D_1(k_1) + ... + D_S(k_S), where D_s(k) sums surplus[s, j] -
    surplus[s - 1, j] over the types j >= k; one reversed `cumsum` gives
    every D_s. Going down the steps, stage s adds to D_s the best the steps
    above can do with thresholds from k on, a reversed running maximum. The
    backtrack takes the largest maximizer k_1, then at each later step the
    largest maximizer at or above the last threshold, one `searchsorted` on
    the running maximum. A larger early threshold means lower early
    allocations, so this is the lexicographically smallest optimum.
    """
    n, n_alloc = inst.n, inst.n_alloc
    u, v, mu = inst.u, inst.v, inst.mu
    # surplus[c, j]: type j's weighted virtual surplus at allocation c; then
    # every row above the first less the row below it
    surplus = mu * (u + v)
    surplus[:, :-1] -= (u[:, 1:] - u[:, :-1]) * mu[:0:-1].cumsum()[::-1]
    surplus[1:] -= surplus[:-1]
    # R[s, r] over r = n - k: the sum of surplus[s, j] over j >= k, which is
    # D_s(k) for s >= 1; then, for s >= 1, the best of the thresholds
    # k <= k_{s+1} <= ..., a running maximum over r
    R = np.zeros((n_alloc, n + 1))
    surplus[:, ::-1].cumsum(axis=1, out=R[:, 1:])
    above = None
    for row in R[:0:-1]:  # the steps from the top down
        if above is not None:
            row += above
        above = np.maximum.accumulate(row, out=row)
    thresholds = []
    r = n
    for row in R[1:]:  # the smallest r, so the largest k, that reaches the best
        r = row.searchsorted(row[r])
        thresholds.append(n - r)
    x_idx = np.bincount(thresholds, minlength=n + 1)[:n].cumsum()
    t = _monotone_transfers(u, x_idx)
    cheapest = np.full(n_alloc, np.inf)
    np.minimum.at(cheapest, x_idx, t)
    # best of mimicking each level at its cheapest transfer and opting out
    best_deviation = np.maximum((u - cheapest[:, None]).max(axis=0), 0.0)
    gain = best_deviation - (u[x_idx, np.arange(n)] - t)
    worst = gain.argmax()
    if gain[worst] > FEAS_TOL:
        raise StructuralError(
            f"closed-form transfers leave type {worst} a deviation gain of "
            f"{gain[worst]:.3g}; instance likely violates increasing "
            f"differences")
    value = _onedim_value(inst, x_idx, t)
    dp_value = R[:2, n].sum()  # the first allocation's sum and the best steps
    if abs(value - dp_value) > FEAS_TOL:
        raise StructuralError(
            f"full-IC transfers disagree with the dynamic program "
            f"({value:.12g} vs {dp_value:.12g}); instance likely violates "
            f"increasing differences")
    return SolveResult("full1d", value, tuple(x_idx.tolist()),
                       tuple(t.tolist()), {"method": "monotone_dp", "stages": n})


# ---------------------------------------------------------------------------
# joint solver
# ---------------------------------------------------------------------------


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
    # distances that still fall, beyond rounding, after m sweeps reveal a
    # negative cycle: an assignment no transfers implement
    cand = (D[:, None, :] + W).min(axis=2)
    infeasible = (cand < D - _ROUND_TOL).any(axis=1)
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
    n_x, n_y = inst.productive.n_alloc, inst.costly.n_alloc
    opt_x = np.repeat(np.arange(n_x), n_y)
    opt_y = np.tile(np.arange(n_y), n_x)
    return (opt_x, opt_y, *inst.payoffs(opt_x, opt_y))


def _chain(inst: ScreeningInstance, levels: LevelCouplings):
    """Level of each support point, and c[p, q]: the mass the coupling of
    levels j and j + 1 sends from p at level j to q, zero unless q lies at
    level j + 1."""
    ia, ib = inst.dist.pairs.T
    lv = np.searchsorted(levels.a_indices, ia)
    n_b = levels.cond.shape[1]
    mu = np.concatenate((np.reshape(levels.couplings, (-1, n_b, n_b)),
                         np.zeros((1, n_b, n_b))))  # no level above the top
    return lv, mu[lv[:, None], ib[:, None], ib[None, :]] * (lv[None, :] == lv[:, None] + 1)


def _rents(weight: np.ndarray, U: np.ndarray) -> np.ndarray:
    """sum_q weight[p, q] (U_q - U_p) per support point p and option: the
    rent term of q's IC against p's option, weighted by weight[p, q]."""
    return weight @ U - weight.sum(axis=1)[:, None] * U


def _path_rent_bound(inst: ScreeningInstance, levels: LevelCouplings,
                     chain: tuple, U: np.ndarray, VG: np.ndarray):
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
    one point over another from the same option. `chain` is `_chain`'s.
    """
    prob = np.asarray(inst.dist.prob)
    lv, c = chain
    above = np.append(np.cumsum(levels.a_probs[::-1])[::-1][1:], 0.0)
    # weight[p, q]: multiplier of q's IC against p's option, q one level up
    weight = above[lv][:, None] * c
    g = prob[:, None] * (U + VG) - _rents(weight, U)
    shortfall = np.maximum(weight.sum(axis=0) - weight.sum(axis=1) - prob, 0.0).sum()
    return g, shortfall * (len(prob) - 1) * float(np.ptp(U, axis=0).max())


def _pair_direction(U: np.ndarray, chain: tuple, j: int) -> tuple:
    """(rows, h): the support points at levels j and j + 1, and what a unit
    upward multiplier on the pair adds to their g, minus the rent term of
    the symmetric weight: `chain`'s c on the level-j rows plus its transpose."""
    lv, c = chain
    rows = np.flatnonzero((lv == j) | (lv == j + 1))
    pair = np.where((lv == j)[:, None], c, 0.0)
    return rows, -_rents(pair + pair.T, U)[rows]


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


def _iron(g: np.ndarray, U: np.ndarray, chain: tuple, pairs: list,
          target: float) -> np.ndarray:
    """Lower the root bound sum_p max_a g[p, a] toward `target` by upward
    multipliers on the level `pairs`: one exact line search per pair in
    turn, until the bound reaches the target or a whole pass lowers it by
    no more than FEAS_TOL.

    A multiplier mu_j >= 0 on level pair j adds mu_j times
    `_pair_direction(U, chain, j)` to the rows of g at levels j and j + 1
    and keeps the bound of `_path_rent_bound`: with c from `chain`, it
    weights q's IC against p's option and p's IC against q's option both by
    mu_j c(p, q), so the rents cancel and the pair adds
    mu_j c (U_q(a_q) - U_p(a_q) - U_q(a_p) + U_p(a_p)), at least 0 by the
    two constraints. Every point's net outflow stays as it was, so `lift`
    needs no change.
    """
    steps = {j: _pair_direction(U, chain, j) for j in pairs}
    g = g.copy()
    mu = dict.fromkeys(pairs, 0.0)
    root = g.max(axis=1).sum()
    while root > target:
        start = root
        for j in pairs:
            rows, h = steps[j]
            base = g[rows] - mu[j] * h
            mu[j] = _line_min(base, h)
            g[rows] = base + mu[j] * h
            root = g.max(axis=1).sum()
            if root <= target:
                return g
        if root >= start - FEAS_TOL:
            break
    return g


def solve_joint(inst: ScreeningInstance,
                guard: int = DEFAULT_GUARD) -> JointSolveResult:
    """Exact optimum of the joint problem: a root bound decides, and a
    search classifies what the bound leaves.

    Every support point independently receives one (x, y) option; transfers
    are the componentwise-maximal feasible point of the full IC + IR system
    for that assignment.

    The bound is the paper's proof. Chaining each point's IC against the
    level below along a coupling of adjacent conditional costly laws bounds
    every IC assignment's value by a separable virtual surplus,
    sum_p g_p(a_p) + lift (`_path_rent_bound`). It holds for any coupling;
    the instance's `level_couplings` supply the monotone one where the
    paper's assumption holds, which makes it tight, and the product
    coupling on unordered pairs. Its root value, the sum of max_a g_p(a)
    plus the lift, caps the optimum; the certificate's `root_certified`
    says it equals it, so the bound alone proves the optimal value.

    The first row priced is the full-IC productive optimum
    (`solve_full_1d` of the productive marginal; off the assumptions, where
    it raises, the monotone seed stands in) with every instrument at
    baseline. Where the root misses that row by more than FEAS_TOL, the
    bound is ironed: each level pair the full1d allocation pools gets an
    upward multiplier mu_j >= 0 along the same coupling (`_iron`; Myerson
    1981, Rochet 1987), chosen by exact line search over the breakpoints of
    the convex root bound until it meets the row. Any mu >= 0 keeps the
    bound sound. Only when the row still misses does the seed enumerate the
    baseline-only menus that give every support point of a productive level
    the same allocation, nondecreasing in the level: C(n_x + L - 1, L)
    assignments for L levels and n_x allocations.
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
    try:
        full1d = solve_full_1d(productive_marginal(inst))
    except StructuralError:
        full1d = None
    return _solve_joint(inst, guard, full1d)


def _solve_joint(inst: ScreeningInstance, guard: int,
                 full1d: SolveResult | None) -> JointSolveResult:
    """`solve_joint` given its full1d row, None where that solve raised."""
    cost, dist, levels = inst.costly, inst.dist, inst.level_couplings
    prob, m = np.asarray(dist.prob), inst.n_support
    opt_x, opt_y, U, VG = _option_tables(inst)
    chain = level_of, _ = _chain(inst, levels)
    g, lift = _path_rent_bound(inst, levels, chain, U, VG)
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
            g = _iron(g, U, chain, pooled, best + FEAS_TOL - lift)
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
        mech = Mechanism(opt_x[lifted], opt_y[lifted], D[0])
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
    mech = Mechanism(opt_x[best_alloc], opt_y[best_alloc], best_t)
    return JointSolveResult(
        best_val, mech, bool(baseline_mask.any()), bool(baseline_mask.all()),
        {**certificate, "evaluated": n_evaluated, "nodes": n_nodes,
         "optima": int(baseline_mask.size),
         "root_certified": bool(root <= best_val + FEAS_TOL)})

