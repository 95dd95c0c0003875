"""Worked screening environments: bundling, regulation, labor, competition.

Each generator builds an exact finite instance from a small parameter set, so
the generic solvers and the verification engine can run on problems whose
answers are known or checkable by an independent route.
"""
from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from math import comb
from typing import Optional

import numpy as np

from .errors import (AssumptionFailed, OutOfRange, RatioMonotonicityFailed,
                     SizeGuardExceeded, StructuralError)
from .model import (FEAS_TOL, PROB_TOL, CostlySpec, JointDistribution,
                    ProductiveSpec, ScreeningInstance, frozen_array)
from .solver import (_CYCLE_TOL, DEFAULT_GUARD, SolveResult,
                     productive_marginal, solve_full_1d)
from .stochastics import check_stochastic_monotonicity


# ---------------------------------------------------------------------------
# bundling with quality discrimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BundleInstance:
    """Multi-good monopoly with probabilistic bundling and quality choice.

    Bundles are bitmasks over `n_goods` goods; `values[k, b]` is type k's
    value for the top-quality version of bundle b, with the empty bundle
    worth zero and larger bundles worth weakly more. Quality costs are
    sampled on a shared grid and must be convex and nondecreasing from
    C(0) = 0; qualities and bundle probabilities live on that same grid
    because they enter the consumer's utility identically.
    """

    n_goods: int
    values: np.ndarray        # (n_types, 2**n_goods), bitmask column order
    prob: np.ndarray
    quality_grid: np.ndarray  # ascending, starts at 0, ends at 1
    cost_samples: np.ndarray  # C on quality_grid

    def __post_init__(self):
        values = np.atleast_2d(frozen_array(self.values))
        prob = frozen_array(self.prob)
        grid = frozen_array(self.quality_grid)
        cost = frozen_array(self.cost_samples)
        fields = (("values", values), ("prob", prob),
                  ("quality_grid", grid), ("cost_samples", cost))
        for name, arr in fields:
            if not np.all(np.isfinite(arr)):
                raise StructuralError(f"{name} contains non-finite entries")
        n_goods = int(self.n_goods)
        # 2 ** n_goods > n_goods: the column count bounds n_goods before the power
        if (values.ndim != 2 or not 1 <= n_goods <= values.shape[1]
                or values.shape[1] != 2 ** n_goods):
            raise StructuralError(f"values need 2 ** n_goods bundle columns, "
                                  f"n_goods >= 1; got {values.shape}, {n_goods}")
        n_bundles = values.shape[1]
        if prob.shape != (values.shape[0],) or (prob <= 0).any():
            raise StructuralError("prob must be positive per type")
        if abs(prob.sum() - 1.0) > PROB_TOL:
            raise StructuralError("prob must sum to one")
        if np.abs(values[:, 0]).max() > 0:
            raise StructuralError("the empty bundle must be worth zero")
        for b in range(n_bundles):
            for c in range(n_bundles):
                if b & c == b and b != c:  # b is a subset of c
                    if (values[:, b] > values[:, c] + FEAS_TOL).any():
                        raise StructuralError(
                            f"bundle {b} worth more than superset {c}")
        if grid.ndim != 1 or grid.size < 2:
            raise StructuralError("quality grid needs at least two points")
        if abs(grid[0]) > 0 or abs(grid[-1] - 1.0) > PROB_TOL:
            raise StructuralError("quality grid must run from 0 to 1")
        if (np.diff(grid) <= 0).any():
            raise StructuralError("quality grid must be strictly increasing")
        if cost.shape != grid.shape:
            raise StructuralError("cost samples must align with the grid")
        if abs(cost[0]) > 0:
            raise StructuralError("cost at zero quality must be zero")
        if (cost[1:] < cost[:-1] - FEAS_TOL).any():
            raise StructuralError("cost must be nondecreasing")
        # slopes rise, cross-multiplied by grid steps (<= 1) not to overflow
        dc, dg = np.diff(cost), np.diff(grid)
        if (dc[1:] * dg[:-1] - dc[:-1] * dg[1:] < -FEAS_TOL * dg[:-1] * dg[1:]).any():
            raise StructuralError("cost must be convex on the grid")
        for name, arr in fields:
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_goods", n_goods)

    @property
    def n_types(self) -> int:
        return self.values.shape[0]

    @property
    def grand(self) -> int:
        return 2 ** self.n_goods - 1

    @property
    def grand_values(self) -> np.ndarray:
        return self.values[:, self.grand]


def _group_types(b: BundleInstance, rows: np.ndarray):
    """Types grouped by exact grand-bundle value and by row (`rows[k]` is
    type k's): the distinct values and rows, ascending; the ascending (value,
    row) index pairs the types occupy; and their masses, summed in type order.
    """
    levels, level = np.unique(b.grand_values, return_inverse=True)
    # the rows sorted lexicographically, first column first, and numbered
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    points = rows[start]
    point = np.empty(len(rows), dtype=np.intp)
    point[order] = start.cumsum() - 1
    cells, cell = np.unique(level * len(points) + point,
                            return_inverse=True)
    support = tuple(zip(*np.divmod(cells, len(points))))
    mass = np.bincount(cell, weights=b.prob)
    return levels, points, support, mass


def _check_ratio_monotonicity(b: BundleInstance) -> None:
    """Substitute-bundle value ratios must rise stochastically with the
    grand-bundle value.

    The ratio rows form the costly type of an instance with zero utility
    tables, so the package's one monotonicity check decides.
    """
    levels, ratios, support, mass = _group_types(
        b, b.values[:, :b.grand] / b.grand_values[:, None])
    zeros_a, zeros_b = np.zeros((1, levels.size)), np.zeros((1, len(ratios)))
    ok, witness = check_stochastic_monotonicity(ScreeningInstance(
        ProductiveSpec(levels, np.zeros(1), zeros_a, zeros_a),
        CostlySpec(ratios, np.zeros(1), 0, zeros_b, zeros_b),
        JointDistribution(support, mass)))
    if not ok:
        raise RatioMonotonicityFailed(
            f"bundle value ratios fall between grand-bundle values "
            f"{witness[0]!r} and {witness[1]!r}")


def bundling_reduce(b: BundleInstance, guard: int = 10 ** 6) -> ScreeningInstance:
    """Recast bundling as screening with the grand bundle as the product.

    The scalar type is the grand-bundle value; assigning a proper bundle
    instead of the grand one becomes an instrument whose utility weight is
    the (nonpositive) value difference. Ratios must rise stochastically with
    the grand value or the recast problem loses its ordering.
    """
    vstar = b.grand_values
    if (vstar <= 0).any():
        raise StructuralError("grand-bundle values must be positive")
    _check_ratio_monotonicity(b)
    levels, theta_b, support, mass = _group_types(
        b, b.values[:, :b.grand] - vstar[:, None])

    n_sub, grid = b.grand, b.quality_grid  # proper bundles, empty included
    if grid.size ** n_sub > guard:
        raise SizeGuardExceeded("instrument enumeration too large",
                                grid.size ** n_sub, guard)
    # vectors over the grid summing to at most one, in lexicographic order
    # of grid index; the first is the baseline, zero as grid[0] is
    y_vectors = grid[np.indices((grid.size,) * n_sub).reshape(n_sub, -1).T]
    y_vectors = y_vectors[y_vectors.sum(axis=1) <= 1.0 + PROB_TOL]
    u_a = np.outer(grid, levels)
    v_a = np.tile(-b.cost_samples[:, None], (1, levels.size))
    u_b = y_vectors @ theta_b.T
    return ScreeningInstance(
        ProductiveSpec(levels, grid, u_a, v_a),
        CostlySpec(theta_b, np.arange(y_vectors.shape[0], dtype=float),
                   0, u_b, np.zeros_like(u_b)),
        JointDistribution(support, mass))


@dataclass(frozen=True)
class BundlingSolution:
    """Quality menu for the grand bundle plus solver artifacts."""

    value: float
    menu: tuple                  # ((quality, price), ...) qualities ascending
    onedim: SolveResult
    reduced: ScreeningInstance


def solve_bundling(b: BundleInstance) -> BundlingSolution:
    """Optimal mechanism as a menu of grand-bundle qualities and prices.

    Under ratio monotonicity no substitute bundle is ever assigned, so the
    problem collapses to scalar quality screening against the grand-bundle
    value. Zero-quality rows are exclusions and stay out of the menu.
    """
    reduced = bundling_reduce(b)
    onedim = solve_full_1d(productive_marginal(reduced))
    menu = {}  # (quality, price to 12 places) -> first such row
    for xi, t in zip(onedim.x_idx, onedim.t):
        q = float(b.quality_grid[xi])
        if q > 0.0:
            menu.setdefault((q, round(t, 12)), (q, float(t)))
    return BundlingSolution(onedim.value, tuple(sorted(menu.values())),
                            onedim, reduced)


def _option_cells(b: BundleInstance) -> np.ndarray:
    """Every probabilistic-bundling option on the shared grid, as cells.

    An option fixes a bundle distribution alpha (grid-valued, summing to
    exactly one) and a quality for each bundle it uses. Its row holds one
    cell per bundle, s * G + j, where alpha = s / (G - 1) and j is the
    quality's grid digit (0 where s = 0). Options come per composition of
    the grid steps across bundles, compositions in lexicographic order of
    their cut points and the qualities of the used bundles in lexicographic
    order of grid index within each. A composition using k bundles owns G^k
    consecutive rows, whose digits are those of their rank in base G: row
    r < G^k of one digit table, the first used bundle reading its k-th
    column from the right, unused bundles a zero column.
    """
    g, n_bundles = b.quality_grid.size, 2 ** b.n_goods
    steps = g - 1
    cuts = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(steps + n_bundles - 1), n_bundles - 1)), dtype=np.intp)
    cuts = cuts.reshape(-1, n_bundles - 1)
    bounds = np.empty((len(cuts), n_bundles + 1), dtype=np.intp)
    bounds[:, 0], bounds[:, 1:-1], bounds[:, -1] = -1, cuts, steps + n_bundles - 1
    parts = bounds[:, 1:] - bounds[:, :-1] - 1
    used = parts > 0
    k = used.sum(axis=1)
    top = int(k.max())
    digits = np.zeros((g ** top, top + 1), dtype=np.intp)
    digits[:, :top] = np.indices((g,) * top).reshape(top, -1).T
    column = np.where(used, used.cumsum(axis=1) - 1 + (top - k)[:, None], top)
    rows = g ** k
    rank = np.arange(rows.sum()) - np.repeat(rows.cumsum() - rows, rows)
    # at most two (options, bundles) tables are alive at once
    cells = np.repeat(column, rows, axis=0)
    cells += (rank * (top + 1))[:, None]
    cells = digits.ravel()[cells]
    cells += np.repeat(parts * g, rows, axis=0)
    return cells


def _cell_tables(b: BundleInstance):
    """Per cell s * G + j: alpha s / (G - 1), quality (0 where s = 0), the
    weight alpha * quality and the cost alpha * C(grid[j])."""
    grid = b.quality_grid
    alpha = np.arange(grid.size)[:, None] / (grid.size - 1)
    q = np.where(alpha > 0, grid, 0.0)
    return (np.broadcast_to(alpha, q.shape).ravel(), q.ravel(),
            (alpha * q).ravel(), (alpha * b.cost_samples).ravel())


def _agent_values(b: BundleInstance, weight: np.ndarray, cells: np.ndarray):
    """Agent values per type (n_types, len(cells)), summed over the bundles
    in order from 0."""
    return sum(b.values[:, k, None] * weight[cells[:, k]]
               for k in range(cells.shape[1]))


def _principal_values(cost: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Principal utility before transfers, less the costs summed over the
    bundles in order from 0."""
    return -sum(cost[cells[:, k]] for k in range(cells.shape[1]))


def _weight_classes(weight: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Each option's weight class as one int64 key.

    An option's agent values are its bundle weights times the bundle values,
    summed from bundle 0, whose value is zero: its term and every zero
    weight, of either sign, add +0.0. Options whose weights on bundles 1 ..
    B - 1 are equal thus have bitwise equal agent values. The key numbers
    those weights by their `np.unique` codes in mixed radix, densified by
    `np.unique` whenever one more digit could overflow int64.
    """
    codes, code = np.unique(weight, return_inverse=True)
    radix = codes.size
    code = code.astype(np.int64)
    key, span = code[cells[:, 1]], radix
    for k in range(2, cells.shape[1]):
        if span > np.iinfo(np.int64).max // radix:
            uniq, key = np.unique(key, return_inverse=True)
            span = uniq.size
        key = key * radix + code[cells[:, k]]
        span *= radix
    return key


@dataclass(frozen=True)
class BundlingCertificate:
    brute_force_value: float
    menu_value: float
    options: int
    best_descriptor: tuple

    @property
    def menu_is_optimal(self) -> bool:
        return self.menu_value >= self.brute_force_value - FEAS_TOL


#: Most option pairs `certify_bundling` prices at once.
_PAIR_BLOCK = 1 << 16


def _distinct_options(U: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Ascending indices of the options that no identical option beats.

    Options whose columns of U (agent values, or any rows of 64-bit keys)
    are bitwise identical differ only in principal utility, and a pair's
    value rises with either option's P, so each such group keeps its largest
    P, ties going to the smallest index. One lexsort of the bit keys forms
    the groups; a reduction over each finds its largest P and then the
    smallest index attaining it, so P itself is never sorted.
    """
    keys = U.view(np.int64)
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    start = np.ones(order.size, dtype=bool)
    start[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    starts = np.flatnonzero(start)
    P = P[order]
    best = np.maximum.reduceat(P, starts)[start.cumsum() - 1]
    first = np.minimum.reduceat(np.where(P == best, order, P.size), starts)
    return np.sort(first)


def _kept_options(b: BundleInstance, cells: np.ndarray, weight: np.ndarray,
                  P: np.ndarray):
    """`_distinct_options` of every option, and the kept options' agent
    values, pricing agent values for one option per weight class only.

    Equal weight classes give bitwise equal agent values, so each class's
    best option (largest P, then smallest index) is the only one that can be
    kept; `_distinct_options` over those representatives then merges the
    classes whose agent values are still equal, such as two bundles of
    equal value, and keeps exactly the options it keeps over all of them.
    """
    reps = _distinct_options(_weight_classes(weight, cells)[None], P)
    U = _agent_values(b, weight, cells[reps])
    kept = _distinct_options(U, P[reps])
    return reps[kept], U[:, kept]


def _pair_values(U: np.ndarray, P: np.ndarray, mu: np.ndarray,
                 i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Two-type relaxation value of option i for type 1 and j for type 2.

    i and j broadcast. Each type's transfer is capped by its participation
    constraint and by IC against the other's option; a negative IC 2-cycle
    makes the pair infeasible (-inf).
    """
    u1_i, u2_i = U[0, i], U[1, i]
    u1_j, u2_j = U[0, j], U[1, j]
    w21 = u1_i - u1_j            # deviation edge: 2's bundle to 1
    w12 = u2_j - u2_i
    d1 = np.minimum(u1_i, u2_j + w21)
    d2 = np.minimum(u2_j, u1_i + w12)
    d1 = np.minimum(d1, d2 + w21)
    d2 = np.minimum(d2, d1 + w12)
    vals = mu[0] * (P[i] + d1) + mu[1] * (P[j] + d2)
    vals[w12 + w21 < -_CYCLE_TOL] = -np.inf
    return vals


def _best_pair(U: np.ndarray, P: np.ndarray, mu: np.ndarray, floor: float):
    """(value, (i, j)) of the first best pair, in row-major order, among the
    pairs whose cap mu[0] (P_i + U_1i) + mu[1] (P_j + U_2j) reaches `floor`.

    Every other pair is worth less than the floor; a floor of -inf prices
    every pair. At most `_PAIR_BLOCK` pairs are held at once. Returns value
    -inf when no pair is priced.
    """
    cap1, cap2 = mu[0] * (P + U[0]), mu[1] * (P + U[1])
    rows = np.flatnonzero(cap1 + cap2.max() >= floor)
    cols = np.flatnonzero(cap2 + cap1.max() >= floor)
    best_val, best_pair = -np.inf, (0, 0)
    step = max(1, _PAIR_BLOCK // max(cols.size, 1))
    for start in range(0, rows.size, step):
        i, j = rows[start:start + step, None], cols[None, :]
        ii, jj = np.nonzero(cap1[i] + cap2[j] >= floor)
        if not ii.size:
            continue
        i, j = i[ii, 0], j[0, jj]
        vals = _pair_values(U, P, mu, i, j)
        flat = int(np.argmax(vals))
        top = float(vals[flat])
        if top > best_val:
            best_val, best_pair = top, (int(i[flat]), int(j[flat]))
    return best_val, best_pair


def certify_bundling(b: BundleInstance,
                     solution: BundlingSolution | None = None) -> BundlingCertificate:
    """Exhaustive check that the quality menu beats probabilistic bundling.

    Enumerates every grid-valued bundling mechanism with maximal feasible
    transfers and compares against the quality-menu value. Costs are
    piecewise linear between samples, so the scalar solver already attains
    the continuum optimum at a grid point and the comparison is exact up to
    float tolerance. Supports one or two consumer types.

    Options are held as integer cells (`_option_cells`) and priced through
    per-cell tables. With one type, every option is priced and the first
    maximizer wins: a rounding tie in P + U could make any option the first.
    With two types, each pair of options (one per type) is priced by the
    two-type relaxation of the IC and participation constraints. Pairs run
    only over the options `_distinct_options` keeps, which attain the same
    maximum as all options; `_kept_options` finds them through integer
    weight classes, pricing agent values for one option per class only, so
    the kept options, and the inputs of the pair scan, are the ones every
    option's agent values give, bit for bit. A pair's transfers never
    exceed its participation caps, so pairing option i with j is worth at most
    cap1[i] + cap2[j], where cap_k = mu[k] (P + U[k]); float rounding is
    monotone, so the cap bounds the priced value bit for bit. Only pairs
    whose cap reaches the floor `menu_value - FEAS_TOL` are priced: rows and
    columns that cannot reach it even against the other side's largest cap
    are dropped first, and the rest is tested and priced in blocks of at
    most `_PAIR_BLOCK` pairs, so no options-by-options array is built. If no
    priced pair reaches the floor (a `solution` above the true optimum), the
    scan reruns with floor -inf, which prices every pair. The maximum and the
    best pair, the first maximizer in row-major order over the kept options,
    are therefore those of pricing every pair, for any `solution`. `options`
    still counts every enumerated option; above `DEFAULT_GUARD` options it
    raises SizeGuardExceeded before enumerating any. Pass the
    `solve_bundling(b)` result as `solution` to reuse it.
    """
    if b.n_types > 2:
        raise SizeGuardExceeded("certificate supports at most two types",
                                b.n_types, 2)
    # options using k of B bundles on a G-point grid: C(B, k) bundle sets,
    # C(G - 2, k - 1) splits of alpha's G - 1 grid steps, G qualities each
    n_bundles, g = 2 ** b.n_goods, b.quality_grid.size
    n_options = sum(comb(n_bundles, k) * comb(g - 2, k - 1) * g ** k
                    for k in range(1, n_bundles + 1))
    if n_options > DEFAULT_GUARD:
        raise SizeGuardExceeded("bundling option enumeration too large",
                                n_options, DEFAULT_GUARD)
    menu_value = (solve_bundling(b) if solution is None else solution).value
    cells = _option_cells(b)
    alpha, q, weight, cost = _cell_tables(b)
    P = _principal_values(cost, cells)

    def descriptor(i):
        return (tuple(alpha[cells[i]]), tuple(q[cells[i]]))

    if b.n_types == 1:
        vals = P + _agent_values(b, weight, cells)[0]
        best = int(np.argmax(vals))
        return BundlingCertificate(float(vals[best]), float(menu_value),
                                   n_options, (descriptor(best),))
    keep, U = _kept_options(b, cells, weight, P)
    P = P[keep]
    floor = menu_value - FEAS_TOL
    best_val, best_pair = _best_pair(U, P, b.prob, floor)
    if not best_val >= floor:
        best_val, best_pair = _best_pair(U, P, b.prob, -np.inf)
    return BundlingCertificate(best_val, float(menu_value), n_options,
                               (descriptor(keep[best_pair[0]]),
                                descriptor(keep[best_pair[1]])))


# ---------------------------------------------------------------------------
# application instance generators
# ---------------------------------------------------------------------------


def _regulation_instance(params: dict) -> ScreeningInstance:
    lam = float(params.get("lam", 1.0))
    c0 = float(params.get("c0", 0.8))
    c1 = float(params.get("c1", 1.0))
    theta_a = np.asarray(params.get("theta_a", (0.2, 0.4, 0.6)), dtype=float)
    levels = int(params.get("certificate_levels", 2))
    effort_cost = float(params.get("effort_cost", 0.3))
    x_grid = np.asarray(params.get("x_grid", np.linspace(0.0, 1.0, 4)),
                        dtype=float)
    if lam <= 0:
        raise OutOfRange("lam must be positive")
    if c1 <= 0:
        raise OutOfRange("c1 must be positive for efficiency to matter")
    if c0 - c1 * theta_a.max() <= 0:
        raise OutOfRange("marginal production cost must stay positive: "
                         "need c0 > c1 * max(theta_a)")
    if effort_cost <= 0:
        raise OutOfRange("effort_cost must be positive")
    if levels < 1:
        raise OutOfRange("need at least one certificate level above baseline")

    def psi(x, th):
        return (c0 - c1 * th) * x

    revenue = (1.0 - x_grid) * x_grid
    surplus = 0.5 * x_grid ** 2  # integral of the linear demand wedge
    u_a = revenue[:, None] - psi(x_grid[:, None], theta_a[None, :])
    v_a = (surplus[:, None] + u_a) / lam
    y_set = np.arange(levels + 1, dtype=float)
    theta_b = np.arange(levels + 1, dtype=float).reshape(-1, 1)
    u_b = -effort_cost * np.maximum(y_set[:, None] - theta_b[:, 0][None, :], 0.0)
    v_b = np.zeros_like(u_b)
    support = params.get("support")
    prob = params.get("prob")
    if support is None:
        m = min(theta_a.size, theta_b.shape[0])
        support = tuple((k, k) for k in range(m))
        prob = tuple(1.0 / m for _ in range(m))
    dist = JointDistribution(tuple(tuple(p) for p in support), tuple(prob))
    return ScreeningInstance(
        ProductiveSpec(theta_a, x_grid, u_a, v_a),
        CostlySpec(theta_b, y_set, 0, u_b, v_b), dist)


def _labor_instance(params: dict) -> ScreeningInstance:
    c0 = float(params.get("c0", 1.5))
    theta_0 = np.asarray(params.get("theta_0", (0.5, 1.0)), dtype=float)
    x_grid = np.asarray(params.get("x_grid", (0.0, 0.5, 1.0)), dtype=float)
    activity_costs = tuple(params.get("activity_costs", (0.4,)))
    activity_levels = tuple(tuple(l) for l in
                            params.get("activity_levels", ((0.0, 0.5, 1.0),)))
    theta_b_rows = params.get("theta_b_rows", ((0.0,), (0.5,)))
    if c0 <= theta_0.max():
        raise OutOfRange("work cost must stay positive: need c0 > max(theta_0)")
    if len(activity_costs) != len(activity_levels):
        raise OutOfRange("one cost coefficient per activity is required")
    if any(c <= 0 for c in activity_costs):
        raise OutOfRange("activity costs must be positive")
    u_a = -(c0 - theta_0[None, :]) * (x_grid[:, None] ** 2)
    v_a = x_grid[:, None] * theta_0[None, :]
    combos = list(itertools.product(*[range(len(l)) for l in activity_levels]))
    y_vectors = np.array([[activity_levels[i][c[i]] for i in range(len(c))]
                          for c in combos])
    theta_b = np.atleast_2d(np.asarray(theta_b_rows, dtype=float))
    u_b = np.zeros((y_vectors.shape[0], theta_b.shape[0]))
    for i, coef in enumerate(activity_costs):
        u_b -= coef * np.maximum(
            y_vectors[:, i][:, None] - theta_b[:, i][None, :], 0.0)
    v_b = np.zeros_like(u_b)
    support = params.get("support")
    prob = params.get("prob")
    if support is None:
        prob_a = params.get("prob_a", tuple(1.0 / theta_0.size
                                            for _ in range(theta_0.size)))
        prob_b = params.get("prob_b", tuple(1.0 / theta_b.shape[0]
                                            for _ in range(theta_b.shape[0])))
        support = tuple((ia, ib) for ia in range(theta_0.size)
                        for ib in range(theta_b.shape[0]))
        prob = tuple(prob_a[ia] * prob_b[ib] for ia, ib in support)
    dist = JointDistribution(tuple(tuple(p) for p in support), tuple(prob))
    return ScreeningInstance(
        ProductiveSpec(theta_0, x_grid, u_a, v_a),
        CostlySpec(theta_b, np.arange(y_vectors.shape[0], dtype=float),
                   0, u_b, v_b), dist)


def _costly_production_instance(params: dict) -> ScreeningInstance:
    # two linear-utility consumers with opposed tastes; the second item
    # costs more to make than anyone values it
    item_cost = float(params.get("item_cost", 2.0))
    theta_a = np.array([1.0, 2.0])
    theta_b = np.array([[1.0], [2.0]])
    x_grid = np.array([0.0, 1.0])
    y_set = np.array([0.0, 1.0])
    u_a = np.outer(x_grid, theta_a)
    v_a = np.zeros_like(u_a)
    u_b = np.outer(y_set, theta_b[:, 0])
    v_b = np.outer(-item_cost * y_set, np.ones(2))
    dist = JointDistribution(((0, 1), (1, 0)), (0.5, 0.5))
    return ScreeningInstance(
        ProductiveSpec(theta_a, x_grid, u_a, v_a),
        CostlySpec(theta_b, y_set, 0, u_b, v_b), dist)


_APPLICATION_KINDS = {
    "regulation": _regulation_instance,
    "labor": _labor_instance,
    "costly_production": _costly_production_instance,
}


def make_application_instance(kind: str,
                              params: Optional[dict] = None) -> ScreeningInstance:
    """Build a named application environment as a screening instance.

    regulation: taxed monopoly with manipulable inspection certificates;
    labor: monopsony wage setting with costly application activities;
    costly_production: two linear-taste consumers and a loss-making second
    item, whose optimal menu nevertheless sells it.
    """
    if kind not in _APPLICATION_KINDS:
        raise OutOfRange(f"unknown application kind {kind!r}; expected one of "
                         f"{sorted(_APPLICATION_KINDS)}")
    return _APPLICATION_KINDS[kind](dict(params or {}))


# ---------------------------------------------------------------------------
# competitive screening
# ---------------------------------------------------------------------------


#: Rounding slack on the low type's closed-form utility: in the adverse
#: selection and separation checks and in the separating offer's cap.
_COMPETITIVE_SLACK = 1e-12


@dataclass(frozen=True)
class CompetitiveParams:
    """Two-type competitive labor market with one costly activity.

    Work cost for type i is a_i x^2; activity costs are b_l y for the low
    type and b_h y^2 for the high type, so a marginal unit of the activity
    is free for the high type and expensive for the low type.
    """

    theta_l: float = 0.5
    theta_h: float = 1.0
    a_l: float = 1.0
    a_h: float = 0.75
    b_l: float = 3.0
    b_h: float = 1.0

    def __post_init__(self):
        if not np.isfinite(astuple(self)).all():
            raise StructuralError("competitive parameters must be finite")
        if not self.theta_h > self.theta_l >= 0:
            raise AssumptionFailed("types_ordered",
                                   "need theta_h > theta_l >= 0")
        if not self.a_l > self.a_h > 0:
            raise AssumptionFailed("marginal_cost_order",
                                   "need a_l > a_h > 0 so the high type "
                                   "works more cheaply")
        if not 0 < self.efficient_low < 1:
            raise AssumptionFailed("efficient_interior",
                                   f"x^e_L = {self.efficient_low:.6g} must "
                                   f"be interior to (0, 1)")
        if not 0 < self.efficient_high < 1:
            raise AssumptionFailed("efficient_interior",
                                   f"x^e_H = {self.efficient_high:.6g} must "
                                   f"be interior to (0, 1)")
        low = self.low_type_utility
        imit = (self.theta_h * self.efficient_high
                - self.psi_l(self.efficient_high))
        if not low < imit - _COMPETITIVE_SLACK:
            raise AssumptionFailed("adverse_selection",
                                   f"low type must covet the efficient high "
                                   f"offer: {low:.6g} >= {imit:.6g}")
        if self.theta_h - self.a_l > low + _COMPETITIVE_SLACK:
            raise AssumptionFailed("separation_at_one",
                                   "work allocations alone cannot separate "
                                   "within [0, 1]")
        if not self.b_l > 2 * self.a_l:
            raise AssumptionFailed("instrument_bite",
                                   "need b_l > 2 a_l so the activity deters "
                                   "the low type")
        if self.b_h < 0:
            raise AssumptionFailed("instrument_smooth",
                                   "high-type activity cost must be "
                                   "nonnegative")

    def psi_l(self, x):
        return self.a_l * x ** 2

    def psi_h(self, x):
        return self.a_h * x ** 2

    def c_l(self, y):
        return self.b_l * y

    def c_h(self, y):
        return self.b_h * y ** 2

    @property
    def efficient_low(self) -> float:
        return self.theta_l / (2 * self.a_l)

    @property
    def efficient_high(self) -> float:
        return self.theta_h / (2 * self.a_h)

    @property
    def low_type_utility(self) -> float:
        x = self.efficient_low
        return self.theta_l * x - self.psi_l(x)


@dataclass(frozen=True)
class SeparatingSet:
    """Zero-profit offer pair; each type weakly prefers its own offer."""

    offer_l: tuple               # (x, y, wage)
    offer_h: tuple
    value_high: float            # high type's payoff at its offer
    value_high_no_instrument: float
    checked_points: int

    @property
    def gain(self) -> float:
        """What the costly activity buys the high type."""
        return self.value_high - self.value_high_no_instrument


def _constrained_max(p: CompetitiveParams, xs: np.ndarray, ys: np.ndarray):
    """Best (x, y) for the high type keeping the low type out.

    Scans ys-by-xs in row-major order, so exact ties resolve to the smallest
    activity level and then the smallest allocation; with a free activity for
    the high type this lands on the boundary where the low type's IC binds.
    """
    cap = p.low_type_utility + _COMPETITIVE_SLACK
    imitate = (p.theta_h * xs[None, :] - p.psi_l(xs[None, :])
               - p.c_l(ys[:, None]))
    objective = (p.theta_h * xs[None, :] - p.psi_h(xs[None, :])
                 - p.c_h(ys[:, None]))
    feasible = imitate <= cap
    if not feasible.any():
        raise StructuralError("no feasible separating offer on the grid")
    masked = np.where(feasible, objective, -np.inf)
    flat = int(np.argmax(masked))
    iy, ix = divmod(flat, xs.size)
    return float(xs[ix]), float(ys[iy]), float(masked.flat[flat])


def _window(center: float, radius: float, step: float) -> np.ndarray:
    lo = max(0.0, center - radius)
    hi = min(1.0, center + radius)
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def competitive_separating(p: CompetitiveParams,
                           coarse_step: float = 1e-3,
                           fine_step: float = 1e-5) -> SeparatingSet:
    """Pareto-optimal separating offers via the constrained grid program.

    The low type gets its efficient allocation at the competitive wage. The
    high type's offer maximizes its surplus subject to the low type weakly
    preferring its own offer, searched on a coarse grid and refined once
    around the maximizer. Unlike the monopoly solutions, the activity level
    comes out strictly positive: competition hands all surplus to the worker,
    so the binding constraint points upward and a cheap-for-the-high-type
    activity relaxes it.
    """
    n_coarse = int(round(1.0 / coarse_step)) + 1
    grid = coarse_step * np.arange(n_coarse)
    x1, y1, _ = _constrained_max(p, grid, grid)
    xs = _window(x1, coarse_step, fine_step)
    ys = _window(y1, coarse_step, fine_step)
    x_star, y_star, v_star = _constrained_max(p, xs, ys)

    x0_1, _, _ = _constrained_max(p, grid, np.zeros(1))
    xs0 = _window(x0_1, coarse_step, fine_step)
    _, _, v_no = _constrained_max(p, xs0, np.zeros(1))

    offer_l = (p.efficient_low, 0.0, p.theta_l * p.efficient_low)
    offer_h = (x_star, y_star, p.theta_h * x_star)
    if y_star <= 0:
        raise StructuralError("optimal separating offer uses no costly "
                              "activity; contradicts the competitive result")
    if v_star <= v_no:
        raise StructuralError("costly activity failed to improve on "
                              "work-only separation")
    # self-selection, both directions
    low_at_h = p.theta_h * x_star - p.psi_l(x_star) - p.c_l(y_star)
    if low_at_h > p.low_type_utility + FEAS_TOL:
        raise StructuralError("low type prefers the high offer")
    high_at_l = (p.theta_l * p.efficient_low - p.psi_h(p.efficient_low))
    if v_star < high_at_l - FEAS_TOL:
        raise StructuralError("high type prefers the low offer")
    checked = n_coarse * n_coarse + xs.size * ys.size + n_coarse + xs0.size
    return SeparatingSet(offer_l, offer_h, float(v_star), float(v_no),
                         checked)
