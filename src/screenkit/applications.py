"""Worked screening environments: bundling, regulation, labor, competition.

Each generator builds an exact finite instance from a small parameter set, so
the generic solvers and the verification engine can run on problems whose
answers are known or checkable by an independent route.
"""
from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, fields
from math import comb
from typing import Optional

import numpy as np

from .errors import (AssumptionFailed, OutOfRange, RatioMonotonicityFailed,
                     SizeGuardExceeded, StructuralError)
from .model import (_ROUND_TOL, FEAS_TOL, PROB_TOL, CostlySpec,
                    JointDistribution, ProductiveSpec, ScreeningInstance,
                    _as_index, _as_real, _grid, _level_table, _table,
                    _weights, float_table)
from .solver import DEFAULT_GUARD, SolveResult, _price, solve_full_1d
from .stochastics import _adjacent_couplings
from .transfers import OneDimInstance


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
        values = np.atleast_2d(float_table(self.values, "values"))
        if not np.isfinite(values).all():
            raise StructuralError("values contains non-finite entries")
        n_goods = _as_index(self.n_goods, "n_goods")
        # 2 ** n_goods > n_goods: the column count bounds n_goods before the power
        if (values.ndim != 2 or not 1 <= n_goods <= values.shape[1]
                or values.shape[1] != 2 ** n_goods):
            raise StructuralError(f"values need 2 ** n_goods bundle columns, "
                                  f"n_goods >= 1; got {values.shape}, {n_goods}")
        n_bundles = values.shape[1]
        prob = _weights(self.prob, values.shape[0], "prob")
        if values[:, 0].any():
            raise StructuralError("the empty bundle must be worth zero")
        # the pairs (b, c) where b is a proper subset of c, row-major
        b, c = np.arange(n_bundles)[:, None], np.arange(n_bundles)
        sub, sup = np.nonzero((b & c == b) & (b != c))
        over = (values[:, sub] > values[:, sup] + FEAS_TOL).any(axis=0)
        if over.any():
            k = over.argmax()
            raise StructuralError(
                f"bundle {sub[k]} worth more than superset {sup[k]}")
        grid = _grid(self.quality_grid, "quality_grid")
        if grid.size < 2:
            raise StructuralError("quality grid needs at least two points")
        if abs(grid[0]) > 0 or abs(grid[-1] - 1.0) > PROB_TOL:
            raise StructuralError("quality grid must run from 0 to 1")
        cost = _table(self.cost_samples, grid.shape, "cost_samples")
        if abs(cost[0]) > 0:
            raise StructuralError("cost at zero quality must be zero")
        if (cost[1:] < cost[:-1] - FEAS_TOL).any():
            raise StructuralError("cost must be nondecreasing")
        # slopes rise, cross-multiplied by grid steps (<= 1) not to overflow
        dc, dg = np.diff(cost), np.diff(grid)
        if (dc[1:] * dg[:-1] - dc[:-1] * dg[1:] < -FEAS_TOL * dg[:-1] * dg[1:]).any():
            raise StructuralError("cost must be convex on the grid")
        for name, value in (("n_goods", n_goods), ("values", values), ("prob", prob),
                            ("quality_grid", grid), ("cost_samples", cost)):
            object.__setattr__(self, name, value)

    @property
    def n_types(self) -> int:
        return self.values.shape[0]

    @property
    def grand(self) -> int:
        return 2 ** self.n_goods - 1

    @property
    def grand_values(self) -> np.ndarray:
        return self.values[:, self.grand]


def _group_types(b: BundleInstance, rows: np.ndarray, grand: tuple):
    """Types grouped by exact grand-bundle value and by row (`rows[k]` is
    type k's): the distinct values and rows, ascending; the value and row
    indices of the cells the types occupy, cells ascending; and their
    masses, summed in type order. `grand` is
    `np.unique(b.grand_values, return_inverse=True)`.
    """
    levels, level = grand
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
    cell_level, cell_point = np.divmod(cells, len(points))
    mass = np.bincount(cell, weights=b.prob)
    return levels, points, cell_level, cell_point, mass


def _check_ratio_monotonicity(b: BundleInstance, grand: tuple) -> None:
    """Substitute-bundle value ratios must rise stochastically with the
    grand-bundle value.

    The ratio rows, grouped by grand value, are the conditional laws of a
    costly type, so the package's one adjacent-level coupling decides.
    """
    levels, ratios, cell_level, cell_point, mass = _group_types(
        b, b.values[:, :b.grand] / b.grand_values[:, None], grand)
    _, cond = _level_table(cell_level, cell_point, mass, len(ratios))
    _, k = _adjacent_couplings(cond, ratios)
    if k is not None:
        raise RatioMonotonicityFailed(
            f"bundle value ratios fall between grand-bundle values "
            f"{float(levels[k])!r} and {float(levels[k + 1])!r}")


#: Most candidate instrument vectors (grid points to the power of the proper
#: bundles) the bundling reduction may enumerate.
_INSTRUMENT_GUARD = 10 ** 6


def _reduced_types(b: BundleInstance):
    """`_group_types` of each type's value differences to the grand bundle,
    after the reduction's checks in order: positive grand values, then
    ratio monotonicity."""
    vstar = b.grand_values
    if (vstar <= 0).any():
        raise StructuralError("grand-bundle values must be positive")
    grand = np.unique(vstar, return_inverse=True)
    _check_ratio_monotonicity(b, grand)
    return _group_types(b, b.values[:, :b.grand] - vstar[:, None], grand)


def _quality_tables(b: BundleInstance, levels: np.ndarray) -> tuple:
    """Agent utility grid x level and principal utility -cost, per level."""
    grid = b.quality_grid
    return (np.outer(grid, levels),
            np.tile(-b.cost_samples[:, None], (1, levels.size)))


def bundling_reduce(b: BundleInstance) -> ScreeningInstance:
    """Recast bundling as screening with the grand bundle as the product.

    The scalar type is the grand-bundle value; assigning a proper bundle
    instead of the grand one becomes an instrument whose utility weight is
    the (nonpositive) value difference. Ratios must rise stochastically with
    the grand value or the recast problem loses its ordering. The candidate
    instrument vectors it enumerates are capped by `_INSTRUMENT_GUARD`.
    """
    levels, theta_b, cell_level, cell_point, mass = _reduced_types(b)
    n_sub, grid = b.grand, b.quality_grid
    if grid.size ** n_sub > _INSTRUMENT_GUARD:
        raise SizeGuardExceeded("instrument enumeration too large",
                                grid.size ** n_sub, _INSTRUMENT_GUARD)
    # vectors over the grid summing to at most one, in lexicographic order
    # of grid index; the first is the baseline, zero as grid[0] is
    y_vectors = grid[np.indices((grid.size,) * n_sub).reshape(n_sub, -1).T]
    y_vectors = y_vectors[y_vectors.sum(axis=1) <= 1.0 + PROB_TOL]
    u_b = y_vectors @ theta_b.T
    return ScreeningInstance(
        ProductiveSpec(levels, grid, *_quality_tables(b, levels)),
        CostlySpec(theta_b, np.arange(y_vectors.shape[0], dtype=float),
                   0, u_b, np.zeros_like(u_b)),
        JointDistribution(tuple(zip(cell_level, cell_point)), mass))


@dataclass(frozen=True)
class BundlingSolution:
    """Quality menu for the grand bundle plus the scalar solve behind it."""

    value: float
    menu: tuple                  # ((quality, price), ...) qualities ascending
    onedim: SolveResult


def _quality_line(b: BundleInstance) -> OneDimInstance:
    """`productive_marginal(bundling_reduce(b))`, built directly.

    The reduction's type checks run in the same order, but no instrument
    vector, so no instrument guard, and no screening instance. The level
    masses are summed over the reduction's support cells in their order.
    """
    levels, _, cell_level, _, mass = _reduced_types(b)
    return OneDimInstance(levels, np.bincount(cell_level, weights=mass),
                          b.quality_grid, *_quality_tables(b, levels))


def solve_bundling(b: BundleInstance) -> BundlingSolution:
    """Optimal mechanism as a menu of grand-bundle qualities and prices.

    Under ratio monotonicity no substitute bundle is ever assigned, so the
    problem collapses to scalar quality screening against the grand-bundle
    value (`_quality_line`). Zero-quality rows are exclusions and stay out
    of the menu.
    """
    onedim = solve_full_1d(_quality_line(b))
    menu = {}  # (quality, price to 12 places) -> first such row
    for xi, t in zip(onedim.x_idx, onedim.t):
        q = float(b.quality_grid[xi])
        if q > 0.0:
            menu.setdefault((q, round(t, 12)), (q, float(t)))
    return BundlingSolution(onedim.value, tuple(sorted(menu.values())), onedim)


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


@dataclass(frozen=True)
class BundlingCertificate:
    brute_force_value: float
    solution: BundlingSolution   # the quality menu the certificate solved
    options: int
    best_descriptor: tuple

    @property
    def menu_value(self) -> float:
        return self.solution.value

    @property
    def menu_is_optimal(self) -> bool:
        return self.menu_value >= self.brute_force_value - FEAS_TOL


def _best_pair(U: np.ndarray, P: np.ndarray, mu: np.ndarray) -> tuple:
    """(i, j), the row-major first maximizer of A_i + B_j over the pairs
    with s_j <= s_i + `_ROUND_TOL` (`certify_bundling` derives A, B, s).

    Row i's partners are a prefix of the options sorted by s, so A_i plus a
    running maximum of B read at the prefix's end is row i's largest sum
    V_i, float addition being monotone; j is i's first partner attaining V_i.
    """
    s = U[0] - U[1]
    A = mu[0] * (P + U[0]) - mu[1] * np.maximum(0.0, -s)
    B = mu[1] * (P + U[1]) - mu[0] * np.maximum(0.0, s)
    order = np.argsort(s, kind="stable")
    # s_i itself lies in row i's prefix, so every prefix is nonempty
    reach = np.searchsorted(s[order], s + _ROUND_TOL, side="right")
    V = A + np.maximum.accumulate(B[order])[reach - 1]
    i = int(np.argmax(V))
    j = int(np.argmax((s <= s[i] + _ROUND_TOL) & (A[i] + B == V[i])))
    return i, j


def certify_bundling(b: BundleInstance) -> BundlingCertificate:
    """Exhaustive check that the quality menu beats probabilistic bundling.

    Solves the quality menu (`solve_bundling`, carried as `solution`),
    enumerates every grid-valued bundling mechanism with maximal feasible
    transfers and compares. Costs are piecewise linear between samples, so
    the scalar solver already attains the continuum optimum at a grid point
    and the comparison is exact up to float tolerance. Supports one or two
    consumer types.

    Options are held as integer cells (`_option_cells`) and priced through
    per-cell tables. With one type, the first maximizer of P + U[0] is
    picked: a rounding tie in P + U could make any option the first. With
    two types, option i goes to type 1 and j to type 2, and the
    two-type relaxation caps the transfers by participation, t1 <= U1_i and
    t2 <= U2_j, and by IC, t1 <= t2 + U1_i - U1_j and t2 <= t1 + U2_j -
    U2_i. With s = U[0] - U[1], the IC 2-cycle weighs s_i - s_j, so the pair
    is feasible when s_j <= s_i, to `_ROUND_TOL`. The largest transfers are
    then shortest paths that no cycle shortens, t1 = U1_i - max(0, s_j) and
    t2 = U2_j - max(0, -s_i), so the pair is worth A_i + B_j, with A =
    mu[0] (P + U[0]) - mu[1] max(0, -s) and B = mu[1] (P + U[1]) - mu[0]
    max(0, s). `_best_pair` finds the first maximizer in row-major order
    over every option with one sort of s and a running maximum of B. The
    pick, one option per type, is priced as one assignment row by the joint
    solver's `solver._price`, whose Bellman-Ford gives the bits a scan
    pricing every pair by the relaxation gives it. `options` counts every
    enumerated option; above `DEFAULT_GUARD` options it raises
    SizeGuardExceeded before enumerating any.
    """
    solution = solve_bundling(b)
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
    cells = _option_cells(b)
    alpha, q, weight, cost = _cell_tables(b)
    P = _principal_values(cost, cells)
    U = _agent_values(b, weight, cells)
    picks = ((int(np.argmax(P + U[0])),) if b.n_types == 1
             else _best_pair(U, P, b.prob))
    value, _ = _price(U, np.broadcast_to(P, U.shape), b.prob, np.array([picks]))
    return BundlingCertificate(
        float(value[0]), solution, n_options,
        tuple((tuple(alpha[cells[k]]), tuple(q[cells[k]])) for k in picks))


# ---------------------------------------------------------------------------
# application instance generators
# ---------------------------------------------------------------------------


def _regulation_instance(params: dict) -> ScreeningInstance:
    lam = _as_real(params.get("lam", 1.0), "lam")
    c0 = _as_real(params.get("c0", 0.8), "c0")
    c1 = _as_real(params.get("c1", 1.0), "c1")
    theta_a = float_table(params.get("theta_a", (0.2, 0.4, 0.6)), "theta_a")
    levels = _as_index(params.get("certificate_levels", 2), "certificate_levels")
    effort_cost = _as_real(params.get("effort_cost", 0.3), "effort_cost")
    x_grid = float_table(params.get("x_grid", np.linspace(0.0, 1.0, 4)), "x_grid")
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
    dist = JointDistribution(support, prob)
    return ScreeningInstance(
        ProductiveSpec(theta_a, x_grid, u_a, v_a),
        CostlySpec(theta_b, y_set, 0, u_b, v_b), dist)


def _labor_instance(params: dict) -> ScreeningInstance:
    c0 = _as_real(params.get("c0", 1.5), "c0")
    theta_0 = float_table(params.get("theta_0", (0.5, 1.0)), "theta_0")
    x_grid = float_table(params.get("x_grid", (0.0, 0.5, 1.0)), "x_grid")
    activity_costs = float_table(params.get("activity_costs", (0.4,)),
                                 "activity_costs")
    activity_levels = [float_table(l, "activity_levels") for l in
                       params.get("activity_levels", ((0.0, 0.5, 1.0),))]
    theta_b_rows = float_table(params.get("theta_b_rows", ((0.0,), (0.5,))),
                               "theta_b_rows")
    if c0 <= theta_0.max():
        raise OutOfRange("work cost must stay positive: need c0 > max(theta_0)")
    if len(activity_costs) != len(activity_levels):
        raise OutOfRange("one cost coefficient per activity is required")
    if (activity_costs <= 0).any():
        raise OutOfRange("activity costs must be positive")
    u_a = -(c0 - theta_0[None, :]) * (x_grid[:, None] ** 2)
    v_a = x_grid[:, None] * theta_0[None, :]
    combos = list(itertools.product(*[range(len(l)) for l in activity_levels]))
    y_vectors = np.array([[activity_levels[i][c[i]] for i in range(len(c))]
                          for c in combos])
    theta_b = np.atleast_2d(theta_b_rows)
    theta_b = _table(theta_b, (len(theta_b), len(activity_costs)), "theta_b_rows")
    u_b = np.zeros((y_vectors.shape[0], theta_b.shape[0]))
    for i, coef in enumerate(activity_costs):
        u_b -= coef * np.maximum(
            y_vectors[:, i][:, None] - theta_b[:, i][None, :], 0.0)
    v_b = np.zeros_like(u_b)
    support = params.get("support")
    prob = params.get("prob")
    if support is None:
        n_a, n_b = theta_0.size, theta_b.shape[0]
        prob_a = _weights(params.get("prob_a", np.full(n_a, 1.0 / n_a)), n_a, "prob_a")
        prob_b = _weights(params.get("prob_b", np.full(n_b, 1.0 / n_b)), n_b, "prob_b")
        support = tuple((ia, ib) for ia in range(n_a) for ib in range(n_b))
        prob = np.outer(prob_a, prob_b).ravel()
    dist = JointDistribution(support, prob)
    return ScreeningInstance(
        ProductiveSpec(theta_0, x_grid, u_a, v_a),
        CostlySpec(theta_b, np.arange(y_vectors.shape[0], dtype=float),
                   0, u_b, v_b), dist)


def _costly_production_instance(params: dict) -> ScreeningInstance:
    # two linear-utility consumers with opposed tastes; the second item
    # costs more to make than anyone values it
    item_cost = _as_real(params.get("item_cost", 2.0), "item_cost")
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
        for f in fields(self):
            object.__setattr__(self, f.name, _as_real(getattr(self, f.name), f.name))
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
        if not low < imit - _ROUND_TOL:
            raise AssumptionFailed("adverse_selection",
                                   f"low type must covet the efficient high "
                                   f"offer: {low:.6g} >= {imit:.6g}")
        if self.theta_h - self.a_l > low + _ROUND_TOL:
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

    @property
    def gain(self) -> float:
        """What the costly activity buys the high type."""
        return self.value_high - self.value_high_no_instrument


def competitive_separating(p: CompetitiveParams) -> SeparatingSet:
    """Pareto-optimal separating offers, solved exactly.

    The low type gets its efficient allocation at the competitive wage. The
    high type's offer maximizes F(x, y) = theta_h x - psi_h(x) - c_h(y)
    while the low type's gain from it, g(x) - c_l(y) with g(x) = theta_h x
    - psi_l(x) - cap and cap = U_L + `_ROUND_TOL`, stays at most 0:

    - the cheapest deterring activity, y(x) = max(0, g(x) / b_l), is
      positive exactly between the roots x0 < x1 of g; the
      `adverse_selection` and `separation_at_one` checks put x^e_H between
      them and x1 in [0, 1] and keep y(x) below 1/8, so y <= 1 never binds;
    - F(x, 0) rises up to x0 and falls after x1, so work alone is worth
      max(F(x0, 0), F(x1, 0));
    - h(x) = F(x, y(x)) has h' > 0 at x0 and h' < 0 at x1, so its maximum
      is at a real root of the cubic h' = 0 in (x0, x1): the offer is the
      best of x0, x1 and those roots, the smallest x on a tie (x^e_H when
      b_h = 0, where the cubic is linear).

    Competition hands all surplus to the worker, so the binding constraint
    points upward and an activity cheap for the high type relaxes it:
    unlike the monopoly solutions, y comes out strictly positive, which the
    checks below certify.
    """
    cap = p.low_type_utility + _ROUND_TOL
    # with x = scale * s, g = V G(s) and h = V (s - s^2 / 2 - kappa G(s)^2):
    # every coefficient is O(1) but kappa = b_h V / b_l^2, so the cubic and
    # the candidates' ranks are divided by max(1, kappa); a coefficient below
    # eps of the largest changes the cubic on (s0, s1), inside [0, 2], about
    # as much as rounding does, and left in it overflows np.roots' companion
    # matrix or loses the root near 1, so it is dropped
    scale = p.efficient_high
    V = p.theta_h * scale
    G = np.poly1d([-p.a_l / p.a_h / 2, 1.0, -cap / V])
    kappa = p.b_h / p.b_l * (V / p.b_l)
    w_work, w_act = (1.0, kappa) if kappa <= 1 else (1 / kappa, 1.0)
    s0, s1 = np.sort(G.roots.real)
    dh = (w_work * np.poly1d([-1.0, 1.0]) - 2 * w_act * G * G.deriv()).coeffs
    dh[abs(dh) < np.finfo(float).eps * abs(dh).max()] = 0.0
    # a complex root's real part only adds one more feasible point to price
    roots = np.roots(dh).real
    s = np.sort(np.concatenate([[s0, s1], roots[(roots > s0) & (roots < s1)]]))
    ranks = w_work * (s - s * s / 2) - w_act * np.maximum(G(s), 0.0) ** 2
    x_star = float(scale * s[np.argmax(ranks)])
    y_star = max(0.0, (p.theta_h * x_star - p.psi_l(x_star) - cap) / p.b_l)
    v_star = p.theta_h * x_star - p.psi_h(x_star) - p.c_h(y_star)
    x0, x1 = float(scale * s0), float(scale * s1)
    v_no = max(p.theta_h * x0 - p.psi_h(x0), p.theta_h * x1 - p.psi_h(x1))

    offer_l = (p.efficient_low, 0.0, p.theta_l * p.efficient_low)
    offer_h = (x_star, y_star, p.theta_h * x_star)
    if y_star <= 0:
        if x_star in (x0, x1):  # the exact offer, with y > 0, lies inside
            raise StructuralError(
                f"optimal separating activity is below float resolution "
                f"beside x = {x_star!r}: kappa = b_h V / b_l^2 = {kappa:.6g}")
        raise StructuralError("optimal separating offer uses no costly "
                              "activity; contradicts the competitive result")
    if v_star <= v_no:  # h rises from x0 and falls to x1: the gain is real
        raise StructuralError(
            f"the costly activity's gain over work-only separation is below "
            f"float resolution of the value {v_no!r} at x = {x_star!r}, "
            f"y = {y_star!r}: kappa = b_h V / b_l^2 = {kappa:.6g}")
    # self-selection, both directions
    low_at_h = p.theta_h * x_star - p.psi_l(x_star) - p.c_l(y_star)
    if low_at_h > p.low_type_utility + FEAS_TOL:
        raise StructuralError("low type prefers the high offer")
    high_at_l = (p.theta_l * p.efficient_low - p.psi_h(p.efficient_low))
    if v_star < high_at_l - FEAS_TOL:
        raise StructuralError("high type prefers the low offer")
    return SeparatingSet(offer_l, offer_h, v_star, v_no)
