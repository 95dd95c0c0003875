"""Helpers shared by several test files."""
import json
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, compress
from typing import Callable, NamedTuple, Sequence

import numpy as np

from screenkit import (FEAS_TOL, OUTSIDE, AssumptionFailed, CompetitiveParams,
                       CostlySpec, DiscreteDistribution,
                       GeneratorKnobs, JointDistribution, Mechanism, Menu,
                       OneDimInstance, ProductiveSpec, ScreeningInstance,
                       SizeGuardExceeded, StructuralError,
                       check_stochastic_monotonicity, instance_rng,
                       productive_marginal, solve_full_1d)
from screenkit.applications import (_agent_values, _cell_tables, _group_types,
                                    _option_cells, _principal_values)
from screenkit.model import _ROUND_TOL
from screenkit.solver import (_batch_transfers, _chain, _option_tables,
                              _path_rent_bound, _price)
from screenkit.theorems import (_check_nonincreasing_coordinate,
                                _coordinate_marginals, _median_split)

#: The knob sets of the theorem's acceptance criterion: positive instances
#: in dims 1 and 2, with strictly and weakly costly instruments.
THEOREM_KNOBS = (
    GeneratorKnobs(),
    GeneratorKnobs(n_a=4, n_b=3, n_x=3, n_y=2),
    GeneratorKnobs(n_a=2, n_b=2, n_x=2, n_y=2, strict_costly=False),
    GeneratorKnobs(n_a=4, n_b=3, n_x=2, n_y=2, dim=2),
    GeneratorKnobs(n_a=3, n_b=3, n_x=3, n_y=2, dim=2, strict_costly=False),
)


def ic_mechanism_on_line(line, rng, want_instrument=True):
    """Random feasible mechanism: monotone x, random y, maximal transfers.

    Up to 60 draws of (x, y); with `want_instrument`, draws keeping every
    instrument at baseline are skipped when there is another instrument.
    Returns None when no draw is implementable.
    """
    m = line.n_support
    n_x, n_y = line.productive.n_alloc, line.costly.n_alloc
    opt_x = np.repeat(np.arange(n_x), n_y)
    opt_y = np.tile(np.arange(n_y), n_x)
    U = line.payoffs(opt_x, opt_y)[0]
    for _ in range(60):
        x = np.sort(rng.integers(0, n_x, m))
        y = rng.integers(0, n_y, m)
        if want_instrument and n_y > 1 and not (y != line.costly.y0_index).any():
            continue
        D, infeasible = _batch_transfers(U, (x * n_y + y)[None, :])
        if infeasible[0]:
            continue
        return Mechanism(tuple(int(i) for i in x), tuple(int(i) for i in y),
                         tuple(float(v) for v in D[0]))
    return None


# ---------------------------------------------------------------------------
# scalar-type generator, region scan and binding pattern
# ---------------------------------------------------------------------------


def random_onedim_instance(seed: int, n: int = 4, n_x: int = 3,
                           surplus_single_crossing: bool = False,
                           stream: int = 0) -> OneDimInstance:
    """Draw a scalar-type instance with strict increasing differences.

    With ``surplus_single_crossing`` the principal table depends on the
    allocation only (plus an optional nonnegative complementarity term), so
    the total surplus inherits single crossing from the agent side.
    """
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
    """Scan an allocation sequence for U-shaped regions, one index at a time.

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
# dominance by upper sets: the flow's independent oracle
# ---------------------------------------------------------------------------


def dominance_by_upper_sets(p: DiscreteDistribution, q: DiscreteDistribution,
                            tol: float = FEAS_TOL, guard: int = 2 ** 20) -> bool:
    """Oracle route: compare masses of every upper set of the joint support.

    Exponential in support size; guarded. Kept deliberately independent of the
    flow construction so the two can certify each other in tests.
    """
    if p.dim != q.dim:
        raise StructuralError("distributions must share a dimension")
    pts = {tuple(row) for row in p.points} | {tuple(row) for row in q.points}
    order = sorted(pts)
    k = len(order)
    if 2 ** k > guard:
        raise SizeGuardExceeded("upper-set enumeration too large", 2 ** k, guard)
    arr = np.array(order, dtype=float)
    up_mask = []
    for i in range(k):
        m = 0
        for j in range(k):
            if np.all(arr[i] <= arr[j]):
                m |= 1 << j
        up_mask.append(m)
    mass_p = np.zeros(k)
    mass_q = np.zeros(k)
    index = {pt: i for i, pt in enumerate(order)}
    for row, pr in zip(p.points, p.prob):
        mass_p[index[tuple(row)]] += pr
    for row, pr in zip(q.points, q.prob):
        mass_q[index[tuple(row)]] += pr
    for subset in range(1, 2 ** k):
        closed = True
        s = subset
        while s:
            i = (s & -s).bit_length() - 1
            if up_mask[i] & ~subset:
                closed = False
                break
            s &= s - 1
        if not closed:
            continue
        total_p = total_q = 0.0
        s = subset
        while s:
            i = (s & -s).bit_length() - 1
            total_p += mass_p[i]
            total_q += mass_q[i]
            s &= s - 1
        if total_p > total_q + tol:
            return False
    return True


# ---------------------------------------------------------------------------
# grid convergence of the full-IC value
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


# ---------------------------------------------------------------------------
# scalar oracles of the array kernels: one type at a time, in type order
# ---------------------------------------------------------------------------


def canonical_json_oracle(obj) -> str:
    """The contract `io.canonical_json` meets byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def closed_form_loop(u_rows: list, x_idx) -> np.ndarray:
    """The U-region closed form of the downward transfers, priced type by
    type from u's rows: local steps summed over the free types, less one
    origin-anchored term per region below. It is the downward maximum when
    u rises in the type with increasing differences."""
    x_idx = [int(i) for i in x_idx]
    decomp = u_region_decomposition(x_idx)
    n = len(x_idx)
    free = set(decomp.free)
    t = [0.0] * n
    local_acc = 0.0
    for i in range(n):
        ti = u_rows[x_idx[i]][i] - local_acc
        for origin, dest in decomp.regions:
            if origin < i:
                row = u_rows[x_idx[origin]]
                ti -= row[min(dest, i)] - row[origin]
        t[i] = ti
        if i in free and i < n - 1:
            row = u_rows[x_idx[i]]
            local_acc += row[i + 1] - row[i]
    return np.array(t)


def downward_sweep_loop(u_rows: list, x_idx) -> np.ndarray:
    """The forward sweep of the downward transfers, one type and one lower
    type at a time: t_p = u[x_p][p] - max(0, max over q < p of
    u[x_q][p] - t_q)."""
    x_idx = [int(i) for i in x_idx]
    t = []
    for p, xp in enumerate(x_idx):
        gain = max((u_rows[x_idx[q]][p] - t[q] for q in range(p)), default=0.0)
        t.append(u_rows[xp][p] - max(gain, 0.0))
    return np.array(t)


def bundle_options(b):
    """Every probabilistic-bundling option on the shared grid, priced, from
    the cells `certify_bundling` uses.

    Returns agent values per type (n_types, n_options), principal utility
    before transfers and the alpha and q rows (n_options, n_bundles) that
    describe each option, in `_option_cells` order.
    """
    cells = _option_cells(b)
    alpha, q, weight, cost = _cell_tables(b)
    return (_agent_values(b, weight, cells), _principal_values(cost, cells),
            alpha[cells], q[cells])


def bundle_options_loop(b):
    """`bundle_options` built one composition at a time: (U, P, alpha, q)."""
    grid = b.quality_grid
    steps = grid.size - 1
    n_bundles = 2 ** b.n_goods
    alphas, slots = [], []
    for cuts in combinations(range(steps + n_bundles - 1), n_bundles - 1):
        parts = np.diff((-1,) + cuts + (steps + n_bundles - 1,)) - 1
        used = np.flatnonzero(parts)
        slot = np.zeros((grid.size ** used.size, n_bundles), dtype=np.intp)
        slot[:, used] = np.indices((grid.size,) * used.size).reshape(used.size, -1).T
        slots.append(slot)
        alphas.append(np.broadcast_to(parts / steps, slot.shape))
    alpha = np.concatenate(alphas)
    slot = np.concatenate(slots)
    q = np.where(alpha > 0, grid[slot], 0.0)
    weights = alpha * q
    U = sum(b.values[:, k, None] * weights[:, k] for k in range(n_bundles))
    P = -sum(alpha[:, k] * b.cost_samples[slot[:, k]] for k in range(n_bundles))
    return U, P, alpha, q


def ratio_check_by_instance(b):
    """The bundle ratio check through a whole screening instance: the ratio
    rows as the costly type of zero utility tables, grouped by grand value,
    decided by `check_stochastic_monotonicity`. Returns (ok, witness)."""
    grand = np.unique(b.grand_values, return_inverse=True)
    levels, ratios, cell_level, cell_point, mass = _group_types(
        b, b.values[:, :b.grand] / b.grand_values[:, None], grand)
    zeros_a, zeros_b = np.zeros((1, levels.size)), np.zeros((1, len(ratios)))
    return check_stochastic_monotonicity(ScreeningInstance(
        ProductiveSpec(levels, np.zeros(1), zeros_a, zeros_a),
        CostlySpec(ratios, np.zeros(1), 0, zeros_b, zeros_b),
        JointDistribution(tuple(zip(cell_level, cell_point)), mass)))


def superset_violation_loop(values):
    """First (b, c), row-major, with b a proper subset of c and some type
    valuing b above c by more than FEAS_TOL; None if there is none."""
    n_bundles = values.shape[1]
    for b in range(n_bundles):
        for c in range(n_bundles):
            if b & c == b and b != c:
                if (values[:, b] > values[:, c] + FEAS_TOL).any():
                    return b, c
    return None


def onedim_value_loop(inst, x_idx, t) -> float:
    """Expected principal payoff summed type by type from 0.0."""
    total = 0.0
    for p in range(inst.n):
        total += float(inst.mu[p]) * (float(inst.v[int(x_idx[p]), p]) + float(t[p]))
    return total


def full1d_allocation_loop(inst) -> tuple:
    """The full-IC dynamic program's allocation, its suffix maximum taken
    by compare-and-copy and its backtrack by a forward scan."""
    n, n_alloc = inst.n, inst.n_alloc
    u, v, mu = inst.u, inst.v, inst.mu
    tail = np.concatenate([np.cumsum(mu[::-1])[::-1][1:], [0.0]])
    contrib = mu[:, None] * (u.T + v.T)
    contrib[:-1] -= (u.T[1:] - u.T[:-1]) * tail[:-1, None]
    rows = contrib.tolist()
    G = [0.0] * n_alloc
    stage_m = [None] * n
    stage_g = [None] * n
    for j in range(n - 1, -1, -1):
        M = [a + b for a, b in zip(rows[j], G)]
        G = M[:]
        for c in range(n_alloc - 2, -1, -1):
            if G[c + 1] > G[c]:
                G[c] = G[c + 1]
        stage_m[j], stage_g[j] = M, G
    x_idx = []
    floor = 0
    for M, G in zip(stage_m, stage_g):
        c = floor
        while M[c] != G[floor]:
            c += 1
        x_idx.append(c)
        floor = c
    return tuple(x_idx)


# ---------------------------------------------------------------------------
# the joint search before the root filter
# ---------------------------------------------------------------------------


def unfiltered_joint(inst, chunk=1 << 14):
    """Depth-first joint search over every option, without ironing or root
    filter: the full1d row lifted to baseline and the monotone seed set the
    incumbent, and prefixes fall only to the surplus and path-rent bounds.

    Returns (value, x, y, t, some_optimum_baseline, all_optima_baseline,
    number of optima), the mechanism being the first assignment in
    lexicographic order that attains the maximal value.
    """
    cost, dist = inst.costly, inst.dist
    m = inst.n_support
    levels = inst.level_couplings
    try:
        full1d = solve_full_1d(productive_marginal(inst))
    except StructuralError:
        full1d = None
    prob = np.asarray(dist.prob)
    opt_x, opt_y, U, VG = _option_tables(inst)
    surplus = prob[:, None] * (U + VG)
    g, lift = _path_rent_bound(inst, levels, _chain(inst, levels), U, VG)
    rest = np.append(np.cumsum(surplus.max(axis=1)[::-1])[::-1], 0.0)
    bound = np.append(np.cumsum(g.max(axis=1)[::-1])[::-1], 0.0) + lift
    level_of = np.searchsorted(levels.a_indices, [a for a, _ in dist.support])
    best = -np.inf
    if full1d is not None:
        lifted = np.array(full1d.x_idx)[level_of] * cost.n_alloc + cost.y0_index
        best = float(_price(U, VG, prob, lifted[None, :])[0][0])
    if best < bound[0] - FEAS_TOL:
        menus = np.array(list(combinations_with_replacement(
            range(inst.productive.n_alloc), levels.a_indices.size)))
        x = menus[:, level_of] * cost.n_alloc + cost.y0_index
        best = max(best, float(_price(U, VG, prob, x)[0].max()))

    cand_vals, cand_base = [], []
    best_val, best_alloc, best_t = -np.inf, None, None
    stack = [(np.zeros((1, 0), dtype=np.intp), np.zeros(1), np.zeros(1))]
    while stack:
        prefixes, partial, partial_g = stack.pop()
        d = prefixes.shape[1]
        child = partial[:, None] + surplus[d]
        child_g = partial_g[:, None] + g[d]
        floor = best - FEAS_TOL
        keep = (child >= floor - rest[d + 1]) & (child_g >= floor - bound[d + 1])
        rows, opts = np.nonzero(keep)
        if not rows.size:
            continue
        prefixes = np.column_stack((prefixes[rows], opts))
        partial, partial_g = child[rows, opts], child_g[rows, opts]
        if d + 1 < m:
            for start in reversed(range(0, rows.size, chunk)):
                block = slice(start, start + chunk)
                stack.append((prefixes[block], partial[block], partial_g[block]))
            continue
        for start in range(0, rows.size, chunk):
            leaves = prefixes[start:start + chunk]
            values, D = _price(U, VG, prob, leaves)
            i = int(np.argmax(values))
            if values[i] > best_val:
                best_val, best_alloc, best_t = float(values[i]), leaves[i], D[i]
            best = max(best, float(values[i]))
            near = values >= best - FEAS_TOL
            cand_vals.append(values[near])
            cand_base.append((opt_y[leaves[near]] == cost.y0_index).all(axis=1))
    optimal = np.concatenate(cand_vals) >= best_val - FEAS_TOL
    baseline = np.concatenate(cand_base)[optimal]
    return (best_val, tuple(opt_x[best_alloc]), tuple(opt_y[best_alloc]),
            tuple(float(t) for t in best_t), bool(baseline.any()),
            bool(baseline.all()), int(baseline.size))


def distinct_options_lexsort(U, P):
    """Ascending indices of the options that no identical option beats:
    one lexsort on (-P, index) within each group of bitwise identical
    agent-value columns keeps the first."""
    keys = U.view(np.int64)
    order = np.lexsort((np.arange(P.size), -P, *keys[::-1]))
    first = np.ones(order.size, dtype=bool)
    first[1:] = (keys[:, order[1:]] != keys[:, order[:-1]]).any(axis=0)
    return np.sort(order[first])


# ---------------------------------------------------------------------------
# the six table checks of `validate_instance`, one scalar at a time
# ---------------------------------------------------------------------------


def productive_monotone_loop(spec):
    for i in range(spec.n_alloc):
        row = spec.u_a[i]
        for j in range(spec.n_types - 1):
            if row[j + 1] < row[j] - FEAS_TOL:
                return False, (float(spec.x_grid[i]), float(spec.theta_a[j]),
                               float(spec.theta_a[j + 1])), ""
    return True, None, ""


def increasing_differences_loop(spec):
    u = spec.u_a
    for i in range(spec.n_alloc - 1):
        for j in range(spec.n_types - 1):
            delta = (u[i + 1, j + 1] - u[i, j + 1]) - (u[i + 1, j] - u[i, j])
            if not delta > FEAS_TOL:
                return False, (float(spec.x_grid[i]), float(spec.x_grid[i + 1]),
                               float(spec.theta_a[j]), float(spec.theta_a[j + 1])), ""
    return True, None, ""


def single_crossing_loop(spec):
    s = spec.u_a + spec.v_a
    for i in range(spec.n_alloc - 1):
        for k in range(i + 1, spec.n_alloc):
            d = s[k] - s[i]
            for j in range(spec.n_types - 1):
                witness = (float(spec.x_grid[i]), float(spec.x_grid[k]),
                           float(spec.theta_a[j]), float(spec.theta_a[j + 1]))
                if d[j] > FEAS_TOL and not d[j + 1] > FEAS_TOL:
                    return False, witness, "strict gain reversed"
                if d[j] >= -FEAS_TOL and d[j + 1] < -FEAS_TOL:
                    return False, witness, "weak gain reversed"
    return True, None, ""


def costly_monotone_loop(spec):
    n = spec.n_types
    for b in range(n):
        for c in range(n):
            if b == c or not np.all(spec.theta_b[b] <= spec.theta_b[c]):
                continue
            for y in range(spec.n_alloc):
                if spec.u_b[y, b] > spec.u_b[y, c] + FEAS_TOL:
                    return False, (int(y), tuple(spec.theta_b[b]),
                                   tuple(spec.theta_b[c])), ""
    return True, None, ""


def costly_sign_loop(spec):
    s = spec.surplus
    for y in range(spec.n_alloc):
        for b in range(spec.n_types):
            if s[y, b] > FEAS_TOL:
                return False, (int(y), int(b), float(s[y, b])), ""
    return True, None, ""


def baseline_loop(spec):
    y0 = spec.y0_index
    for name, tab in (("u_b", spec.u_b), ("v_b", spec.v_b)):
        for b in range(spec.n_types):
            if tab[y0, b] != 0.0:
                return False, (name, int(b), float(tab[y0, b])), ""
    return True, None, ""


# ---------------------------------------------------------------------------
# converse: the per-pair menu loop and the grid-search reference
# ---------------------------------------------------------------------------


def loop_agent_payoff(inst, p, option) -> float:
    """Agent payoff of support point p taking `option` = (ix, iy, t), or
    0.0 for None or OUTSIDE: the scalar read of the tables the
    `ScreeningInstance.payoffs` table is checked against."""
    if option is None or option == OUTSIDE:
        return 0.0
    ia, ib = inst.dist.support[p]
    ix, iy, t = option
    return float(inst.productive.u_a[ix, ia] + inst.costly.u_b[iy, ib] - t)


def loop_principal_payoff(inst, p, option) -> float:
    """Principal payoff from support point p taking `option`, read as
    `loop_agent_payoff` reads the agent's."""
    if option is None or option == OUTSIDE:
        return 0.0
    ia, ib = inst.dist.support[p]
    ix, iy, t = option
    return float(inst.productive.v_a[ix, ia] + inst.costly.v_b[iy, ib] + t)


def loop_menu_best_response(inst, menu):
    options = menu.options if isinstance(menu, Menu) else tuple(menu)
    assignment = []
    value = 0.0
    for p in range(inst.n_support):
        agent_vals = [loop_agent_payoff(inst, p, o) for o in options]
        best_agent = max(agent_vals, default=0.0)
        best_agent = max(best_agent, 0.0)  # outside option
        cand = [k for k, a in enumerate(agent_vals) if a >= best_agent - FEAS_TOL]
        outside_ok = 0.0 >= best_agent - FEAS_TOL
        if cand:
            pvals = [loop_principal_payoff(inst, p, options[k]) for k in cand]
            best_p = max(pvals)
            if outside_ok:
                best_p = max(best_p, 0.0)
            chosen = next((k for k, pv in zip(cand, pvals) if pv >= best_p - FEAS_TOL), None)
            if chosen is None:  # only the outside option attains best_p
                chosen = OUTSIDE
        else:
            chosen = OUTSIDE
        assignment.append(chosen)
        picked = None if chosen == OUTSIDE else options[chosen]
        value += float(inst.dist.prob[p]) * loop_principal_payoff(inst, p, picked)
    return assignment, value


def _converse_instance(inst, coord, m0, m1, eps):
    prod, cost = inst.productive, inst.costly
    x = prod.x_grid
    span = x[-1] - x[0]
    f = np.where(prod.theta_a <= m0, 1.0, 2.0)
    g = np.where(cost.theta_b[:, coord] <= m1, -1.0, -eps)
    u_a = np.outer((x - x[0]) / span, f)
    indicator = np.ones(cost.n_alloc)
    indicator[cost.y0_index] = 0.0
    u_b = np.outer(indicator, g)
    return ScreeningInstance(
        ProductiveSpec(prod.theta_a, x, u_a, np.zeros_like(u_a)),
        CostlySpec(cost.theta_b, cost.y_set, cost.y0_index, u_b, np.zeros_like(u_b)),
        inst.dist)


def loop_converse(inst, coord=0, dominance_margin=1e-6):
    """One built instance and one looped best response per epsilon tried."""
    prod, cost = inst.productive, inst.costly
    t0, t1, w = _coordinate_marginals(inst, coord)
    m0 = _median_split(t0, w, "the productive type")
    m1 = _median_split(t1, w, f"costly coordinate {coord}")
    _check_nonincreasing_coordinate(inst, coord)
    x0_idx, xhat_idx = 0, prod.n_alloc - 1
    yhat_idx = 1 if cost.y0_index == 0 else 0
    p_high_instrument = float(w[t1 > m1].sum())

    def certified(eps):
        r = ((1.0 - eps) * p_high_instrument
             + (2.0 - eps) * float(w[(t0 >= m0 + eps) & (t1 <= m1)].sum()))
        q = 2.0 * float(w[(t0 >= m0 - eps) & (t0 <= m0 + eps)].sum()) + 1.0
        built = _converse_instance(inst, coord, m0, m1, eps)
        menu = Menu(((xhat_idx, cost.y0_index, 2.0 - eps),
                     (xhat_idx, yhat_idx, 1.0 - eps),
                     (x0_idx, cost.y0_index, 0.0)))
        menu_value = float(loop_menu_best_response(built, menu)[1])
        ok = (r > q and menu_value >= r - FEAS_TOL
              and menu_value > productive_value + dominance_margin)
        return ok, (built, menu, menu_value, r, q)

    probe = _converse_instance(inst, coord, m0, m1, 0.01)
    productive_value = solve_full_1d(productive_marginal(probe)).value
    coarse = [0.01 * k for k in range(1, 50)]
    tail = [1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6, 1e-7, 1e-8]
    best = None
    for eps in coarse + tail:
        ok, payload = certified(eps)
        if ok and (best is None or payload[2] > best[1][2]):
            best = (eps, payload)
    center = best[0]
    for k in range(-9, 10):
        eps = center + 0.001 * k
        if eps <= 0 or eps >= 0.5:
            continue
        ok, payload = certified(eps)
        if ok and payload[2] > best[1][2] + 1e-15:
            best = (eps, payload)
    eps_star, (built, menu, menu_value, r_val, q_val) = best
    return dict(
        instance=built, menu=menu, m0=m0, m1=m1, eps_star=float(eps_star),
        f_values=tuple(float(v) for v in np.where(prod.theta_a <= m0, 1.0, 2.0)),
        g_values=tuple(float(v) for v in
                       np.where(cost.theta_b[:, coord] <= m1, -1.0, -eps_star)),
        r_val=float(r_val), q_val=float(q_val), menu_value=float(menu_value),
        productive_value=float(productive_value))


# ---------------------------------------------------------------------------
# competitive screening: the criterion-11 draws and the grid program, a
# lower bound on the exact offer (every point it returns is feasible)
# ---------------------------------------------------------------------------


def draw_competitive(rng):
    """One valid `CompetitiveParams` from `rng`, by rejection sampling."""
    for _ in range(400):
        theta_l = rng.uniform(0.4, 0.7)
        theta_h = theta_l + rng.uniform(0.15, 0.6)
        a_l = rng.uniform(0.9, 1.3)
        a_h = rng.uniform(theta_h / 2, a_l)
        b_l = 2 * a_l + rng.uniform(0.05, 2.0)
        b_h = rng.uniform(0.0, 2.0)
        try:
            return CompetitiveParams(theta_l, theta_h, a_l, a_h, b_l, b_h)
        except AssumptionFailed:
            continue
    raise RuntimeError("rejection sampling exhausted")


#: Steps of the separating program's coarse grid on [0, 1] and of its one
#: refinement around the coarse maximizer.
_COARSE_STEP = 1e-3
_FINE_STEP = 1e-5


def _constrained_max(p: CompetitiveParams, xs: np.ndarray, ys: np.ndarray):
    """Best (x, y) for the high type keeping the low type out.

    Scans ys-by-xs in row-major order, so exact ties resolve to the smallest
    activity level and then the smallest allocation; with a free activity for
    the high type this lands on the boundary where the low type's IC binds.
    """
    cap = p.low_type_utility + _ROUND_TOL
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


def _window(center: float) -> np.ndarray:
    """Fine steps within one coarse step of `center`, clipped to [0, 1]."""
    lo = max(0.0, center - _COARSE_STEP)
    hi = min(1.0, center + _COARSE_STEP)
    n = int(round((hi - lo) / _FINE_STEP)) + 1
    return lo + _FINE_STEP * np.arange(n)


def grid_separating(p: CompetitiveParams) -> tuple:
    """(x, y, value, work-only value) of the high type's offer, searched on
    a grid of step `_COARSE_STEP` over [0, 1]^2 and refined once, in steps
    of `_FINE_STEP`, within one coarse step of the maximizer."""
    n_coarse = int(round(1.0 / _COARSE_STEP)) + 1
    grid = _COARSE_STEP * np.arange(n_coarse)
    x1, y1, _ = _constrained_max(p, grid, grid)
    xs, ys = _window(x1), _window(y1)
    x_star, y_star, v_star = _constrained_max(p, xs, ys)

    x0_1, _, _ = _constrained_max(p, grid, np.zeros(1))
    xs0 = _window(x0_1)
    _, _, v_no = _constrained_max(p, xs0, np.zeros(1))
    return x_star, y_star, v_star, v_no
