"""Helpers shared by several test files."""
import json

import numpy as np

from itertools import combinations, combinations_with_replacement

from screenkit import (FEAS_TOL, GeneratorKnobs, Mechanism, StructuralError,
                       level_couplings, productive_marginal, solve_full_1d,
                       u_region_decomposition)
from screenkit.applications import (_agent_values, _cell_tables,
                                    _option_cells, _principal_values)
from screenkit.solver import (_batch_transfers, _option_tables,
                              _path_rent_bound, _price)
from screenkit.transfers import URegions

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
    U = line.payoffs(opt_x, opt_y, np.zeros(opt_x.size))[0]
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
# scalar oracles of the array kernels: one type at a time, in type order
# ---------------------------------------------------------------------------


def canonical_json_oracle(obj) -> str:
    """The contract `io.canonical_json` meets byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def u_regions_by_sets(x) -> URegions:
    """`u_region_decomposition` filtering every index through the covered,
    origin and destination sets, with or without a region."""
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


def closed_form_loop(u_rows: list, x_idx) -> np.ndarray:
    """Closed-form downward transfers priced type by type from u's rows."""
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
    levels = level_couplings(inst)
    try:
        full1d = solve_full_1d(productive_marginal(inst, levels))
    except StructuralError:
        full1d = None
    prob = np.asarray(dist.prob)
    opt_x, opt_y, U, VG = _option_tables(inst)
    surplus = prob[:, None] * (U + VG)
    g, lift = _path_rent_bound(inst, levels, U, VG)
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
    """`_distinct_options` as one lexsort on (-P, index) within each group of
    bitwise identical agent-value columns."""
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
