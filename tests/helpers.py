"""Helpers shared by several test files."""
import json

import numpy as np

from screenkit import GeneratorKnobs, Mechanism, u_region_decomposition
from screenkit.solver import _batch_transfers

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
