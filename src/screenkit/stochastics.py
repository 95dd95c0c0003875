"""Stochastic order machinery for the costly component.

Dominance between finitely supported laws on R^N is decided by an exact
max-flow on the componentwise admissibility graph (capacities are
probabilities scaled to integer units of 10**-12 mass, so there is no flow
tolerance to tune); against a point mass the max flow is unique and is read
off the admissibility table directly. One pass, an instance's
`level_couplings`, couples the conditional costly laws of adjacent
productive levels (common quantiles for a scalar costly type, one max-flow
per pair otherwise). It decides monotonicity and feeds the joint solver's
path-rent bound and the one path routine, which peels a stochastically
monotone joint law into a finite mixture of nondecreasing paths.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotDominated, NotMonotone, StructuralError
from .model import (_ROUND_TOL, FEAS_TOL, PROB_TOL, CostlySpec,
                    JointDistribution, ProductiveSpec, ScreeningInstance,
                    _as_index, _as_real, _distinct_rows, _sequence, _table,
                    _weights)

# Probabilities are scaled by this before max-flow; one unit is 1e-12 mass.
_FLOW_SCALE = 10 ** 12
# Flow shortfall accepted as "dominated within tolerance" (1e-9 of mass).
_FLOW_SLACK = 10 ** 3
#: Mass a law, a coupling or a path mixture may be off by: the flow slack.
MASS_TOL = _FLOW_SLACK / _FLOW_SCALE


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finitely supported law on R^N."""

    points: np.ndarray  # (k, N)
    prob: np.ndarray    # (k,) strictly positive, sums to 1

    def __post_init__(self):
        object.__setattr__(self, "points", _distinct_rows(self.points, "points"))
        # a law the flow reads as its own within its slack is accepted
        object.__setattr__(self, "prob", _weights(self.prob, len(self), "prob",
                                                  tol=MASS_TOL))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint law on pairs (p point, q point) of two laws of one dimension,
    supported on comparable pairs (p point componentwise below q point) to
    within MASS_TOL; anything else raises StructuralError."""

    p: DiscreteDistribution
    q: DiscreteDistribution
    mass: np.ndarray  # (len(p), len(q))

    def __post_init__(self):
        for name in ("p", "q"):
            law = getattr(self, name)
            if not isinstance(law, DiscreteDistribution):
                raise StructuralError(f"{name}: expected a DiscreteDistribution, "
                                      f"got {law!r}")
        if self.p.dim != self.q.dim:
            raise StructuralError("distributions must share a dimension")
        mass = _table(self.mass, (len(self.p), len(self.q)), "mass")
        off = np.abs(mass[~_admissible(self.p.points, self.q.points)]).sum()
        if off > MASS_TOL:
            raise StructuralError(f"mass {off:.3g} sits on pairs whose p point "
                                  f"is not below its q point")
        object.__setattr__(self, "mass", mass)

    def marginal_error(self) -> float:
        row = np.abs(self.mass.sum(axis=1) - self.p.prob).max()
        col = np.abs(self.mass.sum(axis=0) - self.q.prob).max()
        return float(max(row, col))


@dataclass(frozen=True)
class TypePath:
    """One nondecreasing trajectory of the costly type along the scalar type."""

    weight: float
    b_indices: tuple  # theta_b index per scalar-type level

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_real(self.weight, "weight"))
        object.__setattr__(self, "b_indices", tuple(
            _as_index(i, "b_indices")
            for i in _sequence(self.b_indices, "b_indices")))


@dataclass(frozen=True, eq=False)
class PathMixture:
    """Weighted mixture of monotone paths reproducing a joint distribution."""

    a_indices: tuple     # theta_a indices present in the support, ascending
    a_probs: np.ndarray  # scalar-type marginal over a_indices
    paths: tuple         # TypePath entries

    def __post_init__(self):
        a_indices = tuple(_as_index(i, "a_indices")
                          for i in _sequence(self.a_indices, "a_indices"))
        object.__setattr__(self, "a_indices", a_indices)
        # one weight per level, read as the flow reads a law
        object.__setattr__(self, "a_probs", _weights(
            self.a_probs, len(a_indices), "a_probs", tol=MASS_TOL))
        paths = _sequence(self.paths, "paths")
        for path in paths:
            if (not isinstance(path, TypePath)
                    or len(path.b_indices) != len(a_indices)):
                raise StructuralError(f"paths: expected a TypePath with "
                                      f"{len(a_indices)} b_indices, got {path!r}")
        object.__setattr__(self, "paths", paths)

    def joint(self) -> dict:
        """Reconstructed joint law as {(ia, ib): probability}."""
        out: dict = {}
        for path in self.paths:
            for k, ia in enumerate(self.a_indices):
                key = (ia, path.b_indices[k])
                out[key] = out.get(key, 0.0) + path.weight * float(self.a_probs[k])
        return out


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def _integer_weights(prob: np.ndarray) -> list:
    """Scale probabilities to integers summing exactly to the flow scale."""
    w = [round(float(p) * _FLOW_SCALE) for p in prob]
    w[int(np.argmax(prob))] += _FLOW_SCALE - sum(w)
    return w


def _admissible(p_pts: np.ndarray, q_pts: np.ndarray) -> np.ndarray:
    """Boolean matrix: p point i componentwise <= q point j."""
    return np.all(p_pts[:, None, :] <= q_pts[None, :, :], axis=2)


def _flow_between(p_points, p_prob, q_points, q_prob):
    """Max flow through the admissibility graph, integer units, from the law
    p (weights `p_prob` on the rows of `p_points`) into the law q.

    Returns the value and the int64 table of the units p point i sends to q
    point j. When either law is a point mass the max flow is unique: the
    point's side holds the whole flow scale, so every admissible pair
    carries the integer weight of its point on the other side, and no
    augmenting path is searched. Otherwise `_augmenting_flow` decides.
    """
    if len(p_prob) > 1 and len(q_prob) > 1:
        return _augmenting_flow(p_points, p_prob, q_points, q_prob)
    adm = _admissible(p_points, q_points)
    if len(p_prob) == 1:
        units = adm * np.array(_integer_weights(q_prob), dtype=np.int64)
    else:
        units = adm * np.array(_integer_weights(p_prob), dtype=np.int64)[:, None]
    return int(units.sum()), units


def _augmenting_flow(p_points, p_prob, q_points, q_prob):
    """`_flow_between` by Edmonds-Karp on a dense residual table over source,
    p points, q points and sink."""
    k, n = len(p_prob), len(p_prob) + len(q_prob) + 2
    cap = np.zeros((n, n), dtype=np.int64)
    cap[0, 1:k + 1] = _integer_weights(p_prob)
    cap[k + 1:-1, -1] = _integer_weights(q_prob)
    cap[1:k + 1, k + 1:-1] = _FLOW_SCALE * _admissible(p_points, q_points)
    cap = cap.tolist()
    while True:
        prev, queue = {0: 0}, [0]
        for a in queue:  # breadth first; prev[b] is the node that reached b
            reached = [b for b, c in enumerate(cap[a]) if c and b not in prev]
            prev.update(dict.fromkeys(reached, a))
            queue += reached
        if n - 1 not in prev:  # a residual q -> p edge holds the flow p -> q
            return _FLOW_SCALE - sum(cap[0]), np.array(cap)[k + 1:-1, 1:k + 1].T
        path, b = [], n - 1
        while b:
            path.append((prev[b], b))
            b = prev[b]
        push = min(cap[a][b] for a, b in path)
        for a, b in path:
            cap[a][b] -= push
            cap[b][a] += push


def _row_cdfs(laws: np.ndarray, values: np.ndarray) -> np.ndarray:
    """CDF of each row of a law table at the distinct values of its columns.

    Row l of `laws` puts mass laws[l, j] on the scalar values[j]. Entry
    [l, k] of the result is the mass row l puts at or below the k-th
    smallest distinct value, accumulated in ascending order of the values.
    """
    order = np.argsort(values, kind="stable")
    tops = np.flatnonzero(np.append(np.diff(values[order]) != 0, True))
    return np.cumsum(laws[:, order], axis=1)[:, tops]


def _unordered_rows(cdf: np.ndarray) -> np.ndarray:
    """Indices k where row k of a CDF table is not below row k + 1.

    A scalar law is stochastically below another iff its CDF is nowhere
    smaller by more than FEAS_TOL.
    """
    return np.flatnonzero((cdf[:-1] < cdf[1:] - FEAS_TOL).any(axis=1))


def check_dominance(p: DiscreteDistribution, q: DiscreteDistribution) -> bool:
    """Decide whether p is stochastically below q (usual stochastic order):
    scalar laws by CDFs within FEAS_TOL, others by a max flow within MASS_TOL."""
    if p.dim != q.dim:
        raise StructuralError("distributions must share a dimension")
    if p.dim == 1:
        laws = np.zeros((2, len(p) + len(q)))
        laws[0, :len(p)], laws[1, len(p):] = p.prob, q.prob
        values = np.concatenate([p.points[:, 0], q.points[:, 0]])
        return not _unordered_rows(_row_cdfs(laws, values)).size
    value, _ = _flow_between(p.points, p.prob, q.points, q.prob)
    return _FLOW_SCALE - value <= _FLOW_SLACK


def strassen_coupling(p: DiscreteDistribution, q: DiscreteDistribution) -> Coupling:
    """Monotone coupling of p below q; raises NotDominated if none exists.

    The coupling lives on componentwise-comparable pairs and matches both
    marginals to within MASS_TOL.
    """
    if p.dim != q.dim:
        raise StructuralError("distributions must share a dimension")
    value, units = _flow_between(p.points, p.prob, q.points, q.prob)
    if _FLOW_SCALE - value > _FLOW_SLACK:
        raise NotDominated("no monotone coupling: distributions are not ordered")
    mass = units / _FLOW_SCALE
    mass.setflags(write=False)  # shared by the coupling, not copied
    return Coupling(p, q, mass)


# ---------------------------------------------------------------------------
# conditionals, level couplings and monotonicity of a joint law
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LevelCouplings:
    """The support grouped by productive level, and a coupling per level pair.

    `a_indices`, `a_probs` and `cond` are an instance's `levels`.
    `couplings[k][i, j]` is the mass a coupling of the conditional laws at
    levels k and k + 1 sends from theta_b index i to theta_b index j; its
    marginals are rows k and k + 1 of `cond`. `first_unordered` is the first
    k whose pair is not stochastically ordered, or None.
    """

    a_indices: np.ndarray
    a_probs: np.ndarray
    cond: np.ndarray
    couplings: tuple
    first_unordered: int | None


def _quantile_couplings(cdf: np.ndarray, order: np.ndarray) -> tuple:
    """Common-quantile coupling of every adjacent pair of CDF rows.

    Column k of `cdf` is theta_b index order[k]. Each law owns one interval
    of quantiles per point, and the coupling sends the overlap of two
    intervals from the lower law's point to the upper law's. It is monotone
    wherever the lower law's CDF lies above the upper's.
    """
    lo = np.concatenate((np.zeros((cdf.shape[0], 1)), cdf[:, :-1]), axis=1)
    overlap = (np.minimum(cdf[:-1, :, None], cdf[1:, None, :])
               - np.maximum(lo[:-1, :, None], lo[1:, None, :]))
    mass = np.zeros_like(overlap)
    mass[:, order[:, None], order[None, :]] = np.maximum(overlap, 0.0)
    return tuple(mass)


def _adjacent_couplings(cond: np.ndarray, theta: np.ndarray) -> tuple:
    """Couple every adjacent pair of rows of a conditional law table.

    Row l of `cond` is a law on the points `theta` (one row per point).
    Returns (couplings, first_unordered): `couplings[k][i, j]` is the mass a
    coupling of rows k and k + 1 sends from point i to point j, and
    `first_unordered` is the first k whose rows are not stochastically
    ordered, or None. Scalar points take the common-quantile coupling of the
    row CDFs and run no flow. Higher dimensions run one max-flow per pair
    on the rows' support arrays, and a pair it leaves short by more than
    `_FLOW_SLACK` gets the product coupling, as the rent bound holds for
    any coupling. Adjacent pairs decide monotonicity since the order is transitive.
    """
    if theta.shape[1] == 1:
        cdf = _row_cdfs(cond, theta[:, 0])
        bad = _unordered_rows(cdf).tolist()
        couplings = _quantile_couplings(cdf, np.argsort(theta[:, 0], kind="stable"))
    else:
        on = [np.flatnonzero(row) for row in cond]
        bad, couplings = [], []
        for k in range(len(cond) - 1):
            lo, hi = cond[k, on[k]], cond[k + 1, on[k + 1]]
            value, units = _flow_between(theta[on[k]], lo, theta[on[k + 1]], hi)
            if _FLOW_SCALE - value <= _FLOW_SLACK:
                block = units / _FLOW_SCALE
            else:
                block = np.outer(lo, hi)
                bad.append(k)
            mass = np.zeros((theta.shape[0],) * 2)
            mass[np.ix_(on[k], on[k + 1])] = block
            couplings.append(mass)
    return tuple(couplings), bad[0] if bad else None


def check_stochastic_monotonicity(inst: ScreeningInstance):
    """Check that the costly type rises stochastically with the scalar type.

    Returns (ok, witness); the witness is the offending pair of scalar-type
    values, the first adjacent pair of levels the instance's
    `level_couplings` finds unordered.
    """
    k = inst.level_couplings.first_unordered
    if k is None:
        return True, None
    theta, a_indices = inst.productive.theta_a, inst.levels[0]
    return False, (float(theta[a_indices[k]]), float(theta[a_indices[k + 1]]))


# ---------------------------------------------------------------------------
# path decomposition
# ---------------------------------------------------------------------------


def _peeled_paths(levels: LevelCouplings):
    # chain the couplings in integer flow units level to level, then peel
    # bottleneck paths
    if not levels.couplings:
        return [TypePath(levels.cond[0, ib], (ib,))
                for ib in np.flatnonzero(levels.cond[0]).tolist()]
    edge_units = [np.rint(mass * _FLOW_SCALE).astype(np.int64)
                  for mass in levels.couplings]
    paths = []
    while (starts := np.flatnonzero(edge_units[0].sum(axis=1))).size:
        chain = [int(starts[0])]
        for units in edge_units:
            nxt = np.flatnonzero(units[chain[-1]])
            if not nxt.size:
                break
            chain.append(int(nxt[0]))
        steps = list(zip(edge_units, chain, chain[1:]))
        bottleneck = min(int(units[i, j]) for units, i, j in steps)
        for units, i, j in steps:
            units[i, j] -= bottleneck
        # a chain stops short only where a flow fell short, by at most
        # _FLOW_SLACK units, or where rounding a quantile coupling to units
        # left a unit unmatched; that stranded mass is dropped, and
        # _assert_reproduces bounds what the mixture loses
        if len(chain) == len(edge_units) + 1:
            paths.append(TypePath(bottleneck / _FLOW_SCALE, tuple(chain)))
    return paths


def path_decomposition(inst: ScreeningInstance) -> PathMixture:
    """Write the joint type law as a weighted mixture of monotone paths.

    Requires stochastic monotonicity (NotMonotone naming the first failing
    pair of levels otherwise). Chains the monotone couplings of the
    instance's `level_couplings` (common-quantile for a scalar costly type,
    one max-flow per adjacent pair otherwise) in integer flow units and
    repeatedly peels the bottleneck trajectory, so every path steps along
    pairs its couplings carry. The mixture reproduces the joint law to
    MASS_TOL and every path is componentwise nondecreasing.
    """
    ok, witness = check_stochastic_monotonicity(inst)
    if not ok:
        raise NotMonotone(f"costly type not stochastically monotone at "
                          f"levels {witness}")
    levels = inst.level_couplings
    mixture = PathMixture(levels.a_indices, levels.a_probs, _peeled_paths(levels))
    _assert_reproduces(inst, mixture)
    return mixture


def _assert_reproduces(inst: ScreeningInstance, mixture: PathMixture):
    got = mixture.joint()
    want = {pair: float(pr) for pair, pr in zip(inst.dist.support, inst.dist.prob)}
    keys = set(got) | set(want)
    worst = max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys)
    if worst > MASS_TOL:
        raise NotMonotone(f"path mixture fails to reproduce the joint law (err {worst:g})")
    theta = inst.costly.theta_b
    for path in mixture.paths:
        for k in range(len(path.b_indices) - 1):
            lo, hi = path.b_indices[k], path.b_indices[k + 1]
            if not np.all(theta[lo] <= theta[hi] + _ROUND_TOL):
                raise NotMonotone("peeled path is not monotone")


# ---------------------------------------------------------------------------
# seeded instance generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorKnobs:
    """Size and shape controls for random positively correlated instances."""

    n_a: int = 3
    n_b: int = 2
    n_x: int = 3
    n_y: int = 2
    dim: int = 1
    strict_costly: bool = True
    max_paths: int = 2

    def __post_init__(self):
        for name in ("n_a", "n_b", "n_x", "n_y", "dim", "max_paths"):
            count = _as_index(getattr(self, name), name)
            if count < 1:
                raise StructuralError(f"{name} must be at least 1, got {count}")
            object.__setattr__(self, name, count)


def instance_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) fully determines the draws."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_positive_instance(seed: int, knobs: GeneratorKnobs = GeneratorKnobs(),
                             stream: int = 0) -> ScreeningInstance:
    """Draw an instance satisfying every model assumption by construction.

    The productive utility is a product of increasing terms, the instrument
    utility scales a nonincreasing positive type weight, and the joint law is
    a mixture of nondecreasing paths through a componentwise chain, so the
    assumption checks (including stochastic monotonicity) always pass.
    """
    rng = instance_rng(seed, stream)
    k = knobs

    theta_a = np.round(rng.uniform(0.1, 0.6) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 0.8, k.n_a - 1))]), 6)
    x_grid = np.round(rng.uniform(0.0, 0.4) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 0.7, k.n_x - 1))]), 6)
    a_vals = rng.uniform(0.2, 0.6) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.1, 0.5, k.n_a - 1))])
    b_vals = rng.uniform(0.0, 0.3) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.15, 0.5, k.n_x - 1))])
    u_a = np.outer(b_vals, a_vals)
    v_a = np.tile(rng.uniform(-0.6, 0.6, k.n_x)[:, None], (1, k.n_a))

    start = rng.uniform(-0.5, 0.5, k.dim)
    steps = rng.uniform(0.15, 0.7, (max(k.n_b - 1, 0), k.dim))
    theta_b = np.round(np.vstack([start, start + np.cumsum(steps, axis=0)])[:k.n_b], 6)
    beta = rng.uniform(0.2, 1.0, k.dim)
    w = np.exp(-((theta_b - theta_b[0]) @ beta))  # 1 at the bottom, nonincreasing
    c = np.zeros(k.n_y)
    if k.n_y > 1:
        c[1:] = rng.uniform(0.15, 1.0, k.n_y - 1)
    rho = np.zeros(k.n_y)
    for y in range(1, k.n_y):
        if k.strict_costly:
            rho[y] = rng.uniform(0.0, 0.85)
        else:
            rho[y] = 1.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.85)
    u_b = -np.outer(c, w)
    v_b = np.outer(rho * c, w)
    u_b[0] = 0.0
    v_b[0] = 0.0

    mu_a = rng.uniform(0.25, 1.0, k.n_a)
    mu_a /= mu_a.sum()
    n_paths = int(rng.integers(1, k.max_paths + 1))
    weights = rng.uniform(0.25, 1.0, n_paths)
    weights /= weights.sum()
    joint: dict = {}
    for w_k in weights:
        path = np.sort(rng.integers(0, k.n_b, k.n_a))
        for i in range(k.n_a):
            key = (i, int(path[i]))
            joint[key] = joint.get(key, 0.0) + float(mu_a[i]) * float(w_k)
    support = sorted(joint)
    prob = np.array([joint[key] for key in support])
    prob /= prob.sum()

    return ScreeningInstance(
        ProductiveSpec(theta_a, x_grid, u_a, v_a),
        CostlySpec(theta_b, np.arange(k.n_y, dtype=float), 0, u_b, v_b),
        JointDistribution(tuple(support), prob),
    )


def random_negative_instance(seed: int, stream: int = 0) -> ScreeningInstance:
    """Draw an instance whose components are negatively dependent.

    Both components are binary with mass exactly half on each productive
    level, and the instrument-taste conditionals fall as the productive type
    rises, with the high-low corner kept strictly above a quarter. Payoff
    tables are simple linear fillers: consumers of this generator build
    their own payoffs and only need the type geometry and the grids.
    """
    rng = instance_rng(seed, stream)

    theta_a = np.round(np.sort(rng.uniform(0.2, 2.0, 2)), 6)
    while theta_a[1] - theta_a[0] < 0.1:
        theta_a = np.round(np.sort(rng.uniform(0.2, 2.0, 2)), 6)
    b_lo, b_hi = np.round(np.sort(rng.uniform(-1.0, 1.0, 2)), 6)
    while b_hi - b_lo < 0.1:
        b_lo, b_hi = np.round(np.sort(rng.uniform(-1.0, 1.0, 2)), 6)
    theta_b = np.array([[b_lo], [b_hi]])

    n_x = int(rng.integers(2, 4))
    x_grid = np.round(np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.2, 0.8, n_x - 1))]), 6)
    y_set = np.array([0.0, 1.0])

    # both marginals exactly half-half (0.5 - p is exact for p in [1/4, 1/2],
    # so the medians land precisely); the high-low corner carries 1/4 + delta
    delta = 10.0 ** rng.uniform(-4.0, np.log10(0.2))
    p_hi_lo = 0.25 + delta
    p_lo_lo = 0.5 - p_hi_lo
    cells = {(0, 0): p_lo_lo, (0, 1): p_hi_lo,
             (1, 0): p_hi_lo, (1, 1): p_lo_lo}
    support = tuple(k for k in sorted(cells) if cells[k] > PROB_TOL)
    prob = tuple(cells[k] for k in support)

    u_a = np.outer(x_grid, theta_a)
    v_a = np.zeros_like(u_a)
    u_b = np.outer(y_set, theta_b[:, 0] - b_hi)  # nonpositive, zero baseline
    v_b = np.zeros_like(u_b)
    return ScreeningInstance(
        ProductiveSpec(theta_a, x_grid, u_a, v_a),
        CostlySpec(theta_b, y_set, 0, u_b, v_b),
        JointDistribution(support, prob),
    )
