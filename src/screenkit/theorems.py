"""Verification engine: no-screening optimality, shift surgery, and the converse.

The two shift operations rewrite a mechanism on a single monotone type line so
every costly instrument rests at its baseline, then check the rewrite did what
the theory promises (truthful payoffs fixed, downward IC intact, principal
weakly better off). The converse builds utilities under which a three-option
menu with costly screening strictly beats every productive-only mechanism, and
certifies that by evaluation rather than by the bounds alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (InputNotIC, OutOfRange, PreconditionFailed,
                     StructuralError)
from .model import (_ROUND_TOL, FEAS_TOL, PROB_TOL, VALUE_TOL, CostlySpec,
                    JointDistribution, Mechanism, Menu, ProductiveSpec,
                    ScreeningInstance, ValidationReport, _as_index, _as_real,
                    _grid, _table, _weights, deviation_mask, float_table,
                    ic_gains, ir_shortfalls, menu_best_response, support_leq,
                    truthful_value, validate_instance)
from .solver import (DEFAULT_GUARD, _solve_joint, productive_marginal,
                     solve_full_1d)
from .stochastics import TypePath, _row_cdfs, _unordered_rows
from .transfers import OneDimInstance

#: The converse's discount eps. Its menu value falls in eps, so the least
#: eps is best; 1e-8 sits well above float resolution of the 1 and 2 levels.
_CONVERSE_EPS = 1e-8


# ---------------------------------------------------------------------------
# no-screening optimality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of comparing the joint optimum with the productive-only one."""

    assumption_status: ValidationReport
    v_joint: float
    v_productive: float
    gap: float                      # v_joint - v_productive
    witness_mechanism: Mechanism
    some_optimum_baseline: bool
    y0_almost_surely: bool          # every joint optimum keeps y at baseline
    strictly_costly: bool
    applicable: bool                # all assumption checks passed

    @property
    def conclusion_holds(self) -> bool:
        if self.gap > VALUE_TOL:
            return False
        if self.strictly_costly and not self.y0_almost_surely:
            return False
        return self.some_optimum_baseline

    @property
    def passed(self) -> bool:
        """Assumptions verified and the no-screening conclusion observed."""
        return self.applicable and self.conclusion_holds


def verify_theorem1(inst: ScreeningInstance,
                    guard: int = DEFAULT_GUARD) -> TheoremReport:
    """Check that costly instruments add no value on a validated instance.

    Solves the joint problem exactly, solves the induced scalar problem under
    full IC, and reports the gap. When any assumption check fails the report
    is diagnostic: the gap is whatever it is and `passed` stays False without
    implying an error. The instance's one level pass serves the monotonicity
    check, the productive marginal and the joint bound, and the scalar
    optimum, solved once before any joint work, seeds the joint search: the
    joint size guard (`solve_joint`) is checked after the scalar solve.
    """
    status = validate_instance(inst)
    productive = solve_full_1d(productive_marginal(inst))
    joint = _solve_joint(inst, guard, productive)
    gap = joint.value - productive.value
    if gap < -FEAS_TOL:
        raise StructuralError(
            f"joint optimum {joint.value:.12g} fell below the productive-only "
            f"optimum {productive.value:.12g}; solver inconsistency")
    return TheoremReport(
        assumption_status=status,
        v_joint=joint.value,
        v_productive=productive.value,
        gap=float(gap),
        witness_mechanism=joint.mechanism,
        some_optimum_baseline=joint.some_optimum_baseline,
        y0_almost_surely=joint.all_optima_baseline,
        strictly_costly=inst.costly.strictly_costly,
        applicable=status.assumptions_hold)


# ---------------------------------------------------------------------------
# additive shift on a monotone path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftResult:
    """A baseline-rested rewrite of a path mechanism, with its audit trail."""

    mechanism: Mechanism
    original_value: float
    shifted_value: float
    improvement: float
    upward_violations: tuple       # upward IC can break; downward never does
    strictly_improved: bool


def _line_instance(inst: ScreeningInstance, path: TypePath) -> ScreeningInstance:
    """One-path restriction of the instance, carrying the scalar marginal."""
    levels, weight, _ = inst.levels
    if len(path.b_indices) != len(levels):
        raise PreconditionFailed("path length does not match the number of "
                                 "productive type levels")
    # built first: its bounds check names a pair off the costly types
    line = ScreeningInstance(inst.productive, inst.costly, JointDistribution(
        tuple(zip(levels.tolist(), path.b_indices)), weight))
    rows = inst.costly.theta_b[line.dist.pairs[:, 1]]
    if not all((rows[k + 1] >= rows[k] - FEAS_TOL).all() for k in range(len(rows) - 1)):
        raise PreconditionFailed("path is not monotone in the costly type")
    return line


def shift_mechanism(inst: ScreeningInstance, path: TypePath,
                    mech: Mechanism) -> ShiftResult:
    """Rest every instrument at baseline, folding its utility into transfers.

    On a monotone path the replacement t_k - u^B(y_k, theta^B_k) keeps each
    type's truthful payoff exactly and can only lower the appeal of deviating
    down (lower types' instrument utility is weakly smaller for the deviator
    than for its owner). Upward IC may break; violations are returned, not
    raised, because downward constraints suffice for the solvers here.
    """
    line = _line_instance(inst, path)
    n = line.n_support
    if len(mech.x) != n:
        raise PreconditionFailed("mechanism length does not match the path")
    leq = support_leq(line)
    agent, principal = line.payoffs(mech.x, mech.y, mech.t)
    bad = ic_gains(agent, deviation_mask(leq, "all"))
    bad += ir_shortfalls(np.diagonal(agent))
    if bad:
        raise InputNotIC(f"input mechanism violates IC/IR on the path line: {bad[0]}")
    u_b, y0 = inst.costly.u_b, inst.costly.y0_index
    t_new = [t - u_b[y, b] for t, y, (_, b) in zip(mech.t, mech.y, line.dist.support)]
    shifted = Mechanism(mech.x, (y0,) * n, t_new)
    agent_new, principal_new = line.payoffs(shifted.x, shifted.y, shifted.t)

    # a truthful payoff moved by rounding alone has not moved
    own = np.diagonal(agent_new)
    moved = np.flatnonzero(np.abs(np.diagonal(agent) - own) > _ROUND_TOL)
    if moved.size:
        raise StructuralError(f"shift changed a truthful payoff at point {moved[0]}")
    down = ic_gains(agent_new, deviation_mask(leq, "downward"))
    if down:
        raise StructuralError(f"shift broke a downward constraint: {down[0]}")
    ir_after = ir_shortfalls(own)
    if ir_after:
        raise StructuralError(f"shift broke participation: {ir_after[0]}")

    before_val, after_val = (truthful_value(line.dist.prob, table)
                             for table in (principal, principal_new))
    improvement = after_val - before_val
    if improvement < -FEAS_TOL:
        raise StructuralError("shift decreased the principal's payoff")
    uses_instrument = any(mech.y[k] != y0 and line.dist.prob[k] > 0
                          for k in range(n))
    strict = inst.costly.strictly_costly and uses_instrument
    if strict and improvement <= 0:
        raise StructuralError("strictly costly instrument in use but the "
                              "shift gained nothing")
    upward = ic_gains(agent_new, deviation_mask(leq, "upward"))
    return ShiftResult(shifted, float(before_val), float(after_val),
                       float(improvement), tuple(upward), strict)


# ---------------------------------------------------------------------------
# multiplicative shift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicativeInstance:
    """One-path environment with payoff theta^A u(x) + theta^B . c(y) - t.

    The productive allocation lives on the continuum [0, 1] with u strictly
    increasing and u(0) = 0; instruments form a finite set with nonnegative
    weight vectors c and c[y0] = 0. The seller pays a nondecreasing
    production cost and nothing for instruments.
    """

    theta_a: np.ndarray          # positive, strictly increasing
    theta_b: np.ndarray          # (n, N) nonpositive rows along the path
    mu: np.ndarray
    u: Callable[[float], float]
    c: np.ndarray                # (n_y, N) nonnegative, row y0 all zero
    y0_index: int
    cost: Callable[[float], float] = staticmethod(lambda x: 0.0)

    def __post_init__(self):
        ta = _grid(self.theta_a, "theta_a")
        tb = np.atleast_2d(float_table(self.theta_b, "theta_b"))
        tb = _table(tb, (ta.size, tb.shape[1]), "theta_b")  # a row per type
        c = np.atleast_2d(float_table(self.c, "c"))
        c = _table(c, (c.shape[0], tb.shape[1]), "c")  # a row per instrument
        y0 = _as_index(self.y0_index, "y0_index")
        if ta[0] <= 0:
            raise StructuralError("multiplicative types must be positive")
        if (tb > FEAS_TOL).any():
            raise StructuralError("theta_b must be nonpositive")
        mu = _weights(self.mu, ta.size, "mu")
        if (c < -FEAS_TOL).any():
            raise StructuralError("instrument weights must be nonnegative")
        if not 0 <= y0 < c.shape[0]:
            raise StructuralError("y0_index out of range")
        if np.abs(c[y0]).max() > 0:
            raise StructuralError("baseline instrument must have zero weight")
        for name, value in (("theta_a", ta), ("theta_b", tb), ("mu", mu), ("c", c),
                            ("y0_index", y0)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return int(self.theta_a.size)

    @property
    def ratios(self) -> np.ndarray:
        """Marginal rates of substitution theta^B / theta^A per type."""
        return self.theta_b / self.theta_a[:, None]

    def invert_u(self, target: float, hi: float) -> float:
        lo = 0.0
        if target <= 0.0:
            return 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.u(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MultiplicativeMechanism:
    x: tuple                     # real allocations in [0, 1]
    y: tuple                     # instrument indices
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(_as_real(v, "x") for v in self.x))
        object.__setattr__(self, "y", tuple(_as_index(i, "y") for i in self.y))
        object.__setattr__(self, "t", tuple(_as_real(v, "t") for v in self.t))


def _mult_payoffs(minst: MultiplicativeInstance,
                  mech: MultiplicativeMechanism) -> np.ndarray:
    """Agent table (type, bundle): theta^A_k u(x_j) + theta^B_k . c(y_j) - t_j."""
    out = [y for y in mech.y if not 0 <= y < minst.c.shape[0]]
    if out:
        raise StructuralError(f"instrument index {out[0]} out of range for "
                              f"{minst.c.shape[0]} instruments")
    u = np.array([minst.u(x) for x in mech.x], dtype=float)
    return (np.outer(minst.theta_a, u) + minst.theta_b @ minst.c[list(mech.y)].T
            - np.asarray(mech.t, dtype=float))


def _mult_principal_value(minst: MultiplicativeInstance,
                          mech: MultiplicativeMechanism) -> float:
    return float(sum(minst.mu[k] * (mech.t[k] - minst.cost(mech.x[k]))
                     for k in range(minst.n)))


def shift_multiplicative(minst: MultiplicativeInstance,
                         mech: MultiplicativeMechanism) -> ShiftResult:
    """Substitute instrument disutility with a smaller productive allocation.

    Transfers stay fixed; each type's allocation drops to the point where its
    truthful payoff matches the original. Works when the substitution rates
    theta^B / theta^A are nondecreasing along the path: the deviation value of
    a lower bundle falls by at least as much for higher types, so downward IC
    survives. Requires nonnegative transfers; with them, IR keeps the inverted
    argument inside u's range, and anything below that signals a precondition
    violation (OutOfRange).
    """
    n = minst.n
    if len(mech.x) != n:
        raise PreconditionFailed("mechanism length does not match the instance")
    r = minst.ratios
    if not all((r[k + 1] >= r[k] - FEAS_TOL).all() for k in range(n - 1)):
        raise PreconditionFailed("substitution rates are not nondecreasing")
    if min(mech.t) < -FEAS_TOL:
        raise PreconditionFailed("transfers must be nonnegative; replace "
                                 "loss-making options with the null option first")
    table = _mult_payoffs(minst, mech)
    ir = ir_shortfalls(np.diagonal(table))
    ic = ic_gains(table, np.ones((n, n), dtype=bool))
    if ir and (not ic or ir[0].point <= ic[0].deviator):
        raise InputNotIC(f"participation violated at type {ir[0].point}")
    if ic:
        raise InputNotIC(f"IC violated: type {ic[0].deviator} prefers "
                         f"bundle {ic[0].target}")

    x_new = []
    for k in range(n):
        arg = (minst.u(mech.x[k])
               + float(minst.theta_b[k] @ minst.c[mech.y[k]]) / minst.theta_a[k])
        if arg < -FEAS_TOL:
            raise OutOfRange(f"shifted utility argument {arg:.3g} below zero "
                             f"at type {k}; IR or t >= 0 must have failed")
        x_new.append(minst.invert_u(max(arg, 0.0), hi=float(mech.x[k])))
    shifted = MultiplicativeMechanism(x_new, (minst.y0_index,) * n, mech.t)

    x_old, x_new = np.asarray(mech.x, dtype=float), np.asarray(x_new)
    left = np.flatnonzero((x_new < -FEAS_TOL) | (x_new > x_old + FEAS_TOL))
    if left.size:
        raise StructuralError(f"shifted allocation left [0, x] at type {left[0]}")
    after = _mult_payoffs(minst, shifted)
    moved = np.flatnonzero(np.abs(np.diagonal(table) - np.diagonal(after)) > FEAS_TOL)
    if moved.size:
        raise StructuralError(f"shift changed a truthful payoff at type {moved[0]}")
    broke = ir_shortfalls(np.diagonal(after))
    if broke:
        raise StructuralError(f"shift broke participation at type {broke[0].point}")
    down = ic_gains(after, np.tri(n, k=-1, dtype=bool))
    if down:
        raise StructuralError(f"shift broke downward IC: type {down[0].deviator} "
                              f"prefers bundle {down[0].target}")

    before_val = _mult_principal_value(minst, mech)
    after_val = _mult_principal_value(minst, shifted)
    improvement = after_val - before_val
    if improvement < -FEAS_TOL:
        raise StructuralError("multiplicative shift decreased the principal's "
                              "payoff despite a nondecreasing cost")
    upward = tuple(ic_gains(after, ~np.tri(n, dtype=bool)))
    return ShiftResult(shifted, before_val, after_val, float(improvement),
                       upward, improvement > FEAS_TOL)


# ---------------------------------------------------------------------------
# converse: negatively dependent types make costly screening pay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConverseArtifacts:
    """Constructed utilities and menu that beat productive-only screening."""

    instance: ScreeningInstance   # carries the constructed utility tables
    menu: Menu
    coordinate: int
    m0: float                     # productive median split point
    m1: float                     # costly-coordinate median split point
    f_values: tuple               # per productive level
    g_values: tuple               # per costly level: -1 or -eps_star
    eps_star: float
    r_val: float                  # guaranteed menu payoff (lower bound)
    q_val: float                  # productive-only payoff bound (upper bound)
    menu_value: float
    productive_value: float

    @property
    def margin(self) -> float:
        return self.menu_value - self.productive_value


def _median_split(values: Sequence[float], masses: Sequence[float],
                  label: str) -> float:
    """Split point with exactly half the mass on each side, sitting strictly
    between support values. Rejects distributions without a clean split."""
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(masses, dtype=float)[order]
    cum = np.cumsum(w)
    for k in range(v.size - 1):
        if abs(cum[k] - 0.5) <= PROB_TOL and v[k + 1] > v[k]:
            return float(0.5 * (v[k] + v[k + 1]))
    raise PreconditionFailed(f"no exact half-half split exists for {label}")


def _coordinate_marginals(inst: ScreeningInstance, coord: int):
    """Per-support-point productive values, coordinate values, and weights."""
    ia, ib = inst.dist.pairs.T
    return (inst.productive.theta_a[ia], inst.costly.theta_b[ib, coord],
            np.asarray(inst.dist.prob))


def _check_nonincreasing_coordinate(inst: ScreeningInstance, coord: int) -> None:
    levels, _, cond = inst.levels
    cdf = _row_cdfs(cond, inst.costly.theta_b[:, coord])
    # rising in reversed level order; its last failure is the lowest pair
    bad = _unordered_rows(cdf[::-1])
    if bad.size:
        k = levels.size - 2 - int(bad[-1])
        raise PreconditionFailed(
            f"coordinate {coord} is not stochastically nonincreasing in "
            f"the productive type (levels {levels[k]} vs {levels[k + 1]})")


def converse_construct(inst: ScreeningInstance, coord: int = 0,
                       dominance_margin: float = VALUE_TOL) -> ConverseArtifacts:
    """Build utilities making costly screening strictly profitable.

    Keeps the input's type geometry (values, joint distribution, allocation
    sets) and replaces the utilities with two levels around the median
    splits: f = 1 or 2 for productive types at or below m0 or above it, and,
    off the baseline instrument, g = -1 or -eps for costly types at or below
    m1 or above it. The menu is A = (top x, baseline, 2 - eps), B = (top x,
    instrument, 1 - eps) and C = (bottom x, baseline, 0). For every eps in
    (0, 1), ties broken toward the principal:

        type               chooses            principal gets
        f = 1, g = -1      C                  0
        f = 1, g = -eps    B (tied with C)    1 - eps
        f = 2, g = -1      A (tied with B)    2 - eps
        f = 2, g = -eps    B                  1 - eps

    So the menu value (1 - eps) P(t1 > m1) + (2 - eps) P(t0 > m0, t1 <= m1)
    is affine and falling in eps, the guaranteed payoff r(eps) does not rise
    and the productive-only bound q(eps) does not fall: of all eps passing
    the checks the least is best, and the one small `_CONVERSE_EPS` is
    priced. Dominance is certified by solving the productive-only problem,
    never by the r/q bounds alone.

    `coord` must be an integer index and `dominance_margin` finite and
    nonnegative (StructuralError).
    StructuralError also reports the construction inconsistent when r <= q
    or the menu prices below r; PreconditionFailed names the margin and the
    gap at `_CONVERSE_EPS` when the menu does not beat productive-only
    screening by the margin.
    """
    if not (np.isfinite(dominance_margin) and dominance_margin >= 0):
        raise StructuralError(f"dominance_margin must be finite and "
                              f"nonnegative, got {dominance_margin}")
    coord = _as_index(coord, "coord")
    prod, cost = inst.productive, inst.costly
    if prod.n_alloc < 2:
        raise PreconditionFailed("need at least two productive allocations")
    if cost.n_alloc < 2:
        raise PreconditionFailed("need at least two instrument values")
    if not 0 <= coord < cost.dim:
        raise PreconditionFailed("coordinate out of range")
    t0, t1, w = _coordinate_marginals(inst, coord)
    m0 = _median_split(t0, w, "the productive type")
    m1 = _median_split(t1, w, f"costly coordinate {coord}")
    _check_nonincreasing_coordinate(inst, coord)
    window = float(w[(t0 > m0) & (t1 <= m1)].sum())
    if window <= 0.25 + PROB_TOL:
        raise PreconditionFailed(
            f"binarized types look independent: the discount window has mass "
            f"{window:.6g}, needs more than 1/4")

    eps = _CONVERSE_EPS
    # r: the menu's guaranteed payoff; q: the productive-only bound
    r_val = ((1.0 - eps) * float(w[t1 > m1].sum())
             + (2.0 - eps) * float(w[(t0 >= m0 + eps) & (t1 <= m1)].sum()))
    q_val = 2.0 * float(w[(t0 >= m0 - eps) & (t0 <= m0 + eps)].sum()) + 1.0

    x = prod.x_grid
    f = np.where(prod.theta_a <= m0, 1.0, 2.0)
    u_a = np.outer((x - x[0]) / (x[-1] - x[0]), f)
    v_a = np.zeros_like(u_a)
    top, y0 = prod.n_alloc - 1, cost.y0_index
    g = np.where(cost.theta_b[:, coord] <= m1, -1.0, -eps)
    u_b = np.outer(np.arange(cost.n_alloc) != y0, g)
    v_b = np.zeros_like(u_b)
    built = ScreeningInstance(
        ProductiveSpec(prod.theta_a, x, u_a, v_a),
        CostlySpec(cost.theta_b, cost.y_set, y0, u_b, v_b),
        inst.dist)
    menu = Menu(((top, y0, 2.0 - eps), (top, 1 if y0 == 0 else 0, 1.0 - eps),
                 (0, y0, 0.0)))
    menu_value = menu_best_response(built, menu)[1]

    # the productive-only optimum reads only f, on the productive marginal
    a_indices, a_probs, _ = inst.levels
    productive_value = solve_full_1d(OneDimInstance(
        prod.theta_a[a_indices], a_probs, x, u_a[:, a_indices],
        v_a[:, a_indices])).value

    if not (r_val > q_val and menu_value >= r_val - FEAS_TOL):
        raise StructuralError(
            "preconditions held but no epsilon certified strict dominance; "
            "construction or solver is inconsistent")
    if not menu_value > productive_value + dominance_margin:
        raise PreconditionFailed(
            f"no epsilon clears the dominance margin {dominance_margin:.6g}: "
            f"the best gap over productive-only screening is "
            f"{menu_value - productive_value:.6g}, at eps {eps:.6g}")
    return ConverseArtifacts(
        instance=built, menu=menu, coordinate=coord, m0=m0, m1=m1,
        f_values=tuple(f.tolist()), g_values=tuple(g.tolist()),
        eps_star=eps, r_val=r_val, q_val=q_val,
        menu_value=menu_value, productive_value=float(productive_value))
