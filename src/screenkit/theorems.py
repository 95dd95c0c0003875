"""Verification engine: no-screening optimality, shift surgery, and the converse.

The two shift operations rewrite a mechanism on a single monotone type line so
every costly instrument rests at its baseline, then check the rewrite did what
the theory promises (truthful payoffs fixed, downward IC intact, principal
weakly better off). The converse builds utilities under which a three-option
menu with costly screening strictly beats every productive-only mechanism, and
certifies that by evaluation rather than by the bounds alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (InputNotIC, OutOfRange, PreconditionFailed,
                     StructuralError)
from .model import (FEAS_TOL, VALUE_TOL, CostlySpec, JointDistribution,
                    Mechanism, Menu, ProductiveSpec, ScreeningInstance,
                    ValidationReport, best_response, check_ic, check_ir,
                    ic_gains, ir_shortfalls, mechanism_value, payoff_tables,
                    validate_instance)
from .solver import (DEFAULT_GUARD, productive_marginal, solve_full_1d,
                     solve_joint)
from .stochastics import TypePath, _row_cdfs, _unordered_rows, scalar_levels


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
    implying an error.
    """
    status = validate_instance(inst)
    joint = solve_joint(inst, guard=guard)
    productive = solve_full_1d(productive_marginal(inst))
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
    levels, weight, _ = scalar_levels(inst)
    if len(path.b_indices) != len(levels):
        raise PreconditionFailed("path length does not match the number of "
                                 "productive type levels")
    rows = inst.costly.theta_b[list(path.b_indices)]
    if not all((rows[k + 1] >= rows[k] - FEAS_TOL).all() for k in range(len(rows) - 1)):
        raise PreconditionFailed("path is not monotone in the costly type")
    support = tuple(zip(levels.tolist(), path.b_indices))
    return ScreeningInstance(inst.productive, inst.costly,
                             JointDistribution(support, weight))


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
    ic = check_ic(line, mech, "all")
    ir = check_ir(line, mech)
    if ic or ir:
        raise InputNotIC(f"input mechanism violates IC/IR on the path line: "
                         f"{(ic + ir)[0]}")
    u_b = inst.costly.u_b
    y0 = inst.costly.y0_index
    t_new = tuple(float(mech.t[k]) - float(u_b[mech.y[k], line.dist.support[k][1]])
                  for k in range(n))
    shifted = Mechanism(mech.x, (y0,) * n, t_new)

    before, after = (np.diagonal(line.payoffs(m.x, m.y, m.t)[0])
                     for m in (mech, shifted))
    moved = np.flatnonzero(np.abs(before - after) > 1e-12)
    if moved.size:
        raise StructuralError(f"shift changed a truthful payoff at point {moved[0]}")
    down = check_ic(line, shifted, "downward")
    if down:
        raise StructuralError(f"shift broke a downward constraint: {down[0]}")
    ir_after = check_ir(line, shifted)
    if ir_after:
        raise StructuralError(f"shift broke participation: {ir_after[0]}")

    before_val = mechanism_value(line, mech)
    after_val = mechanism_value(line, shifted)
    improvement = after_val - before_val
    if improvement < -FEAS_TOL:
        raise StructuralError("shift decreased the principal's payoff")
    uses_instrument = any(mech.y[k] != y0 and line.dist.prob[k] > 0
                          for k in range(n))
    strict = inst.costly.strictly_costly and uses_instrument
    if strict and improvement <= 0:
        raise StructuralError("strictly costly instrument in use but the "
                              "shift gained nothing")
    upward = check_ic(line, shifted, "upward")
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
    u_inverse: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        ta = np.asarray(self.theta_a, dtype=float)
        tb = np.atleast_2d(np.asarray(self.theta_b, dtype=float))
        mu = np.asarray(self.mu, dtype=float)
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if ta.ndim != 1 or ta.size == 0:
            raise StructuralError("theta_a must be a nonempty vector")
        if (ta <= 0).any():
            raise StructuralError("multiplicative types must be positive")
        if (np.diff(ta) <= 0).any():
            raise StructuralError("theta_a must be strictly increasing")
        if tb.shape[0] != ta.size:
            raise StructuralError("theta_b must give one row per type")
        if (tb > FEAS_TOL).any():
            raise StructuralError("theta_b must be nonpositive")
        if mu.shape != ta.shape or (mu <= 0).any():
            raise StructuralError("mu must be positive per type")
        if abs(mu.sum() - 1.0) > FEAS_TOL:
            raise StructuralError("mu must sum to one")
        if (c < -FEAS_TOL).any():
            raise StructuralError("instrument weights must be nonnegative")
        if np.abs(c[self.y0_index]).max() > 0:
            raise StructuralError("baseline instrument must have zero weight")
        if c.shape[1] != tb.shape[1]:
            raise StructuralError("c and theta_b dimensions disagree")
        for name, arr in (("theta_a", ta), ("theta_b", tb), ("mu", mu), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.theta_a.size)

    @property
    def ratios(self) -> np.ndarray:
        """Marginal rates of substitution theta^B / theta^A per type."""
        return self.theta_b / self.theta_a[:, None]

    def invert_u(self, target: float, hi: float) -> float:
        if self.u_inverse is not None:
            return float(self.u_inverse(target))
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


def _mult_payoffs(minst: MultiplicativeInstance,
                  mech: MultiplicativeMechanism) -> np.ndarray:
    """Agent table (type, bundle): theta^A_k u(x_j) + theta^B_k . c(y_j) - t_j."""
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
    shifted = MultiplicativeMechanism(tuple(x_new), (minst.y0_index,) * n,
                                      tuple(float(v) for v in mech.t))

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
    g_values: tuple               # per costly level (depends on eps_star)
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
        if abs(cum[k] - 0.5) <= 1e-12 and v[k + 1] > v[k]:
            return float(0.5 * (v[k] + v[k + 1]))
    raise PreconditionFailed(f"no exact half-half split exists for {label}")


def _coordinate_marginals(inst: ScreeningInstance, coord: int):
    """Per-support-point productive values, coordinate values, and weights."""
    ia, ib = np.array(inst.dist.support).T
    return (inst.productive.theta_a[ia], inst.costly.theta_b[ib, coord],
            np.asarray(inst.dist.prob))


def _check_nonincreasing_coordinate(inst: ScreeningInstance, coord: int) -> None:
    levels, _, cond = scalar_levels(inst)
    cdf = _row_cdfs(cond, inst.costly.theta_b[:, coord])
    # rising in reversed level order; its last failure is the lowest pair
    bad = _unordered_rows(cdf[::-1])
    if bad.size:
        k = levels.size - 2 - int(bad[-1])
        raise PreconditionFailed(
            f"coordinate {coord} is not stochastically nonincreasing in "
            f"the productive type (levels {levels[k]} vs {levels[k + 1]})")


def converse_construct(inst: ScreeningInstance, coord: int = 0,
                       dominance_margin: float = 1e-6) -> ConverseArtifacts:
    """Build utilities making costly screening strictly profitable.

    Takes only the type geometry of the input (values, joint distribution,
    allocation sets) and replaces the utilities with two-level tables around
    the median splits. The returned menu prices the top allocation high for
    those unwilling to use the instrument and discounts it behind the
    instrument for the rest. Dominance over every productive-only mechanism
    is certified by solving that problem, never by the r/q bounds alone.
    """
    prod, cost = inst.productive, inst.costly
    if prod.n_alloc < 2:
        raise PreconditionFailed("need at least two productive allocations")
    if cost.n_alloc < 2:
        raise PreconditionFailed("need at least two instrument values")
    if prod.x_grid[-1] <= prod.x_grid[0]:
        raise PreconditionFailed("productive allocations must span a range")
    if not 0 <= coord < cost.dim:
        raise PreconditionFailed("coordinate out of range")
    t0, t1, w = _coordinate_marginals(inst, coord)
    m0 = _median_split(t0, w, "the productive type")
    m1 = _median_split(t1, w, f"costly coordinate {coord}")
    _check_nonincreasing_coordinate(inst, coord)
    window = float(w[(t0 > m0) & (t1 <= m1)].sum())
    if window <= 0.25 + 1e-12:
        raise PreconditionFailed(
            f"binarized types look independent: the discount window has mass "
            f"{window:.6g}, needs more than 1/4")

    x0_idx, xhat_idx = 0, prod.n_alloc - 1
    yhat_idx = 1 if cost.y0_index == 0 else 0
    p_high_instrument = float(w[t1 > m1].sum())

    def bounds(eps: float):
        r = ((1.0 - eps) * p_high_instrument
             + (2.0 - eps) * float(w[(t0 >= m0 + eps) & (t1 <= m1)].sum()))
        q = 2.0 * float(w[(t0 >= m0 - eps) & (t0 <= m0 + eps)].sum()) + 1.0
        return r, q

    # built tables: two levels f per productive type, g per costly type;
    # eps enters only g of the types above the costly median
    x = prod.x_grid
    rise = (x - x[0]) / (x[-1] - x[0])
    f = np.where(prod.theta_a <= m0, 1.0, 2.0)
    u_a = np.outer(rise, f)
    v_a = np.zeros_like(u_a)
    low = cost.theta_b[:, coord] <= m1
    indicator = np.ones(cost.n_alloc)
    indicator[cost.y0_index] = 0.0
    v_b = np.zeros((cost.n_alloc, cost.n_types))
    menu_x = (xhat_idx, xhat_idx, x0_idx)
    menu_y = (cost.y0_index, yhat_idx, cost.y0_index)

    def built_tables(eps: np.ndarray):
        """Instrument utilities (eps, y, b) and menu transfers (eps, option)."""
        g = np.where(low, -1.0, -eps[:, None])
        t = np.stack((2.0 - eps, 1.0 - eps, np.zeros_like(eps)), axis=-1)
        return indicator[:, None] * g[:, None, :], t

    # productive-only optimum does not depend on eps (only g does)
    line = productive_marginal(inst)
    u_line = np.outer(rise, np.where(line.theta <= m0, 1.0, 2.0))
    productive_value = solve_full_1d(
        replace(line, u=u_line, v=np.zeros_like(u_line))).value

    def search(candidates, best, slack: float):
        """Best certified (eps, menu value, r, q): every candidate priced at once."""
        eps = np.asarray(candidates, dtype=float)
        u_b, t = built_tables(eps)
        agent, principal = payoff_tables((u_a, v_a, u_b, v_b), inst.dist.support,
                                         menu_x, menu_y, t)
        _, values = best_response(agent, principal, inst.dist.prob)
        for e, value in zip(candidates, values.tolist()):
            r, q = bounds(e)
            if (r > q and value >= r - FEAS_TOL
                    and value > productive_value + dominance_margin
                    and (best is None or value > best[1] + slack)):
                best = (e, value, r, q)
        return best

    # coarse grid plus a geometric tail: when the discount window barely
    # clears 1/4 only a very small eps certifies
    coarse = [0.01 * k for k in range(1, 50)]
    tail = [1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6, 1e-7, 1e-8]
    best = search(coarse + tail, None, 0.0)
    if best is not None:
        refine = [best[0] + 0.001 * k for k in range(-9, 10)]
        best = search([e for e in refine if 0 < e < 0.5], best, 1e-15)
    if best is None:
        raise StructuralError(
            "preconditions held but no epsilon certified strict dominance; "
            "construction or solver is inconsistent")
    eps_star, menu_value, r_val, q_val = best
    u_b, t = built_tables(np.array([eps_star]))
    built = ScreeningInstance(
        ProductiveSpec(prod.theta_a, x, u_a, v_a),
        CostlySpec(cost.theta_b, cost.y_set, cost.y0_index, u_b[0], v_b),
        inst.dist)
    menu = Menu(tuple(zip(menu_x, menu_y, t[0])))
    g = np.where(low, -1.0, -eps_star)
    return ConverseArtifacts(
        instance=built, menu=menu, coordinate=coord, m0=m0, m1=m1,
        f_values=tuple(f.tolist()), g_values=tuple(g.tolist()),
        eps_star=float(eps_star),
        r_val=float(r_val), q_val=float(q_val),
        menu_value=float(menu_value), productive_value=float(productive_value))
