"""Finite screening model: type spaces, utilities, mechanisms, menus.

An agent has a two-part type (theta_a, theta_b). The productive component
theta_a is a scalar ordering over a finite grid of allocations x. The costly
component theta_b is a point in R^N ordered componentwise; its allocations y
come from a finite set with a distinguished baseline y0 that is normalized to
zero utility on both sides.

Table conventions (row-major, allocation rows):

- ``u_a``, ``v_a`` have shape (len(x_grid), len(theta_a))
- ``u_b``, ``v_b`` have shape (len(y_set), len(theta_b))

A mechanism assigns one (x index, y index, transfer) triple to each support
point of the joint type distribution. The agent's outside option pays both
sides exactly zero; evaluators append it implicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StructuralError

# Equality / feasibility comparisons.
FEAS_TOL = 1e-9
# Comparisons between solver values.
VALUE_TOL = 1e-6
# Probability bookkeeping.
PROB_TOL = 1e-12

#: Sentinel used in menu assignments for the outside option.
OUTSIDE = -1


def frozen_array(values, dtype=float) -> np.ndarray:
    """Read-only array of `values` that no caller can write through.

    A fresh conversion is frozen in place and a read-only array is shared;
    only an array that would alias a writable caller array is copied.
    """
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable and (arr is values or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _strictly_increasing(a: np.ndarray) -> bool:
    return bool(np.all(np.diff(a) > 0))


# ---------------------------------------------------------------------------
# core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductiveSpec:
    """Scalar-type component: allocation grid and utility tables."""

    theta_a: np.ndarray  # (n_a,) strictly increasing
    x_grid: np.ndarray   # (n_x,) strictly increasing
    u_a: np.ndarray      # (n_x, n_a) agent utility
    v_a: np.ndarray      # (n_x, n_a) principal utility

    def __post_init__(self):
        object.__setattr__(self, "theta_a", frozen_array(self.theta_a))
        object.__setattr__(self, "x_grid", frozen_array(self.x_grid))
        object.__setattr__(self, "u_a", frozen_array(self.u_a))
        object.__setattr__(self, "v_a", frozen_array(self.v_a))
        if self.theta_a.ndim != 1 or self.theta_a.size == 0:
            raise StructuralError("theta_a must be a nonempty 1-D array")
        if self.x_grid.ndim != 1 or self.x_grid.size == 0:
            raise StructuralError("x_grid must be a nonempty 1-D array")
        if not _strictly_increasing(self.theta_a):
            raise StructuralError("theta_a must be strictly increasing")
        if not _strictly_increasing(self.x_grid):
            raise StructuralError("x_grid must be strictly increasing")
        shape = (self.x_grid.size, self.theta_a.size)
        for name, tab in (("u_a", self.u_a), ("v_a", self.v_a)):
            if tab.shape != shape:
                raise StructuralError(f"{name} must have shape {shape}, got {tab.shape}")
            if not np.all(np.isfinite(tab)):
                raise StructuralError(f"{name} contains non-finite entries")

    @property
    def n_types(self) -> int:
        return self.theta_a.size

    @property
    def n_alloc(self) -> int:
        return self.x_grid.size


@dataclass(frozen=True, eq=False)
class CostlySpec:
    """Multidimensional-type component: finite instrument set with a baseline."""

    theta_b: np.ndarray   # (n_b, N) points in R^N, distinct
    y_set: np.ndarray     # (n_y,) instrument labels
    y0_index: int         # baseline instrument
    u_b: np.ndarray       # (n_y, n_b) agent utility
    v_b: np.ndarray       # (n_y, n_b) principal utility

    def __post_init__(self):
        theta_b = frozen_array(self.theta_b)
        if theta_b.ndim == 1:
            theta_b = theta_b.reshape(-1, 1)
        object.__setattr__(self, "theta_b", theta_b)
        object.__setattr__(self, "y_set", frozen_array(self.y_set))
        object.__setattr__(self, "u_b", frozen_array(self.u_b))
        object.__setattr__(self, "v_b", frozen_array(self.v_b))
        object.__setattr__(self, "y0_index", int(self.y0_index))
        if self.theta_b.ndim != 2 or self.theta_b.size == 0:
            raise StructuralError("theta_b must be a nonempty (n_b, N) array")
        if self.y_set.ndim != 1 or self.y_set.size == 0:
            raise StructuralError("y_set must be a nonempty 1-D array")
        if not 0 <= self.y0_index < self.y_set.size:
            raise StructuralError("y0_index out of range")
        pts = {tuple(row) for row in self.theta_b}
        if len(pts) != self.theta_b.shape[0]:
            raise StructuralError("theta_b points must be distinct")
        shape = (self.y_set.size, self.theta_b.shape[0])
        for name, tab in (("u_b", self.u_b), ("v_b", self.v_b)):
            if tab.shape != shape:
                raise StructuralError(f"{name} must have shape {shape}, got {tab.shape}")
            if not np.all(np.isfinite(tab)):
                raise StructuralError(f"{name} contains non-finite entries")

    @property
    def n_types(self) -> int:
        return self.theta_b.shape[0]

    @property
    def dim(self) -> int:
        return self.theta_b.shape[1]

    @property
    def n_alloc(self) -> int:
        return self.y_set.size

    @property
    def surplus(self) -> np.ndarray:
        """Instrument surplus u_b + v_b; nonpositive in a valid instance."""
        return self.u_b + self.v_b

    @property
    def strictly_costly(self) -> bool:
        """True when every non-baseline instrument burns surplus for every type."""
        s = self.surplus
        mask = np.ones(self.n_alloc, dtype=bool)
        mask[self.y0_index] = False
        if not mask.any():
            return False
        return bool(np.all(s[mask] < -FEAS_TOL))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Finitely supported joint law over (theta_a index, theta_b index) pairs."""

    support: tuple  # ((ia, ib), ...)
    prob: np.ndarray

    def __post_init__(self):
        support = tuple((int(a), int(b)) for a, b in self.support)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "prob", frozen_array(self.prob))
        if len(support) == 0:
            raise StructuralError("support must be nonempty")
        if len(set(support)) != len(support):
            raise StructuralError("support pairs must be distinct")
        if self.prob.shape != (len(support),):
            raise StructuralError("prob must align with support")
        if not np.all(self.prob > 0):
            raise StructuralError("support weights must be strictly positive")
        if abs(float(self.prob.sum()) - 1.0) > PROB_TOL:
            raise StructuralError("support weights must sum to 1")

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True, eq=False)
class ScreeningInstance:
    """A complete finite screening problem."""

    productive: ProductiveSpec
    costly: CostlySpec
    dist: JointDistribution

    def __post_init__(self):
        n_a, n_b = self.productive.n_types, self.costly.n_types
        for ia, ib in self.dist.support:
            if not (0 <= ia < n_a and 0 <= ib < n_b):
                raise StructuralError(f"support pair ({ia}, {ib}) out of range")

    @property
    def n_support(self) -> int:
        return len(self.dist)

    def payoffs(self, x, y, t):
        """`payoff_tables` of the support for options (x[k], y[k], t[k])."""
        p, c = self.productive, self.costly
        return payoff_tables((p.u_a, p.v_a, c.u_b, c.v_b), self.dist.support, x, y, t)


@dataclass(frozen=True, eq=False)
class Mechanism:
    """Direct mechanism: one (x index, y index, transfer) per support point."""

    x: tuple  # allocation indices into x_grid
    y: tuple  # instrument indices into y_set
    t: tuple  # transfers paid by the agent

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(i) for i in self.x))
        object.__setattr__(self, "y", tuple(int(i) for i in self.y))
        object.__setattr__(self, "t", tuple(float(v) for v in self.t))
        if not (len(self.x) == len(self.y) == len(self.t)):
            raise StructuralError("mechanism columns must have equal length")

    def __len__(self) -> int:
        return len(self.x)

    def option(self, p: int) -> tuple:
        return (self.x[p], self.y[p], self.t[p])


@dataclass(frozen=True, eq=False)
class Menu:
    """Indirect mechanism: options any type may pick; outside option implicit."""

    options: tuple  # ((ix, iy, t), ...)

    def __post_init__(self):
        opts = tuple((int(ix), int(iy), float(t)) for ix, iy, t in self.options)
        object.__setattr__(self, "options", opts)
        if len(set(opts)) != len(opts):
            raise StructuralError("menu options must be distinct")

    def __len__(self) -> int:
        return len(self.options)


class ICViolation(NamedTuple):
    deviator: int  # support index of the true type
    target: int    # support index whose bundle it grabs
    gain: float


class IRViolation(NamedTuple):
    point: int
    payoff: float


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------


def agent_payoff(inst: ScreeningInstance, p: int, option) -> float:
    """Agent payoff of support point p taking `option` = (ix, iy, t) or OUTSIDE."""
    if option is None or option == OUTSIDE:
        return 0.0
    ia, ib = inst.dist.support[p]
    ix, iy, t = option
    return float(inst.productive.u_a[ix, ia] + inst.costly.u_b[iy, ib] - t)


def principal_payoff(inst: ScreeningInstance, p: int, option) -> float:
    """Principal payoff from support point p taking `option`."""
    if option is None or option == OUTSIDE:
        return 0.0
    ia, ib = inst.dist.support[p]
    ix, iy, t = option
    return float(inst.productive.v_a[ix, ia] + inst.costly.v_b[iy, ib] + t)


def mechanism_value(inst: ScreeningInstance, mech: Mechanism) -> float:
    """Expected principal payoff under truthful play."""
    if len(mech) != inst.n_support:
        raise StructuralError("mechanism length must match support size")
    return float(sum(
        inst.dist.prob[p] * principal_payoff(inst, p, mech.option(p))
        for p in range(inst.n_support)
    ))


# ---------------------------------------------------------------------------
# payoff tables: every IC, IR and best-response check reads these
# ---------------------------------------------------------------------------


def payoff_tables(tables, support, x, y, t):
    """Agent and principal payoffs, each (..., point, option).

    `tables` is (u_a, v_a, u_b, v_b). Support point (ia, ib) taking option
    k = (x[k], y[k], t[k]) gets u_a[x, ia] + u_b[y, ib] - t, and the
    principal gets v_a[x, ia] + v_b[y, ib] + t. Leading axes of u_b, v_b and
    t broadcast, so one call prices a family of instances that differ only
    in their instrument utilities and transfers.
    """
    u_a, v_a, u_b, v_b = tables
    ia, ib = np.asarray(support, dtype=int).reshape(-1, 2).T
    x = np.asarray(x, dtype=int)[None, :]
    y = np.asarray(y, dtype=int)[None, :]
    t = np.asarray(t, dtype=float)[..., None, :]
    ia, ib = ia[:, None], ib[:, None]
    return (u_a[x, ia] + u_b[..., y, ib] - t,
            v_a[x, ia] + v_b[..., y, ib] + t)


def best_response(agent, principal, prob):
    """Each agent's pick over the last axis, and the menu's value.

    The outside option pays both sides zero. The agent takes a
    payoff-maximizing option; agent ties (within FEAS_TOL) break toward the
    principal, principal ties toward the lowest option index, and the
    outside option loses all ties. Returns (choice, value): choice is the
    option index or OUTSIDE, and value sums prob times the principal's
    payoff at the choice over the point axis, in point order.
    """
    zero = np.zeros(agent.shape[:-1] + (1,))
    agent = np.concatenate((agent, zero), axis=-1)  # outside option last
    principal = np.concatenate((principal, zero), axis=-1)
    cand = agent >= agent.max(axis=-1, keepdims=True) - FEAS_TOL
    best = np.where(cand, principal, -np.inf).max(axis=-1, keepdims=True)
    choice = (cand & (principal >= best - FEAS_TOL)).argmax(axis=-1)
    payoff = np.take_along_axis(principal, choice[..., None], axis=-1)[..., 0]
    value = 0.0 + np.cumsum(prob * payoff, axis=-1)[..., -1]
    return np.where(choice == agent.shape[-1] - 1, OUTSIDE, choice), value


def deviation_mask(leq: np.ndarray, direction: str) -> np.ndarray:
    """(deviator, target) pairs an IC check covers, from leq[i, j] = type i <= type j.

    "downward" keeps targets below the deviator, "upward" targets above it,
    "all" every pair.
    """
    masks = {"downward": leq.T, "upward": leq, "all": np.ones_like(leq)}
    if direction not in masks:
        raise ValueError(f"unknown direction {direction!r}")
    return masks[direction]


def ic_gains(agent: np.ndarray, allowed: np.ndarray) -> list:
    """(deviator, target, gain) for every allowed pair gaining above FEAS_TOL.

    agent[p, q] is p's payoff from q's option, so the diagonal is truthful
    play and never gains. Rows are deviators, in order, then targets.
    """
    gain = agent - np.diagonal(agent)[:, None]
    return [ICViolation(int(p), int(q), float(gain[p, q]))
            for p, q in zip(*np.nonzero(allowed & (gain > FEAS_TOL)))]


def ir_shortfalls(own: np.ndarray) -> list:
    """(point, payoff) for every truthful payoff below the outside option."""
    return [IRViolation(int(p), float(own[p])) for p in np.flatnonzero(own < -FEAS_TOL)]


# ---------------------------------------------------------------------------
# menus
# ---------------------------------------------------------------------------


def menu_best_response(inst: ScreeningInstance, menu: Menu):
    """Assign every support point its chosen option and value the menu.

    Ties break as in `best_response`. Returns (assignment, value) where
    assignment[p] is an option index or OUTSIDE and value is exactly the
    probability-weighted sum of principal payoffs over the assignment.
    """
    options = menu.options if isinstance(menu, Menu) else tuple(menu)
    x, y, t = np.array(options, dtype=float).reshape(-1, 3).T
    choice, value = best_response(*inst.payoffs(x, y, t), inst.dist.prob)
    return choice.tolist(), float(value)


# ---------------------------------------------------------------------------
# incentive checks
# ---------------------------------------------------------------------------


def _mechanism_payoffs(inst: ScreeningInstance, mech: Mechanism) -> np.ndarray:
    """Agent table (deviator, target): what each point gets from each bundle."""
    if len(mech) != inst.n_support:
        raise StructuralError("mechanism length must match support size")
    return inst.payoffs(mech.x, mech.y, mech.t)[0]


def check_ic(inst: ScreeningInstance, mech: Mechanism, direction: str = "all"):
    """List IC violations of `mech` in the given deviation direction.

    direction="downward" restricts to deviations where the imitated type lies
    componentwise below the deviator, "upward" to componentwise above; "all"
    checks every ordered pair. A violation is a strict gain above FEAS_TOL.
    """
    ia, ib = np.array(inst.dist.support).T
    types = np.column_stack((inst.productive.theta_a[ia], inst.costly.theta_b[ib]))
    leq = (types[:, None, :] <= types[None, :, :]).all(axis=-1)
    allowed = deviation_mask(leq, direction)
    return ic_gains(_mechanism_payoffs(inst, mech), allowed)


def check_ir(inst: ScreeningInstance, mech: Mechanism):
    """List support points whose truthful payoff falls below the outside option."""
    return ir_shortfalls(np.diagonal(_mechanism_payoffs(inst, mech)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    passed: bool
    witness: tuple | None = None
    note: str = ""


#: Checks that gate the no-costly-screening theorem.
ASSUMPTION_CHECKS = (
    "productive_monotone",
    "productive_increasing_differences",
    "surplus_single_crossing",
    "costly_monotone",
    "stochastic_monotone",
    "costly_sign",
    "baseline_normalized",
)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of every model assumption check, with witnesses for failures."""

    checks: dict

    def passed(self, name: str) -> bool:
        return self.checks[name].passed

    def witness(self, name: str):
        return self.checks[name].witness

    @property
    def assumptions_hold(self) -> bool:
        return all(self.checks[name].passed for name in ASSUMPTION_CHECKS)

    @property
    def failures(self) -> list:
        return [name for name, c in self.checks.items()
                if name != "costly_sign_strict" and not c.passed]

    def __str__(self) -> str:
        lines = []
        for name, c in self.checks.items():
            status = "ok" if c.passed else f"FAIL witness={c.witness}"
            lines.append(f"{name}: {status}")
        return "\n".join(lines)


# Each table check decides pass or fail with one array expression and walks
# its scalar loop only on a failing table, so the witness is the loop's first.


def _check_productive_monotone(spec: ProductiveSpec) -> CheckResult:
    # u_a nondecreasing in theta_a at every allocation
    u = spec.u_a
    if not np.count_nonzero(u[:, 1:] < u[:, :-1] - FEAS_TOL):
        return CheckResult(True)
    for i in range(spec.n_alloc):
        row = spec.u_a[i]
        for j in range(spec.n_types - 1):
            if row[j + 1] < row[j] - FEAS_TOL:
                return CheckResult(False, (float(spec.x_grid[i]),
                                           float(spec.theta_a[j]),
                                           float(spec.theta_a[j + 1])))
    return CheckResult(True)


def _check_increasing_differences(spec: ProductiveSpec) -> CheckResult:
    # strict increasing differences of u_a; adjacent steps suffice since
    # differences telescope over both the allocation and the type grid
    u = spec.u_a
    step = u[1:] - u[:-1]
    rises = step[:, 1:] - step[:, :-1] > FEAS_TOL
    if np.count_nonzero(rises) == rises.size:
        return CheckResult(True)
    for i in range(spec.n_alloc - 1):
        for j in range(spec.n_types - 1):
            delta = (u[i + 1, j + 1] - u[i, j + 1]) - (u[i + 1, j] - u[i, j])
            if not delta > FEAS_TOL:
                return CheckResult(False, (float(spec.x_grid[i]),
                                           float(spec.x_grid[i + 1]),
                                           float(spec.theta_a[j]),
                                           float(spec.theta_a[j + 1])))
    return CheckResult(True)


def _check_single_crossing(spec: ProductiveSpec) -> CheckResult:
    # weak single crossing of the productive surplus: once an upgrade gains
    # (weakly/strictly), it keeps gaining for higher types; implication
    # checked on adjacent type pairs, every allocation pair i < k. Coding a
    # gain 2 if strict, 1 if weak and 0 if a loss, an implication fails
    # exactly where the code falls from one type to the next
    s = spec.u_a + spec.v_a
    gain = s[None] - s[:, None]  # gain[i, k] = s[k] - s[i]
    code = (gain > FEAS_TOL).view(np.int8) + (gain >= -FEAS_TOL).view(np.int8)
    order = np.arange(len(s))
    if not np.count_nonzero((code[..., :-1] > code[..., 1:])
                            & (order[:, None] < order)[..., None]):
        return CheckResult(True)
    for i in range(spec.n_alloc - 1):
        for k in range(i + 1, spec.n_alloc):
            d = s[k] - s[i]
            for j in range(spec.n_types - 1):
                if d[j] > FEAS_TOL and not d[j + 1] > FEAS_TOL:
                    return CheckResult(False, (float(spec.x_grid[i]), float(spec.x_grid[k]),
                                               float(spec.theta_a[j]), float(spec.theta_a[j + 1])),
                                       "strict gain reversed")
                if d[j] >= -FEAS_TOL and d[j + 1] < -FEAS_TOL:
                    return CheckResult(False, (float(spec.x_grid[i]), float(spec.x_grid[k]),
                                               float(spec.theta_a[j]), float(spec.theta_a[j + 1])),
                                       "weak gain reversed")
    return CheckResult(True)


def _check_costly_monotone(spec: CostlySpec) -> CheckResult:
    # u_b nondecreasing along the componentwise order of theta_b; the pair
    # b, b never falls, as u > u + FEAS_TOL holds for no float
    theta, u = spec.theta_b, spec.u_b
    below = (theta[:, None] <= theta).all(axis=-1)  # below[b, c]
    if not np.count_nonzero((u[:, :, None] > u[:, None, :] + FEAS_TOL) & below):
        return CheckResult(True)
    n = spec.n_types
    for b in range(n):
        for c in range(n):
            if b == c or not np.all(spec.theta_b[b] <= spec.theta_b[c]):
                continue
            for y in range(spec.n_alloc):
                if spec.u_b[y, b] > spec.u_b[y, c] + FEAS_TOL:
                    return CheckResult(False, (int(y), tuple(spec.theta_b[b]),
                                               tuple(spec.theta_b[c])))
    return CheckResult(True)


def _check_costly_sign(spec: CostlySpec) -> CheckResult:
    s = spec.surplus
    if not np.count_nonzero(s > FEAS_TOL):
        return CheckResult(True)
    for y in range(spec.n_alloc):
        for b in range(spec.n_types):
            if s[y, b] > FEAS_TOL:
                return CheckResult(False, (int(y), int(b), float(s[y, b])))
    return CheckResult(True)


def _check_baseline(spec: CostlySpec) -> CheckResult:
    y0 = spec.y0_index
    if not (np.count_nonzero(spec.u_b[y0]) or np.count_nonzero(spec.v_b[y0])):
        return CheckResult(True)  # no entry != 0.0
    for name, tab in (("u_b", spec.u_b), ("v_b", spec.v_b)):
        for b in range(spec.n_types):
            if tab[y0, b] != 0.0:
                return CheckResult(False, (name, int(b), float(tab[y0, b])))
    return CheckResult(True)


def validate_instance(inst: ScreeningInstance, levels=None) -> ValidationReport:
    """Run every model assumption check and return a full report.

    Structural defects raise StructuralError at construction; everything here
    is reported, never raised, so diagnostic runs on violating instances
    (including the strictness of the instrument-surplus sign) stay possible.
    Each table check is decided by one array expression over its table (for
    single crossing and costly monotonicity, over every pair of allocations
    or costly types); only a failing table walks the scalar loop that finds
    its witness, the first violation in loop order. Pass `levels` to reuse a
    computed `stochastics.level_couplings(inst)`.
    """
    from .stochastics import check_stochastic_monotonicity  # local to avoid a cycle

    checks: dict[str, CheckResult] = {}
    checks["productive_monotone"] = _check_productive_monotone(inst.productive)
    checks["productive_increasing_differences"] = _check_increasing_differences(inst.productive)
    checks["surplus_single_crossing"] = _check_single_crossing(inst.productive)
    checks["costly_monotone"] = _check_costly_monotone(inst.costly)
    ok, witness = check_stochastic_monotonicity(inst, levels)
    checks["stochastic_monotone"] = CheckResult(ok, witness)
    checks["costly_sign"] = _check_costly_sign(inst.costly)
    checks["costly_sign_strict"] = CheckResult(inst.costly.strictly_costly, None,
                                               "informational flag")
    checks["baseline_normalized"] = _check_baseline(inst.costly)
    return ValidationReport(checks)
