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
from functools import reduce
from operator import getitem
from typing import NamedTuple

import numpy as np

from .errors import StructuralError

# Equality / feasibility comparisons.
FEAS_TOL = 1e-9
# Comparisons between solver values.
VALUE_TOL = 1e-6
# Probability bookkeeping.
PROB_TOL = 1e-12
# Rounding slack: the margin a comparison of computed floats leaves for
# rounding alone, where an exact comparison would read rounding as a fact.
_ROUND_TOL = 1e-12

#: Sentinel used in menu assignments for the outside option.
OUTSIDE = -1


def _as_index(value, name: str) -> int:
    """`value` as an int index: a Python or numpy integer. A bool, float,
    str or anything else raises StructuralError rather than truncate."""
    if type(value) is int:  # the common case, checked first
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise StructuralError(f"{name} must be an integer index, got {value!r}")
    return int(value)


def _as_real(value, name: str = "") -> float:
    """`value` as a float: a Python or numpy real number. A bool, str, None
    or anything else raises StructuralError, led by `name` if one is given."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        lead = f"{name}: " if name else ""
        raise StructuralError(f"{lead}expected a number, got {value!r}")
    return float(value)


def _sequence(value, name: str) -> tuple:
    """`value`, a sequence or any other iterable, as a tuple; anything else
    raises StructuralError naming the field."""
    try:
        return tuple(value)
    except TypeError:
        raise StructuralError(f"{name}: expected a sequence, got {value!r}") from None


def float_table(value, name: str = "") -> np.ndarray:
    """Numbers, nested to any rectangular shape, as a read-only float array.

    The number rule of `_as_real` for tables: a string, null or boolean
    entry, or a ragged nesting, raises StructuralError, led by `name` if one
    is given. Numpy's own type discovery flags strings, nulls and booleans
    alone; a boolean among numbers reads as 0 or 1, so only the entries
    that read so are looked up in a nested `value` (an array holds none).
    A read-only array is shared and a fresh one frozen; only one that would
    alias a writable caller array is copied.
    """
    lead = f"{name}: " if name else ""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged nesting
        raise StructuralError(f"{lead}{exc}") from None
    kind = arr.dtype.kind
    if kind == "O":  # integers beyond 64 bits, or not numbers
        arr = np.array([_as_real(v, name) for v in arr.flat]).reshape(arr.shape)
    elif kind not in "iuf":
        raise StructuralError(f"{lead}expected numbers only")
    elif arr.ndim and not isinstance(value, np.ndarray):
        # a lone boolean has a dtype of its own, and only 0 and 1 equal
        # their own truth values
        hits = (arr == arr.astype(bool)).nonzero()
        for index in zip(*[axis.tolist() for axis in hits]):
            _as_real(reduce(getitem, index, value), name)
    arr = arr.astype(float, copy=False)
    if arr.flags.writeable and (arr is value or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


# The input rules every container shares. Each returns its field as a
# read-only array or raises StructuralError naming it; a NaN fails them all.


def _grid(values, name: str) -> np.ndarray:
    """`values` as a nonempty, strictly increasing 1-D array."""
    arr = float_table(values, name)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError(f"{name} must be a nonempty 1-D array")
    if not (arr[1:] > arr[:-1]).all():
        raise StructuralError(f"{name} must be strictly increasing")
    return arr


def _table(values, shape: tuple, name: str) -> np.ndarray:
    """`values` as an array of the given shape with finite entries."""
    arr = float_table(values, name)
    if arr.shape != shape:
        raise StructuralError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise StructuralError(f"{name} contains non-finite entries")
    return arr


def _weights(values, n: int, name: str, tol: float = PROB_TOL) -> np.ndarray:
    """`values` as n positive weights summing to one within `tol`."""
    arr = float_table(values, name)
    if arr.shape != (n,):
        raise StructuralError(f"{name} must hold {n} weights, got shape {arr.shape}")
    if not (arr > 0).all():
        raise StructuralError(f"{name} must be strictly positive")
    if abs(float(arr.sum()) - 1.0) > tol:
        raise StructuralError(f"{name} must sum to one")
    return arr


def _distinct_rows(points, name: str) -> np.ndarray:
    """`points` as a nonempty (k, N) array of distinct finite rows; 1-D is N = 1."""
    arr = float_table(points, name)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.size == 0:
        raise StructuralError(f"{name} must be a nonempty (k, N) array")
    if not np.isfinite(arr).all():
        raise StructuralError(f"{name} contains non-finite entries")
    if len({tuple(row) for row in arr.tolist()}) != arr.shape[0]:
        raise StructuralError(f"{name} must have distinct rows")
    return arr


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
        object.__setattr__(self, "theta_a", _grid(self.theta_a, "theta_a"))
        object.__setattr__(self, "x_grid", _grid(self.x_grid, "x_grid"))
        shape = (self.n_alloc, self.n_types)
        object.__setattr__(self, "u_a", _table(self.u_a, shape, "u_a"))
        object.__setattr__(self, "v_a", _table(self.v_a, shape, "v_a"))

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
        object.__setattr__(self, "theta_b", _distinct_rows(self.theta_b, "theta_b"))
        object.__setattr__(self, "y_set", float_table(self.y_set, "y_set"))
        object.__setattr__(self, "y0_index", _as_index(self.y0_index, "y0_index"))
        if self.y_set.ndim != 1 or self.y_set.size == 0:
            raise StructuralError("y_set must be a nonempty 1-D array")
        if not 0 <= self.y0_index < self.y_set.size:
            raise StructuralError("y0_index out of range")
        shape = (self.n_alloc, self.n_types)
        object.__setattr__(self, "u_b", _table(self.u_b, shape, "u_b"))
        object.__setattr__(self, "v_b", _table(self.v_b, shape, "v_b"))

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
        # the one pass over the points: each a pair of integer indices, a
        # refused one named as `io.read_field` names a field
        support = []
        for point in self.support:
            try:
                a, b = point
                support.append((_as_index(a, "support"), _as_index(b, "support")))
            except (TypeError, ValueError, StructuralError) as exc:
                reason = (exc if isinstance(exc, StructuralError)
                          else f"support point {point!r} is not a pair")
                raise StructuralError(f"malformed field 'support': {reason}") from None
        if not support:
            raise StructuralError("support must be nonempty")
        if len(set(support)) != len(support):
            raise StructuralError("support pairs must be distinct")
        object.__setattr__(self, "support", tuple(support))
        object.__setattr__(self, "prob", _weights(self.prob, len(support), "prob"))

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True, eq=False)
class ScreeningInstance:
    """A complete finite screening problem."""

    productive: ProductiveSpec
    costly: CostlySpec
    dist: JointDistribution

    def __post_init__(self):
        # the pairs hold integer indices already, so bounds suffice
        n_a, n_b = self.productive.n_types, self.costly.n_types
        a, b = zip(*self.dist.support)
        if min(a) < 0 or min(b) < 0 or max(a) >= n_a or max(b) >= n_b:
            bad = next(p for p in self.dist.support
                       if not (0 <= p[0] < n_a and 0 <= p[1] < n_b))
            raise StructuralError(f"support pair {bad} out of range")

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
        for name, rule in (("x", _as_index), ("y", _as_index), ("t", _as_real)):
            object.__setattr__(self, name, tuple(
                rule(v, name) for v in _sequence(getattr(self, name), name)))
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
        opts = []
        for option in _sequence(self.options, "options"):
            try:
                ix, iy, t = option
            except (TypeError, ValueError):
                raise StructuralError(f"options: {option!r} is not an "
                                      f"(x, y, t) triple") from None
            opts.append((_as_index(ix, "option x"), _as_index(iy, "option y"),
                         _as_real(t, "option t")))
        object.__setattr__(self, "options", tuple(opts))
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

    Ties break as in `best_response`. A raw sequence of (x, y, t) options
    is read through `Menu`. Returns (assignment, value) where assignment[p]
    is an option index or OUTSIDE and value is exactly the
    probability-weighted sum of principal payoffs over the assignment.
    """
    menu = menu if isinstance(menu, Menu) else Menu(menu)
    x, y, t = np.array(menu.options, dtype=float).reshape(-1, 3).T
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


# Each table check builds one mask of its table's violations, its axes in
# the check's scan order: the mask decides pass or fail, and its first hit
# in row-major order is the witness.


def _first_hit(mask: np.ndarray):
    """Index tuple of the first nonzero (True) entry of `mask` in row-major
    order, or None when there is none."""
    if not np.count_nonzero(mask):
        return None
    return np.unravel_index(np.flatnonzero(mask)[0], mask.shape)


def _check_productive_monotone(spec: ProductiveSpec) -> CheckResult:
    # u_a nondecreasing in theta_a at every allocation
    u = spec.u_a
    hit = _first_hit(u[:, 1:] < u[:, :-1] - FEAS_TOL)
    if hit is None:
        return CheckResult(True)
    i, j = hit
    return CheckResult(False, (float(spec.x_grid[i]), float(spec.theta_a[j]),
                               float(spec.theta_a[j + 1])))


def _check_increasing_differences(spec: ProductiveSpec) -> CheckResult:
    # strict increasing differences of u_a; adjacent steps suffice since
    # differences telescope over both the allocation and the type grid
    u = spec.u_a
    step = u[1:] - u[:-1]
    hit = _first_hit(~(step[:, 1:] - step[:, :-1] > FEAS_TOL))
    if hit is None:
        return CheckResult(True)
    i, j = hit
    return CheckResult(False, (float(spec.x_grid[i]), float(spec.x_grid[i + 1]),
                               float(spec.theta_a[j]), float(spec.theta_a[j + 1])))


def _check_single_crossing(spec: ProductiveSpec) -> CheckResult:
    # weak single crossing of the productive surplus: once an upgrade gains
    # (weakly/strictly), it keeps gaining for higher types; implication
    # checked on adjacent type pairs, every allocation pair i < k. Coding a
    # gain 2 if strict, 1 if weak and 0 if a loss, an implication fails
    # exactly where the code falls from one type to the next, and the strict
    # one where it falls from 2
    s = spec.u_a + spec.v_a
    gain = s[None] - s[:, None]  # gain[i, k] = s[k] - s[i]
    code = (gain > FEAS_TOL).view(np.int8) + (gain >= -FEAS_TOL).view(np.int8)
    order = np.arange(len(s))
    hit = _first_hit((code[..., :-1] > code[..., 1:])
                     & (order[:, None] < order)[..., None])
    if hit is None:
        return CheckResult(True)
    i, k, j = hit
    return CheckResult(False, (float(spec.x_grid[i]), float(spec.x_grid[k]),
                               float(spec.theta_a[j]), float(spec.theta_a[j + 1])),
                       "strict gain reversed" if code[i, k, j] == 2
                       else "weak gain reversed")


def _check_costly_monotone(spec: CostlySpec) -> CheckResult:
    # u_b nondecreasing along the componentwise order of theta_b; the pair
    # b, b never falls, as u > u + FEAS_TOL holds for no float. The witness
    # is the first fall in (b, c, y) order
    theta, u = spec.theta_b, spec.u_b
    below = (theta[:, None] <= theta).all(axis=-1)  # below[b, c]
    falls = (u[:, :, None] > u[:, None, :] + FEAS_TOL) & below  # falls[y, b, c]
    hit = _first_hit(falls.transpose(1, 2, 0))
    if hit is None:
        return CheckResult(True)
    b, c, y = hit
    return CheckResult(False, (int(y), tuple(theta[b]), tuple(theta[c])))


def _check_costly_sign(spec: CostlySpec) -> CheckResult:
    s = spec.surplus
    hit = _first_hit(s > FEAS_TOL)
    if hit is None:
        return CheckResult(True)
    y, b = hit
    return CheckResult(False, (int(y), int(b), float(s[y, b])))


def _check_baseline(spec: CostlySpec) -> CheckResult:
    # the u_b row is scanned before the v_b row; -0.0 counts as zero
    for name, table in (("u_b", spec.u_b), ("v_b", spec.v_b)):
        row = table[spec.y0_index]
        hit = _first_hit(row)
        if hit is not None:
            return CheckResult(False, (name, int(hit[0]), float(row[hit])))
    return CheckResult(True)


def validate_instance(inst: ScreeningInstance, levels=None) -> ValidationReport:
    """Run every model assumption check and return a full report.

    Structural defects raise StructuralError at construction; everything here
    is reported, never raised, so diagnostic runs on violating instances
    (including the strictness of the instrument-surplus sign) stay possible.
    Each table check builds one mask of its violations (for single crossing
    and costly monotonicity, over every pair of allocations or costly types);
    the mask decides the check, and its first hit in the check's scan order
    is the witness. Pass `levels` to reuse a computed
    `stochastics.level_couplings(inst)`.
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
