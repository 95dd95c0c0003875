import re

import numpy as np
import pytest

from screenkit import (AssumptionFailed, BundleInstance, CompetitiveParams,
                       OutOfRange, RatioMonotonicityFailed, SizeGuardExceeded,
                       StructuralError, bundling_default, bundling_reduce,
                       certify_bundling, competitive_separating, instance_rng,
                       make_application_instance, productive_marginal,
                       solve_bundling, solve_full_1d, solve_joint,
                       validate_instance, verify_theorem1)
from screenkit.applications import (_check_ratio_monotonicity, _group_types,
                                    _option_cells, _quality_line)
from screenkit.model import _ROUND_TOL
from screenkit.solver import DEFAULT_GUARD

from helpers import (draw_competitive, grid_separating, ratio_check_by_instance,
                     superset_violation_loop)


# ---------------------------------------------------------------------------
# bundling
# ---------------------------------------------------------------------------


def test_bundle_validation_rejects_nonmonotone_values():
    with pytest.raises(StructuralError):
        BundleInstance(2, np.array([[0.0, 5.0, 2.0, 4.0]]), np.array([1.0]),
                       np.linspace(0, 1, 5), np.zeros(5))


def test_bundle_validation_rejects_concave_cost():
    with pytest.raises(StructuralError):
        BundleInstance(1, np.array([[0.0, 2.0]]), np.array([1.0]),
                       np.linspace(0, 1, 3), np.array([0.0, 0.9, 1.0]))


def test_bundle_validation_rejects_valuable_empty_bundle():
    with pytest.raises(StructuralError):
        BundleInstance(1, np.array([[0.5, 2.0]]), np.array([1.0]),
                       np.linspace(0, 1, 3), np.zeros(3))


def test_reduce_requires_ratio_monotonicity():
    values = np.array([
        [0.0, 4.0, 3.0, 5.0],   # ratios (0.8, 0.6)
        [0.0, 6.0, 5.0, 8.0],   # ratios (0.75, 0.625): first falls
    ])
    b = BundleInstance(2, values, np.array([0.5, 0.5]),
                       np.linspace(0, 1, 5), np.zeros(5))
    with pytest.raises(RatioMonotonicityFailed):
        bundling_reduce(b)


def _group_types_unique(b, rows):
    """`_group_types` through `np.unique(rows, axis=0)`."""
    levels, level = np.unique(b.grand_values, return_inverse=True)
    points, point = np.unique(rows, axis=0, return_inverse=True)
    cells, cell = np.unique(level * len(points) + point.reshape(-1),
                            return_inverse=True)
    mass = np.bincount(cell, weights=b.prob)
    return (levels, points, *np.divmod(cells, len(points)), mass)


@pytest.mark.parametrize("seed", range(40))
def test_group_types_sorts_rows_like_unique(seed):
    # few distinct entries, signed zeros among them: rows tie often, on some
    # columns only
    rng = instance_rng(seed, stream=503)
    n, width = 1 + seed % 12, 1 + seed % 3
    grand = rng.choice([1.0, 2.0, 2.5], n)
    b = BundleInstance(1, np.column_stack((np.zeros(n), grand)),
                       np.full(n, 1.0 / n), np.linspace(0, 1, 3), np.zeros(3))
    rows = rng.choice([-1.0, -0.0, 0.0, 0.5], (n, width))
    grand = np.unique(b.grand_values, return_inverse=True)
    got, want = _group_types(b, rows, grand), _group_types_unique(b, rows)
    for a, w in zip(got, want, strict=True):
        assert a.dtype == w.dtype and a.shape == w.shape
        assert a.tobytes() == w.tobytes()


def test_ratio_check_groups_types_by_exact_grand_value():
    # grand values a hair apart are two levels, and the ratios fall between them
    lo, hi = 5.0, 5.0 + 1e-7
    values = np.array([[0.0, 0.9 * lo, 0.9 * lo, lo],
                       [0.0, 0.2 * hi, 0.2 * hi, hi]])
    b = BundleInstance(2, values, np.array([0.5, 0.5]), np.linspace(0, 1, 3),
                       np.zeros(3))
    with pytest.raises(RatioMonotonicityFailed, match=f"{lo!r} and {hi!r}"):
        bundling_reduce(b)
    # equal grand values pool into one level, whatever the ratios
    values = np.array([[0.0, 0.9 * lo, 0.9 * lo, lo],
                       [0.0, 0.2 * lo, 0.2 * lo, lo]])
    inst = bundling_reduce(BundleInstance(2, values, np.array([0.5, 0.5]),
                                          np.linspace(0, 1, 3), np.zeros(3)))
    assert inst.productive.theta_a.tolist() == [lo]
    assert inst.dist.support == ((0, 0), (0, 1))


def random_ratio_bundle(seed):
    """1-3 goods and 1-4 types on a 3-point grid. Grand values come from
    three and good shares from four, so levels tie and hold several ratio
    rows; a bundle is worth its grand value times its capped share sum."""
    rng = instance_rng(seed, stream=504)
    n_goods, n = 1 + seed % 3, 1 + (seed // 3) % 4
    grand = rng.choice([2.0, 3.0, 4.0], n)
    share = rng.choice([0.0, 0.25, 0.5, 0.75], (n, n_goods))
    members = (np.arange(2 ** n_goods)[:, None] >> np.arange(n_goods)) & 1
    worth = np.minimum(1.0, share @ members.T)
    worth[:, -1] = 1.0
    prob = rng.uniform(0.2, 1.0, n)
    return BundleInstance(n_goods, grand[:, None] * worth, prob / prob.sum(),
                          np.linspace(0, 1, 3), np.array([0.0, 0.1, 0.3]))


RATIO_BUNDLES = {seed: random_ratio_bundle(seed) for seed in range(150)}


def test_ratio_bundles_cover_both_verdicts_and_pooled_levels():
    verdicts = set()
    for b in RATIO_BUNDLES.values():
        ok, _ = ratio_check_by_instance(b)
        ratios = b.values[:, :b.grand] / b.grand_values[:, None]
        pooled = any(len(np.unique(ratios[b.grand_values == v], axis=0)) > 1
                     for v in b.grand_values)
        verdicts.add((b.n_goods, ok, pooled))
    for n_goods in (2, 3):
        for ok in (True, False):
            assert (n_goods, ok, True) in verdicts


@pytest.mark.parametrize("seed", sorted(RATIO_BUNDLES))
def test_ratio_check_matches_the_instance_route(seed):
    b = RATIO_BUNDLES[seed]
    ok, witness = ratio_check_by_instance(b)
    grand = np.unique(b.grand_values, return_inverse=True)
    if ok:
        _check_ratio_monotonicity(b, grand)
        return
    with pytest.raises(RatioMonotonicityFailed) as exc:
        _check_ratio_monotonicity(b, grand)
    assert str(exc.value) == (f"bundle value ratios fall between grand-bundle "
                              f"values {witness[0]!r} and {witness[1]!r}")


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", sorted(RATIO_BUNDLES))
def test_quality_line_is_the_reduced_marginal(seed):
    b = RATIO_BUNDLES[seed]
    try:
        want = productive_marginal(bundling_reduce(b))
    except RatioMonotonicityFailed as exc:
        with pytest.raises(RatioMonotonicityFailed, match=re.escape(str(exc))):
            solve_bundling(b)
        return
    got = _quality_line(b)
    for name in ("theta", "mu", "x_grid", "u", "v"):
        assert _bits_equal(getattr(got, name), getattr(want, name)), name
    assert solve_bundling(b).onedim == solve_full_1d(want)


def _grand_zero(n_goods):
    values = np.zeros((2, 2 ** n_goods))
    values[1, 1:] = 1.0
    return BundleInstance(n_goods, values, np.array([0.5, 0.5]),
                          np.linspace(0, 1, 3), np.zeros(3))


@pytest.mark.parametrize("make, error", [
    (lambda: _grand_zero(2), StructuralError),
    # the ratios fail before the guard would: 3 goods on 8 points is 8 ** 7
    (lambda: BundleInstance(3, np.array([[0, 2, 2, 3, 2, 3, 3, 4],
                                         [0, 1, 1, 2, 1, 2, 2, 8.0]]),
                            np.array([0.5, 0.5]), np.linspace(0, 1, 8),
                            np.zeros(8)), RatioMonotonicityFailed),
])
def test_quality_line_keeps_the_reductions_checks_in_order(make, error):
    b = make()
    with pytest.raises(error) as want:
        bundling_reduce(b)
    with pytest.raises(error, match=re.escape(str(want.value))):
        solve_bundling(b)


def test_only_the_reduction_meets_the_instrument_guard():
    # 3 goods on 8 points is 8 ** 7 candidate instrument vectors, which the
    # reduction enumerates and the quality line does not
    b = BundleInstance(3, np.array([[0, 1, 1, 2, 1, 2, 2, 3.0]]),
                       np.array([1.0]), np.linspace(0, 1, 8), np.zeros(8))
    with pytest.raises(SizeGuardExceeded, match="instrument enumeration too large"):
        bundling_reduce(b)
    sol = solve_bundling(b)
    assert sol.menu == ((1.0, 3.0),) and sol.value == 3.0


@pytest.mark.parametrize("seed", range(60))
def test_superset_check_names_the_loops_first_pair(seed):
    rng = instance_rng(seed, stream=505)
    n_goods, n = 1 + seed % 3, 1 + (seed // 3) % 3
    values = rng.choice([0.0, 1.0, 2.0], (n, 2 ** n_goods))
    values += rng.choice([0.0, 5e-10], values.shape)  # within FEAS_TOL
    values[:, 0] = 0.0
    if seed % 4 == 0:  # running maxima by bundle size: the check passes
        order = np.argsort([bin(k).count("1") for k in range(2 ** n_goods)],
                           kind="stable")
        values[:, order] = np.maximum.accumulate(values[:, order], axis=1)
    args = (np.full(n, 1.0 / n), np.linspace(0, 1, 3), np.zeros(3))
    want = superset_violation_loop(values)
    if want is None:
        BundleInstance(n_goods, values, *args)
        return
    with pytest.raises(StructuralError) as exc:
        BundleInstance(n_goods, values, *args)
    assert str(exc.value) == f"bundle {want[0]} worth more than superset {want[1]}"


def test_bundle_validation_bounds_n_goods_before_any_power():
    # 2 ** 10 ** 12 would never finish; the column count bounds n_goods first
    with pytest.raises(StructuralError, match="bundle columns"):
        BundleInstance(10 ** 12, np.array([[0.0, 2.0]]), np.array([1.0]),
                       np.linspace(0, 1, 3), np.zeros(3))


def test_bundle_mass_is_checked_at_the_reduction_tolerance():
    # 5e-10 off one passes no check downstream, so construction names prob
    with pytest.raises(StructuralError, match="prob must sum to one"):
        BundleInstance(2, bundling_default().values, np.array([0.5, 0.5 + 5e-10]),
                       np.linspace(0, 1, 5), np.zeros(5))


def test_reduced_instance_structure():
    b = bundling_default()
    inst = bundling_reduce(b)
    assert inst.productive.theta_a.tolist() == [5.0, 8.0]
    assert inst.costly.theta_b.shape == (2, 3)
    # the zero instrument is the baseline and the instrument set respects
    # the substochastic constraint on the shared grid
    assert inst.costly.y0_index == 0
    assert inst.costly.strictly_costly


def test_quality_menu_value_and_posted_price_collapse():
    sol = solve_bundling(bundling_default())
    assert sol.value == pytest.approx(4.0, abs=1e-12)
    assert sol.menu == ((1.0, 5.0),)
    free = solve_bundling(bundling_default(zero_cost=True))
    assert len(free.menu) == 1          # single posted price for the bundle
    assert free.menu[0][0] == 1.0       # at top quality
    assert free.value == pytest.approx(5.0, abs=1e-12)


def test_certificate_on_default_instance():
    cert = certify_bundling(bundling_default())
    assert cert.menu_is_optimal
    assert cert.brute_force_value == pytest.approx(4.0, abs=1e-9)
    assert cert.options == 2595


def test_joint_solver_agrees_with_quality_menu_on_reduction():
    b = bundling_default()
    sol = solve_bundling(b)
    joint = solve_joint(bundling_reduce(b))
    assert joint.value == pytest.approx(sol.value, abs=1e-9)
    assert joint.all_optima_baseline   # strictly costly instruments idle


def random_bundle(seed, stream=501, grid=np.linspace(0, 1, 5)):
    """Two goods, two types and a convex cost on `grid`."""
    rng = instance_rng(seed, stream=stream)
    vstar = np.sort(rng.uniform(3.0, 9.0, 2))
    if vstar[1] - vstar[0] < 0.3:
        vstar[1] = vstar[0] + 0.3
    tau_lo = rng.uniform(0.2, 0.7, 2)
    tau_hi = np.minimum(tau_lo + rng.uniform(0.0, 0.25, 2), 0.95)
    values = np.zeros((2, 4))
    values[0, 3], values[1, 3] = vstar
    values[0, 1:3] = tau_lo * vstar[0]
    values[1, 1:3] = tau_hi * vstar[1]
    mu = rng.uniform(0.3, 0.7)
    steps = np.sort(rng.uniform(0.05, 0.8, grid.size - 1))
    cost = np.concatenate([[0.0], np.cumsum(steps)])
    return BundleInstance(2, values, np.array([mu, 1.0 - mu]), grid, cost)


@pytest.mark.parametrize("seed", range(6))
def test_certificate_on_random_instances(seed):
    cert = certify_bundling(random_bundle(seed))
    assert cert.menu_is_optimal, (cert.brute_force_value, cert.menu_value)


@pytest.mark.parametrize("n_goods", [1, 2])
@pytest.mark.parametrize("points", [2, 3, 4, 5, 7])
def test_option_count_closed_form_matches_enumeration(n_goods, points):
    values = np.zeros((1, 2 ** n_goods))
    values[0, 1:] = 1.0
    b = BundleInstance(n_goods, values, np.array([1.0]),
                       np.linspace(0, 1, points), np.zeros(points))
    assert certify_bundling(b).options == len(_option_cells(b))


def test_certificate_guards_the_option_count_before_enumerating():
    # 2.7e9 options on a 30-point grid, which bundling_reduce's guard admits
    b = random_bundle(0, grid=np.linspace(0, 1, 30))
    with pytest.raises(SizeGuardExceeded, match="option enumeration") as exc:
        certify_bundling(b)
    assert exc.value.required == 2_694_535_320
    assert exc.value.guard == DEFAULT_GUARD


def test_certificate_rejects_three_types():
    values = np.array([[0.0, 1.0, 1.0, 2.0]] * 3)
    values[1] *= 2
    values[2] *= 3
    b = BundleInstance(2, values, np.array([1 / 3] * 3),
                       np.linspace(0, 1, 5), np.zeros(5))
    with pytest.raises(SizeGuardExceeded):
        certify_bundling(b)


# ---------------------------------------------------------------------------
# application generators
# ---------------------------------------------------------------------------


def test_regulation_instance_satisfies_assumptions():
    inst = make_application_instance("regulation")
    report = validate_instance(inst)
    assert report.assumptions_hold, report.failures
    theorem = verify_theorem1(inst)
    assert theorem.passed


def test_labor_instance_satisfies_assumptions():
    inst = make_application_instance("labor")
    report = validate_instance(inst)
    assert report.assumptions_hold, report.failures
    theorem = verify_theorem1(inst)
    assert theorem.passed


def test_labor_supports_multiple_activities():
    inst = make_application_instance("labor", {
        "activity_costs": (0.4, 0.3),
        "activity_levels": ((0.0, 1.0), (0.0, 1.0)),
        "theta_b_rows": ((0.0, 0.0), (1.0, 0.0)),
    })
    assert inst.costly.theta_b.shape == (2, 2)
    assert inst.costly.n_alloc == 4
    assert validate_instance(inst).assumptions_hold


def test_costly_production_matches_worked_example():
    inst = make_application_instance("costly_production")
    assert inst.productive.theta_a.tolist() == [1.0, 2.0]
    assert inst.costly.surplus[1].tolist() == [-1.0, 0.0]
    report = validate_instance(inst)
    assert "stochastic_monotone" in report.failures


def test_application_parameter_validation():
    with pytest.raises(OutOfRange):
        make_application_instance("regulation", {"lam": -1.0})
    with pytest.raises(OutOfRange):
        make_application_instance("regulation", {"c0": 0.1})  # cost turns negative
    with pytest.raises(OutOfRange):
        make_application_instance("labor", {"c0": 0.5})
    with pytest.raises(OutOfRange):
        make_application_instance("nonsense")


@pytest.mark.parametrize("levels", [2.7, True, "2"])
def test_regulation_refuses_a_certificate_level_count_int_would_cut(levels):
    # int() made 3 instruments of 2.7 and of "2", and 2 of True
    with pytest.raises(StructuralError, match="certificate_levels must be an "
                                              "integer index"):
        make_application_instance("regulation", {"certificate_levels": levels})


@pytest.mark.parametrize("field", ["prob_a", "prob_b"])
def test_labor_checks_its_marginal_weights(field):
    # a short marginal ended in a bare IndexError
    with pytest.raises(StructuralError, match=f"{field} must hold 2 weights"):
        make_application_instance("labor", {field: (1.0,)})
    with pytest.raises(StructuralError, match=f"{field} must sum to one"):
        make_application_instance("labor", {field: (0.5, 0.6)})


def test_labor_checks_one_activity_column_per_activity():
    # two activities against the default one-column rows ended in a bare
    # IndexError
    two = {"activity_costs": (0.4, 0.3), "activity_levels": ((0.0, 1.0), (0.0, 1.0))}
    with pytest.raises(StructuralError, match=r"theta_b_rows must have shape \(2, 2\)"):
        make_application_instance("labor", two)
    with pytest.raises(StructuralError, match="theta_b_rows contains non-finite"):
        make_application_instance("labor", {"theta_b_rows": ((0.0,), (np.nan,))})
    inst = make_application_instance(
        "labor", {**two, "theta_b_rows": ((0.0, 0.1), (0.5, 0.2))})
    assert inst.costly.theta_b.shape == (2, 2)


@pytest.mark.parametrize("kind, field", [
    ("regulation", "lam"), ("regulation", "c0"), ("regulation", "c1"),
    ("regulation", "effort_cost"), ("labor", "c0"),
    ("costly_production", "item_cost")])
@pytest.mark.parametrize("value", ["0.3", True, None])
def test_generators_read_scalar_parameters_as_numbers(kind, field, value):
    # float() read "0.3" as 0.3 and True as 1.0
    with pytest.raises(StructuralError, match=f"{field}: expected a number"):
        make_application_instance(kind, {field: value})


@pytest.mark.parametrize("kind, field, value", [
    ("regulation", "theta_a", ("0.2", "0.4", "0.6")),
    ("regulation", "x_grid", ("0", "0.5", "1")),
    ("regulation", "prob", ("0.5", "0.5")),
    ("labor", "activity_costs", ("0.4",)),
    ("labor", "theta_0", (0.5, True)),
    ("labor", "x_grid", (0.0, None, 1.0)),
    ("labor", "activity_levels", (("0", "1"),)),
    ("labor", "theta_b_rows", (("0",), (0.5,))),
    ("labor", "prob_b", ("0.5", "0.5")),
])
def test_generators_read_array_parameters_as_numbers(kind, field, value):
    # np.asarray(..., dtype=float) read strings as numbers, and the labor
    # costs ended in a bare TypeError
    params = {field: value}
    if field == "prob":
        params["support"] = ((0, 0), (1, 1))
    with pytest.raises(StructuralError,
                       match=f"{field}: expected (numbers only|a number)"):
        make_application_instance(kind, params)


def test_generators_take_python_and_numpy_reals():
    base = make_application_instance("regulation")
    for lam in (1, np.float64(1.0), np.int64(1), np.float32(1.0)):
        inst = make_application_instance("regulation", {"lam": lam})
        assert inst.productive.v_a.tobytes() == base.productive.v_a.tobytes()
    inst = make_application_instance("regulation", {
        "theta_a": np.array([0.2, 0.4, 0.6]), "x_grid": [0, 1]})
    assert inst.productive.x_grid.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# competitive screening
# ---------------------------------------------------------------------------


def test_competitive_default_offers():
    sep = competitive_separating(CompetitiveParams())
    xl, yl, wl = sep.offer_l
    assert (xl, yl) == (0.25, 0.0)
    assert wl == pytest.approx(0.125, abs=1e-12)
    xh, yh, wh = sep.offer_h
    assert yh > 0
    assert wh == pytest.approx(1.0 * xh, abs=1e-12)  # zero profit
    assert sep.gain > 1e-6
    # the low type's constraint binds at the optimum (free activity margin)
    p = CompetitiveParams()
    slack = p.low_type_utility - (p.theta_h * xh - p.psi_l(xh) - p.c_l(yh))
    assert abs(slack) < 1e-9


def test_competitive_self_selection():
    p = CompetitiveParams()
    sep = competitive_separating(p)
    xh, yh, _ = sep.offer_h
    low_at_h = p.theta_h * xh - p.psi_l(xh) - p.c_l(yh)
    assert low_at_h <= p.low_type_utility + 1e-9
    high_at_l = p.theta_l * p.efficient_low - p.psi_h(p.efficient_low)
    assert sep.value_high >= high_at_l - 1e-9


@pytest.mark.parametrize("name,overrides", [
    ("types_ordered", {"theta_l": 1.0, "theta_h": 0.9}),
    ("marginal_cost_order", {"a_h": 1.5}),
    ("efficient_interior", {"a_h": 0.4}),
    ("adverse_selection", {"theta_l": 0.9, "theta_h": 0.91, "a_h": 0.5,
                           "b_l": 2.5}),
    ("separation_at_one", {"theta_l": 0.2, "theta_h": 1.9, "a_h": 0.96}),
    ("instrument_bite", {"b_l": 1.5}),
    ("instrument_smooth", {"b_h": -1.0}),
])
def test_competitive_named_assumption_failures(name, overrides):
    with pytest.raises(AssumptionFailed) as exc:
        CompetitiveParams(**overrides)
    assert exc.value.name == name


def test_zero_activity_cost_for_high_type_binds_constraint():
    sep = competitive_separating(CompetitiveParams(b_h=0.0))
    p = CompetitiveParams(b_h=0.0)
    xh, yh, _ = sep.offer_h
    # with a free activity the high type climbs to its efficient allocation
    assert xh == p.efficient_high
    slack = p.low_type_utility - (p.theta_h * xh - p.psi_l(xh) - p.c_l(yh))
    assert abs(slack) < 1e-9


@pytest.mark.parametrize("b_h", [1e-310, 2.2250738585072014e-308, 1e-200,
                                 1e-100])
def test_vanishing_activity_cost_keeps_the_efficient_allocation(b_h):
    # the cubic's leading coefficients scale with b_h; left in, a tiny one
    # overflows np.roots or loses the root near x^e_H
    p = CompetitiveParams(b_h=b_h)
    sep = competitive_separating(p)
    assert sep.offer_h[0] == pytest.approx(p.efficient_high, abs=1e-12)
    assert sep.offer_h[1] > 0 and sep.gain > 0


def test_competitive_default_offer_is_the_exact_optimum():
    sep = competitive_separating(CompetitiveParams())
    assert sep.offer_h[:2] == pytest.approx((0.674795114303761,
                                             0.052315556004845026), abs=1e-12)
    assert sep.value_high == pytest.approx(0.3305468621874955, abs=1e-12)
    assert sep.value_high_no_instrument == pytest.approx(0.2801281754735162,
                                                         abs=1e-12)


COMPETITIVE_CASES = ([CompetitiveParams(), CompetitiveParams(b_h=0.0)]
                     + [draw_competitive(instance_rng(seed, stream=507))
                        for seed in range(50)])


@pytest.mark.parametrize("p", COMPETITIVE_CASES,
                         ids=["default", "free_activity"]
                         + [f"draw{seed}" for seed in range(50)])
def test_competitive_offer_beats_every_feasible_point(p):
    sep = competitive_separating(p)
    xh, yh, _ = sep.offer_h
    assert yh > 0 and sep.gain > 0
    # the grid program's points are all feasible, so they bound it below
    gx, gy, g_value, g_work = grid_separating(p)
    assert p.theta_h * gx - p.psi_l(gx) - p.c_l(gy) <= p.low_type_utility + _ROUND_TOL
    assert sep.value_high >= g_value - 1e-12
    assert sep.value_high_no_instrument >= g_work - 1e-12
    # and so do the cheapest deterring activities along a fine scan of x
    xs = np.linspace(0.0, 1.0, 100_001)
    ys = np.maximum(0.0, (p.theta_h * xs - p.psi_l(xs) - p.low_type_utility) / p.b_l)
    assert sep.value_high >= (p.theta_h * xs - p.psi_h(xs) - p.c_h(ys)).max() - 1e-12
    # the low type's constraint binds
    low_at_h = p.theta_h * xh - p.psi_l(xh) - p.c_l(yh)
    assert abs(low_at_h - p.low_type_utility) <= 1e-9
    # work alone separates at the roots x0 < x1 of the low type's gain
    cap = p.low_type_utility + _ROUND_TOL
    d = np.sqrt(p.theta_h ** 2 - 4 * p.a_l * cap)
    x0, x1 = 2 * cap / (p.theta_h + d), (p.theta_h + d) / (2 * p.a_l)
    work = max(p.theta_h * x0 - p.psi_h(x0), p.theta_h * x1 - p.psi_h(x1))
    assert sep.value_high_no_instrument == pytest.approx(work, abs=1e-12)


@pytest.mark.parametrize("scale", [1024.0, 1e200])
def test_competitive_offer_scales_with_the_parameters(scale):
    # payoffs are homogeneous of degree one in the six parameters, so x and y
    # stay and the values scale, with no coefficient overflowing at 1e200
    p = CompetitiveParams()
    sep = competitive_separating(p)
    big = competitive_separating(CompetitiveParams(
        *(scale * v for v in (p.theta_l, p.theta_h, p.a_l, p.a_h, p.b_l, p.b_h))))
    assert big.offer_h[:2] == pytest.approx(sep.offer_h[:2], rel=1e-9)
    assert big.value_high / scale == pytest.approx(sep.value_high, rel=1e-12)
    assert (big.value_high_no_instrument / scale
            == pytest.approx(sep.value_high_no_instrument, rel=1e-12))


@pytest.mark.parametrize("b_h", [1e16, 1e20, 1e30])
def test_competitive_names_float_resolution_when_the_gain_rounds_away(b_h):
    # the offer keeps a positive activity, but what it buys the high type
    # lies below the float resolution of the value
    with pytest.raises(StructuralError) as info:
        competitive_separating(CompetitiveParams(b_h=b_h))
    message = str(info.value)
    assert "below float resolution" in message
    assert "failed to improve" not in message
    # at 1e14 the gain still shows
    assert competitive_separating(CompetitiveParams(b_h=1e14)).gain > 0


def test_competitive_offer_with_a_prohibitive_low_type_cost():
    # b_l ** 2 overflows; any y > 0 deters, so the high type works at x^e_H
    p = CompetitiveParams(b_l=1e308)
    sep = competitive_separating(p)
    assert sep.offer_h[0] == p.efficient_high
    assert sep.offer_h[1] > 0
    assert sep.value_high == p.theta_h * p.efficient_high - p.psi_h(p.efficient_high)
