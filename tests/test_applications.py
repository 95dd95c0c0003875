import numpy as np
import pytest

from screenkit import (AssumptionFailed, BundleInstance, CompetitiveParams,
                       OutOfRange, RatioMonotonicityFailed, SizeGuardExceeded,
                       StructuralError, bundling_default, bundling_reduce,
                       certify_bundling, competitive_separating, instance_rng,
                       make_application_instance, solve_bundling, solve_joint,
                       validate_instance, verify_theorem1)
from screenkit.applications import _bundle_options
from screenkit.solver import DEFAULT_GUARD


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
    assert certify_bundling(b).options == _bundle_options(b)[0].shape[1]


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
    assert abs(slack) < 1e-4


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
    assert xh == pytest.approx(p.efficient_high, abs=1e-3)
    slack = p.low_type_utility - (p.theta_h * xh - p.psi_l(xh) - p.c_l(yh))
    assert abs(slack) < 1e-4
