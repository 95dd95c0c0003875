"""The package's public names, pinned so that the API changes only on
purpose. A change to this list goes with an entry in README's "API changes"
section."""
import inspect
import io
import types

import pytest

import screenkit
import screenkit.cli

PUBLIC_NAMES = [
    "AssumptionFailed", "BundleInstance", "BundlingCertificate",
    "BundlingSolution", "CheckResult", "CompetitiveParams",
    "ConverseArtifacts", "CostlySpec", "Coupling", "DiscreteDistribution",
    "FEAS_TOL", "GeneratorKnobs", "ICViolation", "IRViolation",
    "InputNotIC", "JointDistribution", "JointSolveResult",
    "LevelCouplings", "MASS_TOL", "Mechanism", "Menu",
    "MultiplicativeInstance", "MultiplicativeMechanism", "NotDominated",
    "NotImplementable", "NotMonotone", "OUTSIDE", "OneDimInstance",
    "OutOfRange", "PROB_TOL", "PathMixture", "PreconditionFailed",
    "ProductiveSpec", "RatioMonotonicityFailed", "ScreeningInstance",
    "ScreenkitError", "SeparatingSet", "ShiftResult", "SizeGuardExceeded",
    "SolveResult", "StructuralError", "TheoremReport", "TypePath",
    "VALUE_TOL", "ValidationReport", "bundling_default",
    "bundling_reduce", "canonical_json", "certify_bundling",
    "check_dominance", "check_ic", "check_ir",
    "check_stochastic_monotonicity", "closed_form_downward_transfers",
    "competitive_default_params", "competitive_separating",
    "converse_construct", "example1_instance", "example2_instance",
    "example2_mechanism", "example2_menu", "example3_instance",
    "example3_menu", "graph_optimal_transfers", "instance_from_dict",
    "instance_rng", "instance_to_dict", "load_instance",
    "load_params", "make_application_instance", "mechanism_value",
    "menu_best_response", "onedim_ic_violations", "onedim_ir_violations",
    "onedim_value", "path_decomposition",
    "productive_marginal", "random_negative_instance",
    "random_positive_instance", "save_instance", "shift_mechanism",
    "shift_multiplicative", "solve_bundling", "solve_downward_1d",
    "solve_full_1d", "solve_joint", "strassen_coupling",
    "validate_instance", "verify_theorem1"
]


def test_public_api_is_pinned():
    assert sorted(screenkit.__all__) == PUBLIC_NAMES


def test_every_public_name_but_the_submodules_is_exported():
    names = {name for name, value in vars(screenkit).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(screenkit.__all__) == names
    assert len(screenkit.__all__) == len(names)


def test_star_import_leaves_the_standard_io_bound():
    namespace = {"io": io}
    exec("from screenkit import *", namespace)
    assert namespace["io"] is io
    assert namespace["converse_construct"] is screenkit.converse_construct


@pytest.mark.parametrize("function, params", [
    (screenkit.validate_instance, ["inst"]),
    (screenkit.check_stochastic_monotonicity, ["inst"]),
    (screenkit.productive_marginal, ["inst"]),
    (screenkit.solve_joint, ["inst", "guard"]),
    (screenkit.certify_bundling, ["b"]),
    (screenkit.cli._solve_payload, ["inst", "mode", "guard", "timing", "instance_id"]),
])
def test_no_function_takes_a_result_derived_from_its_input(function, params):
    # the level pass, the full1d incumbent and the bundling menu are worked
    # out from the input: a caller-supplied one from another input gave
    # wrong verdicts, bare exceptions or a far larger search
    assert list(inspect.signature(function).parameters) == params
