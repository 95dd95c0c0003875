"""Finite screening problems with a productive allocation and costly
instruments: optimal mechanisms, monotone couplings, and verification."""

from .errors import (AssumptionFailed, InputNotIC, NotDominated,
                     NotImplementable, NotMonotone, OutOfRange,
                     PreconditionFailed, RatioMonotonicityFailed,
                     ScreenkitError, SizeGuardExceeded, StructuralError)
from .model import (FEAS_TOL, OUTSIDE, PROB_TOL, VALUE_TOL, CheckResult,
                    CostlySpec, ICViolation, IRViolation, JointDistribution,
                    Mechanism, Menu, ProductiveSpec, ScreeningInstance,
                    ValidationReport, check_ic, check_ir, mechanism_value,
                    menu_best_response, validate_instance)
from .stochastics import (MASS_TOL, Coupling, DiscreteDistribution,
                          GeneratorKnobs, LevelCouplings, PathMixture,
                          TypePath, check_dominance,
                          check_stochastic_monotonicity, instance_rng,
                          path_decomposition, random_negative_instance,
                          random_positive_instance, strassen_coupling)
from .transfers import (OneDimInstance, closed_form_downward_transfers,
                        graph_optimal_transfers, onedim_ic_violations,
                        onedim_ir_violations, onedim_value)
from .solver import (JointSolveResult, SolveResult, productive_marginal,
                     solve_downward_1d, solve_full_1d, solve_joint)
from .theorems import (ConverseArtifacts, MultiplicativeInstance,
                       MultiplicativeMechanism, ShiftResult, TheoremReport,
                       converse_construct, shift_mechanism,
                       shift_multiplicative, verify_theorem1)
from .applications import (BundleInstance, BundlingCertificate,
                           BundlingSolution, CompetitiveParams, SeparatingSet,
                           bundling_reduce, certify_bundling,
                           competitive_separating, make_application_instance,
                           solve_bundling)
from .io import (canonical_json, instance_from_dict, instance_to_dict,
                 load_instance, load_params, save_instance)
from .presets import (bundling_default, competitive_default_params,
                      example1_instance, example2_instance, example2_menu,
                      example2_mechanism, example3_instance, example3_menu)

__version__ = "0.1.0"

# the imported names above, in their order; the submodules are not exported
__all__ = [
    "AssumptionFailed", "InputNotIC", "NotDominated", "NotImplementable",
    "NotMonotone", "OutOfRange", "PreconditionFailed",
    "RatioMonotonicityFailed", "ScreenkitError", "SizeGuardExceeded",
    "StructuralError",
    "FEAS_TOL", "OUTSIDE", "PROB_TOL", "VALUE_TOL", "CheckResult",
    "CostlySpec", "ICViolation", "IRViolation", "JointDistribution",
    "Mechanism", "Menu", "ProductiveSpec", "ScreeningInstance",
    "ValidationReport", "check_ic", "check_ir", "mechanism_value",
    "menu_best_response", "validate_instance",
    "MASS_TOL", "Coupling", "DiscreteDistribution", "GeneratorKnobs",
    "LevelCouplings", "PathMixture", "TypePath", "check_dominance",
    "check_stochastic_monotonicity", "instance_rng", "path_decomposition",
    "random_negative_instance", "random_positive_instance",
    "strassen_coupling",
    "OneDimInstance", "closed_form_downward_transfers",
    "graph_optimal_transfers", "onedim_ic_violations",
    "onedim_ir_violations", "onedim_value",
    "JointSolveResult", "SolveResult", "productive_marginal",
    "solve_downward_1d", "solve_full_1d", "solve_joint",
    "ConverseArtifacts", "MultiplicativeInstance",
    "MultiplicativeMechanism", "ShiftResult", "TheoremReport",
    "converse_construct", "shift_mechanism", "shift_multiplicative",
    "verify_theorem1",
    "BundleInstance", "BundlingCertificate", "BundlingSolution",
    "CompetitiveParams", "SeparatingSet", "bundling_reduce",
    "certify_bundling", "competitive_separating",
    "make_application_instance", "solve_bundling",
    "canonical_json", "instance_from_dict", "instance_to_dict",
    "load_instance", "load_params", "save_instance",
    "bundling_default", "competitive_default_params", "example1_instance",
    "example2_instance", "example2_menu", "example2_mechanism",
    "example3_instance", "example3_menu",
]
