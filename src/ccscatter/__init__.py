"""ccscatter: coupling-constant scattering analysis on the unit interval.

Computes the Wronskian coefficients (a, b) of -u'' + (Q + lam*V) u = 0
under a compactly supported perturbation, follows b as an entire function
of the coupling (zeros, disk counts, growth order, reflection
probability), and counts negative eigenvalues of the associated
self-adjoint boundary problems by oscillation theory.
"""

from .catalog import corpus_problems
from .config import RunConfig, load_config, problem_from_dict, problem_to_dict
from .engine import TransferMatrix, apply_delta, propagate, transfer_matrix
from .errors import (
    ConfigError,
    ContourCollisionError,
    DegenerateFunctionError,
    IntegrationError,
    InvalidProblemError,
    MeasureUnsupportedError,
    QuadraturePrecisionError,
    RealificationRequiredError,
    ScatterError,
    TravelingBasisError,
    UnsupportedBackgroundError,
    WitnessNotFoundError,
)
from .problem import (
    PotentialSpec,
    ReferenceData,
    ScatteringProblem,
    Tolerances,
    build_problem,
    v0_from_u0,
    wronskian,
)
from .scattering import (
    Coefficients,
    ReflectionResult,
    coefficients,
    coefficients_batch,
    realify,
    reflection,
    reflection_batch,
)
from .series import (
    M_constant,
    QuadratureSpec,
    SeriesExpansion,
    evaluate_series,
    kernel,
    series_coefficients,
)
from .spectral import (
    BoundaryAngles,
    EigenvalueCount,
    TentWitness,
    boundary_angles,
    negative_eigenvalue_count,
    negative_eigenvalue_counts,
    tent_gradient_energy,
    tent_value,
    tent_witness,
    zero_eigen_check,
)
from .zeros import (
    GrowthFit,
    ZeroReport,
    disk_zero_count,
    disk_zero_count_fn,
    is_identically_zero,
    order_fit,
    order_fit_fn,
    real_zero_scan,
    real_zero_scan_fn,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryAngles",
    "Coefficients",
    "ConfigError",
    "ContourCollisionError",
    "DegenerateFunctionError",
    "EigenvalueCount",
    "GrowthFit",
    "IntegrationError",
    "InvalidProblemError",
    "M_constant",
    "MeasureUnsupportedError",
    "PotentialSpec",
    "QuadraturePrecisionError",
    "QuadratureSpec",
    "RealificationRequiredError",
    "ReferenceData",
    "ReflectionResult",
    "RunConfig",
    "ScatterError",
    "ScatteringProblem",
    "SeriesExpansion",
    "TentWitness",
    "Tolerances",
    "TransferMatrix",
    "TravelingBasisError",
    "UnsupportedBackgroundError",
    "WitnessNotFoundError",
    "ZeroReport",
    "apply_delta",
    "boundary_angles",
    "build_problem",
    "coefficients",
    "coefficients_batch",
    "corpus_problems",
    "disk_zero_count",
    "disk_zero_count_fn",
    "evaluate_series",
    "is_identically_zero",
    "kernel",
    "load_config",
    "negative_eigenvalue_count",
    "negative_eigenvalue_counts",
    "order_fit",
    "order_fit_fn",
    "problem_from_dict",
    "problem_to_dict",
    "propagate",
    "real_zero_scan",
    "real_zero_scan_fn",
    "realify",
    "reflection",
    "reflection_batch",
    "series_coefficients",
    "tent_gradient_energy",
    "tent_value",
    "tent_witness",
    "transfer_matrix",
    "v0_from_u0",
    "wronskian",
    "zero_eigen_check",
]
