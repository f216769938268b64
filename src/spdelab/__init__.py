"""Numerical laboratory for stochastic parabolic Dirichlet problems.

Half-space model equations with constant coefficients and gradient
noise: kernel-based one-dimensional boundary profiles,
ensemble finite-difference solves, stochastic parabolic Holder norms,
and the studies that probe wall regularity, noise compatibility and
the operator continuation argument.
"""

import importlib

from .fields import FieldEnsemble, GridMismatch, SpaceTimeGrid, finite_diff
from .halfline import (
    BoundaryData,
    QuadratureError,
    StabilityReport,
    dt_v,
    kernel_mass,
    poisson_kernel,
    solve_halfline,
    stability_gap,
)
from .norms import (
    NormResult,
    NormSpec,
    SchauderReport,
    parabolic_seminorm,
    schauder_ratio,
    space_seminorm,
    sup_norm,
    trace_parabolic_norm,
)
from .rng import SeedSpec, WienerBatch, coarsen, standard_normals, wiener_increments

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SpaceTimeGrid",
    "FieldEnsemble",
    "GridMismatch",
    "finite_diff",
    "poisson_kernel",
    "kernel_mass",
    "QuadratureError",
    "BoundaryData",
    "solve_halfline",
    "dt_v",
    "stability_gap",
    "StabilityReport",
    "NormSpec",
    "NormResult",
    "sup_norm",
    "space_seminorm",
    "parabolic_seminorm",
    "trace_parabolic_norm",
    "schauder_ratio",
    "SchauderReport",
    "SeedSpec",
    "WienerBatch",
    "standard_normals",
    "wiener_increments",
    "coarsen",
    "ModelCoefficients",
    "Forcing",
    "ModelError",
    "BlowUpError",
    "check_parabolicity",
    "check_compatibility",
    "interpolate_coefficients",
    "solve_model_halfspace",
    "solve_periodic_line",
    "continuity_iterates",
    "PipelineOutput",
    "decompose_pipeline",
]

# the solver and pipeline load scipy.linalg and scipy.sparse: their names resolve when first read
_LAZY = dict.fromkeys(
    ("ModelCoefficients", "Forcing", "ModelError", "BlowUpError", "check_parabolicity",
     "check_compatibility", "interpolate_coefficients", "solve_model_halfspace",
     "solve_periodic_line", "continuity_iterates"), "solver",
) | {"PipelineOutput": "pipeline", "decompose_pipeline": "pipeline"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
