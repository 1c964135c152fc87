"""Meshless nonlocal solver for the manifold Poisson problem with Neumann boundary.

The pipeline: sample a benchmark manifold into a weighted point cloud,
assemble the symmetric nonlocal diffusion system with its boundary
coupling, solve under the weighted mean-zero constraint, and measure
convergence against exact solutions.  Generalized models (absorption
term, prescribed boundary flux, nonlinear absorption) reuse the same
blocks.
"""

from .assembly import (
    AssemblyError,
    BoundaryCoupling,
    NonlocalSystem,
    assemble,
    boundary_trace,
    export_matrix,
    interior_laplacian,
)
from .geometry import (
    CASES,
    ManifoldCase,
    PointCloud,
    boundary_weights,
    build_cloud,
    get_case,
    load_cloud_csv,
    sample_case,
    save_cloud_csv,
    volume_weights,
)
from .harness import (
    ConfigurationError,
    ConvergenceReport,
    HarnessOptions,
    LemmaReport,
    convergence_study,
    e2_error,
    emit_lemma_report,
    emit_report,
    fit_loglog,
    lemma_diagnostics,
    run_single,
)
from .kernels import (
    KernelProfile,
    build_integrated,
    compute_CR,
    cosine_profile,
    load_profile_table,
    profile_eval,
    scaled_eval,
)
from .solver import SolveResult, solve_mean_zero, solve_spd
from .variants import (
    VariantConfig,
    assemble_lambda,
    nonlinear_solve,
)

__all__ = [
    "AssemblyError",
    "BoundaryCoupling",
    "CASES",
    "ConfigurationError",
    "ConvergenceReport",
    "HarnessOptions",
    "KernelProfile",
    "LemmaReport",
    "ManifoldCase",
    "NonlocalSystem",
    "PointCloud",
    "SolveResult",
    "VariantConfig",
    "assemble",
    "assemble_lambda",
    "boundary_trace",
    "boundary_weights",
    "build_cloud",
    "build_integrated",
    "compute_CR",
    "convergence_study",
    "cosine_profile",
    "e2_error",
    "emit_lemma_report",
    "emit_report",
    "export_matrix",
    "fit_loglog",
    "get_case",
    "interior_laplacian",
    "lemma_diagnostics",
    "load_cloud_csv",
    "load_profile_table",
    "nonlinear_solve",
    "profile_eval",
    "run_single",
    "sample_case",
    "save_cloud_csv",
    "scaled_eval",
    "solve_mean_zero",
    "solve_spd",
    "volume_weights",
]

__version__ = "0.1.0"
