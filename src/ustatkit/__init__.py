"""Symmetric U-statistics toolkit.

Exact Hoeffding decompositions, contraction kernels, the product formula for
degenerate symmetric U-statistics, quantitative normal-approximation bounds,
and a reproducible Monte Carlo harness with a random-geometric-graph
application.
"""

from .core import (
    ContinuousKernelSpec,
    DiscreteMeasure,
    SymmetricKernel,
    degeneracy_defect,
    is_degenerate,
    lp_norm,
    symmetrize,
)
from .contractions import ContractionResult, contract, verify_contraction_inequalities
from .hoeffding import (
    HoeffdingSet,
    compute_g,
    decompose,
    hoeffding_rank,
    reconstruct_check,
    ustat_value,
    variance,
)
from .product import (
    ProductKernelSet,
    level_norm_bound,
    product_kernels,
    prefactor_ratio_normalized,
    prefactor_ratio,
    verify_product_formula,
)
from .bounds import (
    BoundReport,
    KappaConfig,
    TestFunctionProfile,
    contraction_aggregates,
    bound_degenerate_1d,
    bound_dominant,
    bound_general,
    bound_multivariate,
    clt_condition_values,
    projection_contraction_bound,
)
from .montecarlo import (
    ReplicateSet,
    benchmark_kernel,
    simulate,
    smooth_distance,
    wasserstein_to_normal,
)
from .geomgraph import (
    DensityModel,
    GraphPattern,
    RadiusSchedule,
    RegimeReport,
    complete_pattern,
    count_subgraphs,
    gk_contraction_mc,
    named_pattern,
    pattern_kernel,
    regime_experiment,
    variance_lower_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ContinuousKernelSpec",
    "ContractionResult",
    "DensityModel",
    "DiscreteMeasure",
    "GraphPattern",
    "HoeffdingSet",
    "KappaConfig",
    "ProductKernelSet",
    "RadiusSchedule",
    "RegimeReport",
    "ReplicateSet",
    "SymmetricKernel",
    "TestFunctionProfile",
    "contraction_aggregates",
    "benchmark_kernel",
    "bound_degenerate_1d",
    "bound_dominant",
    "bound_general",
    "bound_multivariate",
    "clt_condition_values",
    "level_norm_bound",
    "complete_pattern",
    "compute_g",
    "contract",
    "count_subgraphs",
    "decompose",
    "degeneracy_defect",
    "projection_contraction_bound",
    "gk_contraction_mc",
    "hoeffding_rank",
    "is_degenerate",
    "lp_norm",
    "named_pattern",
    "pattern_kernel",
    "product_kernels",
    "reconstruct_check",
    "regime_experiment",
    "simulate",
    "smooth_distance",
    "symmetrize",
    "prefactor_ratio_normalized",
    "prefactor_ratio",
    "ustat_value",
    "variance",
    "variance_lower_bound_check",
    "verify_contraction_inequalities",
    "verify_product_formula",
    "wasserstein_to_normal",
]
