"""Symmetric U-statistics toolkit.

Exact Hoeffding decompositions, contraction kernels, the product formula for
degenerate symmetric U-statistics, quantitative normal-approximation bounds,
and a reproducible Monte Carlo harness with a random-geometric-graph
application.
"""

from .core import (
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
    ustat_value,
    variance,
)
from .product import (
    ProductKernelSet,
    product_kernels,
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
)
from .montecarlo import (
    ReplicateSet,
    benchmark_kernel,
    simulate,
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
    regime_experiment,
    variance_lower_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
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
    "complete_pattern",
    "compute_g",
    "contract",
    "count_subgraphs",
    "decompose",
    "degeneracy_defect",
    "gk_contraction_mc",
    "hoeffding_rank",
    "is_degenerate",
    "lp_norm",
    "named_pattern",
    "product_kernels",
    "regime_experiment",
    "simulate",
    "symmetrize",
    "prefactor_ratio",
    "ustat_value",
    "variance",
    "variance_lower_bound_check",
    "verify_contraction_inequalities",
    "verify_product_formula",
    "wasserstein_to_normal",
]
