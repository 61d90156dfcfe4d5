"""Posterior covariance fields for Gaussian-process kernels: exact
evaluation, geometric bounds and cheap estimators, low-rank-plus-sparse
approximation, and AFN/FSAI preconditioning."""

from .errors import (
    CovfieldError,
    DegenerateDataError,
    DivergenceError,
    FormatError,
    IllConditionedKernelError,
    NumericalConsistencyError,
    UnsupportedDimensionError,
)
from .geometry import (
    PointSet,
    bandwidth_percentile,
    dist_to_set,
    distance_matrix,
    generate_gaussian_cloud,
    load_csv,
    preset_observations,
    standardize,
    subsample,
)
from .kernel import KernelConfig, kernel_eval, kernel_matrix, lipschitz_bound
from .posterior import PosteriorModel, fit, max_cross_weight_norm
from .bounds import (
    estimate_curve,
    lower_bound_small,
    upper_bound_large,
    upper_bound_small,
    variance_lower_bound,
)
from .estimators import (
    ReferencePointSet,
    absolute_field,
    dist_metrics,
    estimator_field,
    field_estimator_large,
    field_estimator_small,
    reference_points_1d,
    variance_estimator_auto,
    variance_estimator_large,
    variance_estimator_small,
)
from .lrsp import (
    NystromFactor,
    cost_equivalent_rank,
    lowrank_dense,
    lowrank_sweep,
    lrsp_dense,
    lrsp_sweep,
    nystrom_build,
    pattern_by_radius,
    sparse_correction,
)
from .precond import (
    AfnPreconditioner,
    SchurComplement,
    afn_build,
    fsai_groups,
    geometric_pattern,
    pcg,
    random_pattern,
    run_methods,
)

__version__ = "0.1.0"
