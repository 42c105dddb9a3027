"""Superposition-derived spline bases and pivotal-point least squares."""

from .bsplines import (
    LinearSpline,
    ReluCombination,
    UniformBSplineBasis,
    eval_relu_combination,
    linear_interpolant,
    linear_spline_to_relu,
)
from .cache import load_inner_family, save_inner_family
from .fitting import FitResult, dls_fit, evaluate_fit, omp_fit, rms_seminorm
from .inner import (
    InnerFamily,
    build_inner_family,
    eval_z,
    forward_superpose,
)
from .kb import (
    DesignMatrix,
    KBBasis,
    PointSet,
    assemble_design_matrix,
    eval_kb,
    independence_check,
    prune_near_zero_columns,
)
from .knet import KNetwork, build_knetwork, eval_knetwork, rate_experiment
from .pivotal import (
    CrossApproximation,
    build_cross_approximation,
    cross_certificate,
    estimate_rank,
    maxvol_select,
    pivotal_fit,
    pivotal_locations,
)
from .smoothing import (
    LKBBasis,
    SmoothingConfig,
    SmoothSurface,
    build_lkb_basis,
    denoise_samples,
    eval_surface,
)

__version__ = "0.1.0"
