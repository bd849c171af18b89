"""Adaptive multiple-testing goodness-of-fit tests with Monte Carlo calibration.

The package tests whether a sample comes from a fixed density or from a
translation/scale family, by comparing a collection of projected
L2-distance estimators against Monte-Carlo-calibrated thresholds, and ships
the competitor tests, alternative densities, and power-study harness used to
benchmark the procedure.
"""

from .adaptive_test import (
    ModelDiagnostic,
    TestResult,
    run_composite_compact_test,
    run_composite_invariant_test,
    run_simple_test,
)
from .alternatives import AlternativeSpec, alt_l2_distance_sq, alt_pdf, alt_sample, from_id
from .baselines import (
    BaselineConfig,
    BaselineKind,
    bickel_ritov_statistic,
    calibrate_baseline,
    kallenberg_ledwina_test,
    ks_exponential_statistic,
    ks_statistic,
)
from .bases import BasisFamily, basis_sums, bin_index, fourier_eval
from .calibration import (
    CalibrationTable,
    StatisticKind,
    calibrate,
    estimate_thresholds,
    select_u_alpha,
)
from .errors import (
    AdagofError,
    BudgetTooSmallError,
    CalibrationFailureError,
    CalibrationMissingError,
    InsufficientSampleError,
    InvalidInputError,
    SupportViolationError,
    TableMismatchError,
)
from .estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    t_hat,
    t_tilde_affine,
    t_tilde_scale,
    theta_hat,
    theta_hat_naive,
)
from .harness import (
    ExperimentConfig,
    PowerReport,
    TestKind,
    derive_stream,
    estimate_power,
    reproduce_table,
)
from .null_models import (
    Exponential,
    Gaussian,
    NullDensity,
    Uniform01,
    null_from_spec,
    transform_to_uniform,
)

__version__ = "0.1.0"
