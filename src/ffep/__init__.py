"""Fully factorial expectation propagation for mini-batch loss minimization.

Costs that sum over examples become Boltzmann factors exp(-beta * batch
loss); EP maintains one unnormalized diagonal-Gaussian message per factor
and refreshes them by local fits.  Four interchangeable fitting schemes are
provided (Laplace, quick Laplace, Gaussian quadrature, and variational
quadrature), together with loss functions, a CSV ingestion pipeline,
looping/streaming EP drivers, offline reference solvers, and an experiment
harness that emits traces and timing tables.
"""

from .bench import (
    PowellResult,
    RunConfig,
    TimingRow,
    reference_newton_logistic,
    reference_powell,
    run_experiment,
    total_cost,
)
from .engine import (
    EpConfig,
    EpState,
    EpTrace,
    TraceRecord,
    ep_run,
    ep_run_factors,
    gate_update,
    posterior_mode,
)
from .factors import (
    GaussianFactor,
    MiniBatchFactor,
    PriorFactor,
    bind,
    prior_as_message,
)
from .gaussian import (
    DiagGaussian,
    ImproperGaussianError,
    MomentMatchError,
    MomentVector,
    divide,
    eval_log,
    moments_to_natural,
    multiply,
    natural_to_moments,
)
from .ingest import (
    ColumnSchema,
    DataLoadError,
    Dataset,
    MiniBatchPartition,
    bundled_synthetic_path,
    bundled_synthetic_schema,
    load_csv,
    partition,
    preprocess,
)
from .losses import (
    LossKind,
    hinge,
    logistic,
    loss_derivatives,
    loss_from_name,
    loss_value,
    quasi01,
)
from .schemes import (
    QuadratureRule,
    SchemeFailure,
    SchemeKind,
    approx_gauss_quadrature,
    approx_laplace,
    approx_quick_laplace,
    approx_variational_quadrature,
    approximate,
    build_rule,
    default_gamma,
    generalized_kl_diagnostic,
    scheme_from_name,
    surrogate_value_grad_hess,
)

__version__ = "0.1.0"

__all__ = [
    "DiagGaussian",
    "MomentVector",
    "ImproperGaussianError",
    "MomentMatchError",
    "multiply",
    "divide",
    "moments_to_natural",
    "natural_to_moments",
    "eval_log",
    "LossKind",
    "logistic",
    "hinge",
    "quasi01",
    "loss_from_name",
    "loss_value",
    "loss_derivatives",
    "ColumnSchema",
    "DataLoadError",
    "Dataset",
    "MiniBatchPartition",
    "load_csv",
    "preprocess",
    "partition",
    "bundled_synthetic_path",
    "bundled_synthetic_schema",
    "MiniBatchFactor",
    "PriorFactor",
    "GaussianFactor",
    "bind",
    "prior_as_message",
    "SchemeKind",
    "SchemeFailure",
    "QuadratureRule",
    "scheme_from_name",
    "build_rule",
    "default_gamma",
    "approx_laplace",
    "approx_quick_laplace",
    "approx_gauss_quadrature",
    "approx_variational_quadrature",
    "approximate",
    "surrogate_value_grad_hess",
    "generalized_kl_diagnostic",
    "EpConfig",
    "EpState",
    "EpTrace",
    "TraceRecord",
    "ep_run",
    "ep_run_factors",
    "gate_update",
    "posterior_mode",
    "RunConfig",
    "TimingRow",
    "PowellResult",
    "total_cost",
    "reference_newton_logistic",
    "reference_powell",
    "run_experiment",
]
