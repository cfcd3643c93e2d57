"""Tail-averaged constant-stepsize SGD for least squares: simulation,
stationary covariance solvers, closed-form risk bounds, and a numerical
verification harness tying the three together."""

from .bounds import (
    RateConstants,
    RiskBound,
    bias_term,
    excess_risk,
    mle_fit,
    rate_constants,
    rho_misspec,
    risk_bound,
    sigma2_mle,
    variance_term,
)
from .distributions import (
    DistributionSpec,
    Moments,
    SampleStream,
    SupportAtom,
    estimate_moments,
    exact_moments,
    weighted_fourth_moment,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    EmptyWindowError,
    IndefiniteSolutionError,
    IntractableMomentsError,
    NonFiniteResultError,
    NotSpdError,
    SingularMomentsError,
    SingularSystemError,
    StepSizeError,
    TailSgdError,
    ZeroNoiseError,
)
from .harness import (
    CheckResult,
    ExperimentConfig,
    RiskReport,
    SweepConfig,
    config_from_dict,
    parse_config,
    parse_sweep_config,
    run_experiment,
    run_verification,
    sweep,
    sweep_csv,
)
from .matcore import (
    matrix_norm_under,
    psd_order_leq,
    spd,
    sym,
    sym_to_vec,
    vec_to_sym,
    weighted_norm_sq,
)
from .sgd import BatchResult, SgdConfig, run_replicates
from .stationary import (
    FourthMomentOperator,
    StationarySolution,
    anticommutator,
    covariance_step,
    crude_bound,
    refined_trace_bound,
    solve_stationary_direct,
    solve_stationary_fixed_point,
    solve_stationary_gaussian,
    stationary_residual,
)

__version__ = "0.1.0"
