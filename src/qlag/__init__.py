"""qlag: lag-policy queue simulation, optimality checks, and adaptive learning.

A finite-buffer queue calls its next job a lag after the waiting job enters
service; the job then arrives after a random delay. This package simulates
that system, evaluates its long-run per-unit-time reward exactly and through
an MGF surrogate bound, checks analytic conditions under which zero lag is
optimal, benchmarks lags by grid search, and learns the lag online by
renewal-reward gradient ascent or with the paper's Gamma-state rule.
"""

from .analytics import (
    KinkWarning,
    RewardEstimate,
    delta_star,
    expected_wait,
    monte_carlo_reward,
    reward_exact,
    surrogate_reward,
    wait_derivative,
)
from .bayes import (
    AdaptiveResult,
    BayesConfig,
    PosteriorState,
    adaptive_log_to_csv,
    draw_lag,
    run_adaptive,
    update,
)
from .conditions import (
    AssumptionReport,
    ConditionReport,
    RegionScan,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INDETERMINATE,
    check_exponential,
    check_general,
    check_polynomial,
    check_surrogate,
    region_scan,
    verify_assumption,
)
from .distributions import (
    Deterministic,
    DistributionSpec,
    DivergentMGFError,
    Exponential,
    TruncatedNormal,
    Uniform,
    prob_diff_exceeds,
)
from .gridsearch import GridPoint, GridResult, optimize
from .reward import ExponentialReward, PolynomialReward, RewardSpec
from .scenarios import (
    ExperimentSpec,
    MeanShiftResult,
    SuiteRow,
    default_cases,
    mean_shift_run,
    run_suite,
    suite_to_csv,
)
from .simulator import (
    AbruptPiecewise,
    EmptyWindowError,
    GradualLinear,
    InvalidScheduleError,
    ParameterError,
    ParamSchedule,
    STATE_BUSY,
    STATE_IDLE,
    Stationary,
    Trajectory,
    Window,
    estimate_reward,
    estimate_reward_se,
    run_fixed_lag,
    state_from_wait,
    sweep_lags,
)
from .streams import substream

__version__ = "0.1.0"
