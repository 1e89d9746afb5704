"""Grid-sweep benchmark optimizer over the calling lag.

The simulated objective draws the service and delay streams once and sweeps
every grid lag over them (``simulator.sweep_lags``): neighboring lags are
compared on common random numbers, with far less noise than independent
runs would allow, and the draws are paid for once per sweep instead of once
per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._fmt import fmt_float, write_csv
from .analytics import (
    _closed_form_or_numeric, _numeric_rewards, _surrogate_rewards, reward_exact,
)
from .distributions import DistributionSpec
from .reward import ExponentialReward
from .simulator import DEFAULT_BURN_IN, ParameterError, ParamSchedule, sweep_lags

__all__ = ["GridPoint", "GridResult", "optimize", "build_lag_grid", "OBJECTIVES"]

OBJECTIVES = ("simulated", "exact", "surrogate")


@dataclass(frozen=True)
class GridPoint:
    lag: float
    reward: float
    std_error: float


@dataclass(frozen=True)
class GridResult:
    points: tuple[GridPoint, ...]
    best_lag: float
    best_reward: float
    objective: str

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["lag", "reward", "std_error"],
            ([fmt_float(p.lag), fmt_float(p.reward), fmt_float(p.std_error)]
             for p in self.points),
            trailer=(
                f"# best_lag={fmt_float(self.best_lag)}"
                f" best_reward={fmt_float(self.best_reward)}"
            ),
        )


def build_lag_grid(lag_min: float, lag_max: float, step: float) -> np.ndarray:
    if not 0 <= lag_min < math.inf:
        raise ParameterError("lag_min", f"lag_min must be finite and nonnegative, got {lag_min}")
    if not lag_min < lag_max < math.inf:
        raise ParameterError(
            "lag_max", f"need a finite lag_max above lag_min, got [{lag_min}, {lag_max}]"
        )
    if not 0 < step < math.inf:
        raise ParameterError("step", f"step must be finite and positive, got {step}")
    count = int(math.floor((lag_max - lag_min) / step + 1e-9)) + 1
    return lag_min + step * np.arange(count)


def optimize(
    service: DistributionSpec,
    delay: DistributionSpec,
    f,
    *,
    lag_min: float = 0.0,
    lag_max: Optional[float] = None,
    step: Optional[float] = None,
    n: int = 100_000,
    seed: int = 0,
    objective: str = "simulated",
    schedule: Optional[ParamSchedule] = None,
    burn_in: int = DEFAULT_BURN_IN,
) -> GridResult:
    """Sweep the lag grid and return the best lag and reward.

    Objectives: "simulated" estimates the reward and its batch-means
    standard error at every grid lag from one n-job draw of the service and
    delay streams, shared by all lags (common random numbers), over the jobs
    after the burn-in; "exact" and "surrogate" evaluate the analytic
    quantities. Ties break toward the smallest lag.
    """
    if objective not in OBJECTIVES:
        raise ParameterError(
            "objective", f"objective must be one of {OBJECTIVES}, got {objective!r}"
        )
    if lag_max is None:
        lag_max = 3.0 * service.mean
    if step is None:
        step = (lag_max - lag_min) / 60.0
    lags = [float(lag) for lag in build_lag_grid(lag_min, lag_max, step)]

    if objective == "simulated":
        if n < 10_000:
            raise ParameterError("n", "the simulated objective needs at least 1e4 jobs per point")
        estimates = sweep_lags(
            service, delay, lags, f, n, schedule=schedule, seed=seed, burn_in=burn_in
        )
        points = tuple(GridPoint(lag, value, se) for lag, (value, se) in zip(lags, estimates))
    else:
        if objective == "exact":
            rewards = _closed_form_or_numeric(
                reward_exact, _numeric_rewards, service, delay, f, lags=lags
            )
        elif isinstance(f, ExponentialReward):
            rewards = _surrogate_rewards(service, delay, f.kappa, lags)
        else:
            raise ValueError("the surrogate objective is defined for exponential rewards")
        points = tuple(GridPoint(lag, float(r), 0.0) for lag, r in zip(lags, rewards))

    rewards = np.array([p.reward for p in points])
    best = int(np.argmax(rewards))  # first maximum = smallest lag on ties
    return GridResult(points, points[best].lag, points[best].reward, objective)
