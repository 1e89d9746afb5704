"""Job-indexed trajectory generation for the lag calling policy.

The buffer holds at most one waiting job, so the waiting time of job j is
exactly max(S_{j-1} - lag_j - D_j, 0) where lag_j is the lag in force when
job j was called. No event calendar is needed: a run is a vectorized
recursion over job indices, which also gives common random numbers across
lags for free (the sampled service/delay streams never depend on the lag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ._fmt import fmt_float, write_csv
from .distributions import DistributionSpec, TruncatedNormal
from .streams import substream

__all__ = [
    "STATE_IDLE",
    "STATE_BUSY",
    "JobRecord",
    "Stationary",
    "GradualLinear",
    "AbruptPiecewise",
    "ParamSchedule",
    "InvalidScheduleError",
    "EmptyWindowError",
    "ParameterError",
    "Window",
    "Trajectory",
    "run_fixed_lag",
    "sweep_lags",
    "assemble_trajectory",
    "schedule_means",
    "sample_jobs",
    "estimate_reward",
    "estimate_reward_se",
    "state_from_wait",
    "server_state_at_arrival",
    "DEFAULT_BURN_IN",
]

STATE_IDLE = "idle"
STATE_BUSY = "busy"

DEFAULT_BURN_IN = 1000


class InvalidScheduleError(ValueError):
    """Schedule cannot produce a mean for every requested job."""


class EmptyWindowError(ValueError):
    """Requested estimation window selects no jobs or does not fit."""


class ParameterError(ValueError):
    """An argument value a routine cannot use; ``name`` is the parameter."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


def state_from_wait(wait: float) -> str:
    """Server state seen by an arriving job: busy iff it has to wait."""
    return STATE_BUSY if wait > 0 else STATE_IDLE


@dataclass(frozen=True)
class JobRecord:
    index: int
    service: float
    delay: float
    wait: float
    sojourn: float
    iat: float
    server_state_at_arrival: str


def server_state_at_arrival(job: JobRecord) -> str:
    return state_from_wait(job.wait)


@dataclass(frozen=True)
class Stationary:
    t_s: float
    t_d: float

    def __post_init__(self):
        if self.t_s <= 0 or self.t_d <= 0:
            raise InvalidScheduleError("stationary means must be positive")


@dataclass(frozen=True)
class GradualLinear:
    """Means ramp linearly over the first `over_jobs` jobs, then hold."""

    t_s_start: float
    t_s_end: float
    t_d_start: float
    t_d_end: float
    over_jobs: int

    def __post_init__(self):
        for v in (self.t_s_start, self.t_s_end, self.t_d_start, self.t_d_end):
            if v <= 0:
                raise InvalidScheduleError("schedule means must be positive")
        if self.over_jobs < 2:
            raise InvalidScheduleError("gradual ramp needs at least 2 jobs")


@dataclass(frozen=True)
class AbruptPiecewise:
    """Segments of (length_in_jobs, t_s, t_d), applied in order."""

    segments: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidScheduleError("abrupt schedule needs at least one segment")
        for length, t_s, t_d in self.segments:
            if length <= 0:
                raise InvalidScheduleError("segment lengths must be positive")
            if t_s <= 0 or t_d <= 0:
                raise InvalidScheduleError("schedule means must be positive")

    def total_jobs(self) -> int:
        return sum(length for length, _, _ in self.segments)


ParamSchedule = Union[Stationary, GradualLinear, AbruptPiecewise]


def schedule_means(
    schedule: Optional[ParamSchedule], n: int
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Per-job (service mean, delay mean) arrays, or (None, None) if the
    sampled base specs are to be used untouched."""
    if schedule is None:
        return None, None
    if isinstance(schedule, Stationary):
        return np.full(n, schedule.t_s), np.full(n, schedule.t_d)
    if isinstance(schedule, GradualLinear):
        frac = np.clip(np.arange(n) / (schedule.over_jobs - 1), 0.0, 1.0)
        ts = schedule.t_s_start + frac * (schedule.t_s_end - schedule.t_s_start)
        td = schedule.t_d_start + frac * (schedule.t_d_end - schedule.t_d_start)
        return ts, td
    if isinstance(schedule, AbruptPiecewise):
        if schedule.total_jobs() < n:
            raise InvalidScheduleError(
                f"abrupt schedule covers {schedule.total_jobs()} jobs, run needs {n}"
            )
        lengths = [length for length, _, _ in schedule.segments]
        ts = np.repeat([t_s for _, t_s, _ in schedule.segments], lengths)[:n]
        td = np.repeat([t_d for _, _, t_d in schedule.segments], lengths)[:n]
        return ts.astype(float), td.astype(float)
    raise InvalidScheduleError(f"unknown schedule type {type(schedule).__name__}")


def sample_jobs(
    spec: DistributionSpec,
    rng: np.random.Generator,
    n: int,
    means: Optional[np.ndarray] = None,
) -> np.ndarray:
    """n draws from spec, rescaled job-by-job so draw j has mean means[j].

    Scale families (exponential, uniform, point mass) are multiplied; the
    truncated normal is shifted together with its window, holding sigma and
    the window width. Either transform preserves the family shape.
    """
    draws = np.asarray(spec.sample(rng, n), dtype=float)
    if means is None:
        return draws
    means = np.asarray(means, dtype=float)
    base = spec.mean
    if isinstance(spec, TruncatedNormal):
        min_shift = float(np.min(means)) - base
        if spec.lower + min_shift < 0:
            raise InvalidScheduleError(
                "schedule would shift the truncation window below 0"
            )
        return draws + (means - base)
    if base <= 0:
        raise InvalidScheduleError("cannot rescale a law with zero mean")
    return draws * (means / base)


@dataclass(frozen=True)
class Window:
    """Job-selection window for reward estimation."""

    kind: str
    size: int = 0

    def __post_init__(self):
        if self.kind not in ("all", "last_k", "sliding"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.kind != "all" and self.size < 1:
            raise EmptyWindowError(f"{self.kind} window needs a positive size")

    @classmethod
    def all(cls) -> "Window":
        return cls("all")

    @classmethod
    def last_k(cls, k: int) -> "Window":
        return cls("last_k", int(k))

    @classmethod
    def sliding(cls, width: int) -> "Window":
        return cls("sliding", int(width))


class Trajectory:
    """Array-backed per-job records of one run.

    Columns are kept as flat float arrays (a million JobRecord objects would
    dwarf the simulation itself); `job(i)` materializes a single record.
    """

    __slots__ = ("service", "delay", "wait", "sojourn", "iat", "lag", "busy",
                 "seed", "lag_policy_description")

    def __init__(self, service, delay, wait, iat, lag, seed, lag_policy_description):
        self.service = service
        self.delay = delay
        self.wait = wait
        self.sojourn = wait + service
        self.iat = iat
        self.lag = lag
        self.busy = wait > 0
        self.seed = seed
        self.lag_policy_description = lag_policy_description

    def __len__(self) -> int:
        return len(self.service)

    def job(self, index: int) -> JobRecord:
        """Record for 1-based job index."""
        if not 1 <= index <= len(self):
            raise IndexError(f"job index {index} outside 1..{len(self)}")
        i = index - 1
        return JobRecord(
            index=index,
            service=float(self.service[i]),
            delay=float(self.delay[i]),
            wait=float(self.wait[i]),
            sojourn=float(self.sojourn[i]),
            iat=float(self.iat[i]),
            server_state_at_arrival=state_from_wait(self.wait[i]),
        )

    def __iter__(self) -> Iterator[JobRecord]:
        return (self.job(i) for i in range(1, len(self) + 1))

    def to_csv(self, path) -> None:
        header = ["index", "service", "delay", "wait", "sojourn", "iat", "state"]
        rows = (
            [
                str(i + 1),
                fmt_float(self.service[i]),
                fmt_float(self.delay[i]),
                fmt_float(self.wait[i]),
                fmt_float(self.sojourn[i]),
                fmt_float(self.iat[i]),
                STATE_BUSY if self.busy[i] else STATE_IDLE,
            ]
            for i in range(len(self))
        )
        write_csv(path, header, rows)


def assemble_trajectory(
    service_draws: np.ndarray,
    delay_draws: np.ndarray,
    lags: np.ndarray,
    seed: int,
    description: str,
) -> Trajectory:
    """Build a trajectory from sampled times and the per-job applied lag.

    W_1 = 0 (the first job finds an empty system and, by convention, has no
    inter-arrival time); for j >= 2,
    W_j = max(S_{j-1} - lag_j - D_j, 0) and IAT_j = W_{j-1} + lag_j + D_j.
    """
    n = len(service_draws)
    wait = np.zeros(n)
    iat = np.zeros(n)
    wait[1:] = np.maximum(service_draws[:-1] - lags[1:] - delay_draws[1:], 0.0)
    iat[1:] = wait[:-1] + lags[1:] + delay_draws[1:]
    return Trajectory(service_draws, delay_draws, wait, iat, lags, seed, description)


def _draw(service, delay, n, schedule, seed) -> tuple[np.ndarray, np.ndarray]:
    """The service and delay draws of an n-job run; they never depend on the lag."""
    if n < 2:
        raise ParameterError("n", f"need at least 2 jobs, got {n}")
    ts_means, td_means = schedule_means(schedule, n)
    s = sample_jobs(service, substream(seed, "service"), n, ts_means)
    d = sample_jobs(delay, substream(seed, "delay"), n, td_means)
    return s, d


def _check_lag(lag: float) -> None:
    if not 0 <= lag < math.inf:
        raise ParameterError("lag", f"lag must be finite and nonnegative, got {lag}")


def run_fixed_lag(
    service: DistributionSpec,
    delay: DistributionSpec,
    lag: float,
    n: int,
    schedule: Optional[ParamSchedule] = None,
    seed: int = 0,
) -> Trajectory:
    """Simulate n jobs under a fixed lag.

    The same seed always reproduces the identical trajectory, and the
    sampled service/delay streams do not depend on the lag, so runs at
    different lags with one seed share common random numbers.
    """
    _check_lag(lag)
    s, d = _draw(service, delay, n, schedule, seed)
    lags = np.full(n, float(lag))
    return assemble_trajectory(s, d, lags, seed, f"fixed lag {lag:g}")


def sweep_lags(
    service: DistributionSpec,
    delay: DistributionSpec,
    lags: Sequence[float],
    f,
    n: int,
    *,
    schedule: Optional[ParamSchedule] = None,
    seed: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
) -> list[tuple[float, float]]:
    """Reward estimate and batch-means standard error at each fixed lag.

    Entry i equals ``estimate_reward_se(run_fixed_lag(service, delay,
    lags[i], n, schedule, seed), f, Window.last_k(n - burn_in))`` bit for
    bit: the service and delay streams are drawn once and shared by every
    lag (common random numbers), and each lag computes only the jobs after
    the burn-in, plus the one before them, with the arithmetic of
    ``assemble_trajectory``. Lags are swept one at a time, so memory stays
    a few n-job arrays whatever the number of lags.
    """
    for lag in lags:
        _check_lag(lag)
    if not 0 <= burn_in < n:
        raise ParameterError(
            "burn_in", f"burn_in must lie in [0, n), got {burn_in} with n = {n}"
        )
    s, d = _draw(service, delay, n, schedule, seed)
    first = max(burn_in, 1)  # first window job that has a predecessor
    # previous service time of jobs first-1..n-1; job 0 finds an empty system,
    # and -inf makes its wait max(-inf, 0) = 0
    s_prev = s[first - 2:n - 1] if first >= 2 else np.concatenate(([-np.inf], s[:-1]))
    d_tail = d[first - 1:]
    out = []
    for lag in lags:
        wait = np.maximum((s_prev - lag) - d_tail, 0.0)  # jobs first-1..n-1
        iat = wait[:-1] + lag
        iat += d[first:]  # (W_{j-1} + lag) + D_j for jobs first..n-1
        if burn_in == 0:  # job 0 has no inter-arrival time
            iat = np.concatenate(([0.0], iat))
        f_vals = np.asarray(f.eval(wait[burn_in - first + 1:] + s[burn_in:]), dtype=float)
        out.append(_ratio_se(f_vals, iat))
    return out


def _select(traj: Trajectory, window: Window) -> slice:
    n = len(traj)
    if window.kind == "all":
        return slice(0, n)
    if window.size > n:
        raise EmptyWindowError(
            f"window of {window.size} jobs does not fit a {n}-job trajectory"
        )
    return slice(n - window.size, n)


def estimate_reward(traj: Trajectory, f, window: Window = Window.all()):
    """Per-unit-time reward estimate sum f(T_j) / sum IAT_j over the window.

    For a sliding window, returns one estimate per window position (the
    series is ordered by the window's end job); it is NaN where the window
    spans no time, as the width-1 window over job 0 does.
    """
    if window.kind == "sliding":
        n = len(traj)
        w = window.size
        if w > n:
            raise EmptyWindowError(f"sliding width {w} exceeds trajectory length {n}")
        f_cum = np.concatenate(([0.0], np.cumsum(f.eval(traj.sojourn))))
        a_cum = np.concatenate(([0.0], np.cumsum(traj.iat)))
        span = a_cum[w:] - a_cum[:-w]
        return np.divide(f_cum[w:] - f_cum[:-w], span, out=np.full(len(span), np.nan),
                         where=span > 0)
    sel = _select(traj, window)
    total_f = float(np.sum(f.eval(traj.sojourn[sel])))
    total_a = float(np.sum(traj.iat[sel]))
    return total_f / total_a


def estimate_reward_se(
    traj: Trajectory,
    f,
    window: Window = Window.all(),
    batches: int = 32,
) -> tuple[float, float]:
    """Reward estimate plus a batch-means standard error.

    Contiguous batches absorb the short-range dependence between
    consecutive jobs, so the spread of per-batch ratios is an honest
    error bar for the full-window ratio estimator.
    """
    if window.kind == "sliding":
        raise ValueError("standard errors are defined for all/last_k windows only")
    sel = _select(traj, window)
    f_vals = np.asarray(f.eval(traj.sojourn[sel]), dtype=float)
    return _ratio_se(f_vals, traj.iat[sel], batches)


def _ratio_se(f_vals: np.ndarray, iats: np.ndarray, batches: int = 32) -> tuple[float, float]:
    """sum f / sum IAT, plus the spread of the ratio over contiguous batches."""
    estimate = float(np.sum(f_vals)) / float(np.sum(iats))
    b = min(batches, len(f_vals))
    ratios = _batch_sums(f_vals, b) / _batch_sums(iats, b)
    se = float(np.std(ratios, ddof=1) / np.sqrt(b)) if b > 1 else float("inf")
    return estimate, se


def _batch_sums(x: np.ndarray, b: int) -> np.ndarray:
    """Sums of the b contiguous chunks of np.array_split(x, b): the first
    len(x) % b chunks are one element longer than the rest."""
    size, longer = divmod(len(x), b)
    cut = longer * (size + 1)
    return np.concatenate((x[:cut].reshape(longer, size + 1).sum(axis=1),
                           x[cut:].reshape(b - longer, size).sum(axis=1)))
