"""Job-indexed trajectory generation for the lag calling policy.

The buffer holds at most one waiting job, so the waiting time of job j is
exactly max(S_{j-1} - lag_j - D_j, 0) where lag_j is the lag in force when
job j was called. No event calendar is needed: a run is a vectorized
recursion over job indices, which also gives common random numbers across
lags for free (the sampled service/delay streams never depend on the lag).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._fmt import write_table
from .distributions import DistributionSpec, TruncatedNormal
from .reward import ExponentialReward
from .streams import substream

__all__ = [
    "STATE_IDLE",
    "STATE_BUSY",
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
    "wait_step",
    "estimate_reward",
    "estimate_reward_se",
    "state_from_wait",
    "DEFAULT_BURN_IN",
]

STATE_IDLE = "idle"
STATE_BUSY = "busy"

DEFAULT_BURN_IN = 1000
_BATCHES = 32  # contiguous batches behind a batch-means standard error
# largest kappa * lag the exponential branch of the sorted rows takes: its
# factor e^(kappa lag) stays far inside the float range (e^710 overflows)
_EXP_LAG_MAX = 600.0


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


def _check_means(*means: float) -> None:
    # written so that NaN fails too: nan <= 0 is false
    if not all(0 < m < math.inf for m in means):
        raise InvalidScheduleError(f"schedule means must be positive and finite, got {means}")


def _job_count(value, what: str, error: type) -> int:
    """value as an int if it is a positive integer (numpy integers count, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Stationary:
    t_s: float
    t_d: float

    def __post_init__(self):
        _check_means(self.t_s, self.t_d)


@dataclass(frozen=True)
class GradualLinear:
    """Means ramp linearly over the first `over_jobs` jobs, then hold."""

    t_s_start: float
    t_s_end: float
    t_d_start: float
    t_d_end: float
    over_jobs: int

    def __post_init__(self):
        _check_means(self.t_s_start, self.t_s_end, self.t_d_start, self.t_d_end)
        if _job_count(self.over_jobs, "over_jobs", InvalidScheduleError) < 2:
            raise InvalidScheduleError("gradual ramp needs at least 2 jobs")


@dataclass(frozen=True)
class AbruptPiecewise:
    """Segments of (length_in_jobs, t_s, t_d), applied in order."""

    segments: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidScheduleError("abrupt schedule needs at least one segment")
        for length, t_s, t_d in self.segments:
            _job_count(length, "segment length", InvalidScheduleError)
            _check_means(t_s, t_d)

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
        if self.kind != "all":
            object.__setattr__(self, "size",
                               _job_count(self.size, f"{self.kind} window size", EmptyWindowError))

    @classmethod
    def all(cls) -> "Window":
        return cls("all")

    @classmethod
    def last_k(cls, k: int) -> "Window":
        return cls("last_k", k)

    @classmethod
    def sliding(cls, width: int) -> "Window":
        return cls("sliding", width)


class Trajectory:
    """Array-backed per-job records of one run.

    Columns are kept as flat float arrays (a million per-job objects would
    dwarf the simulation itself); ``busy`` marks the jobs that had to wait.
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

    def to_csv(self, path) -> None:
        times = {key: getattr(self, key) for key in ("service", "delay", "wait", "sojourn", "iat")}
        write_table(path, {"index": range(1, len(self) + 1), **times,
                           "state": np.where(self.busy, STATE_BUSY, STATE_IDLE)})


def wait_step(s_prev, lag, d, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The wait recursion max((S_prev - lag) - D, 0) over broadcast arrays,
    written into ``out`` when given."""
    out = np.subtract(s_prev, lag, out=out)
    np.subtract(out, d, out=out)
    return np.maximum(out, 0.0, out=out)


def _trajectory(service, delay, wait, lags, seed, description) -> Trajectory:
    """The trajectory of a run whose waits are known: IAT_1 = 0 (the first
    job has, by convention, no inter-arrival time) and, for j >= 2,
    IAT_j = W_{j-1} + lag_j + D_j."""
    iat = np.zeros(len(wait))
    iat[1:] = wait[:-1] + lags[1:] + delay[1:]
    return Trajectory(service, delay, wait, iat, lags, seed, description)


def assemble_trajectory(
    service_draws: np.ndarray,
    delay_draws: np.ndarray,
    lags: np.ndarray,
    seed: int,
    description: str,
) -> Trajectory:
    """Build a trajectory from sampled times and the per-job applied lag.

    W_1 = 0 (the first job finds an empty system); for j >= 2,
    W_j = max(S_{j-1} - lag_j - D_j, 0).
    """
    wait = np.zeros(len(service_draws))
    wait_step(service_draws[:-1], lags[1:], delay_draws[1:], out=wait[1:])
    return _trajectory(service_draws, delay_draws, wait, lags, seed, description)


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

    Entry i is the estimator of ``estimate_reward_se(run_fixed_lag(service,
    delay, lags[i], n, schedule, seed), f, Window.last_k(n - burn_in))``, with
    its sums taken in another order (the two agree within a relative 1e-12):
    the service and delay streams are drawn once and shared by every lag
    (common random numbers).

    The window's jobs are laid out in the rows of the 32 batches, each row
    sorted by X (the sorted sample-path layer below), and every sum is read
    for all lags in one ``searchsorted`` gather. The batch span is
    A_B = sum D + lag N_B + sum W - W(last job of B) + W(job before B), as the
    inter-arrival time of job j carries the wait of job j - 1, with sum W a
    suffix sum of X less lag times the jobs that wait. The jobs that do not
    wait earn prefix sums of f(S). In the exponential branch the jobs that
    wait earn the shifted suffix sums, with no reward work per lag; every
    other lag runs the busy-set loop, which evaluates f(X + S - lag) on the
    jobs that wait only. Memory stays a few n-job arrays whatever the number
    of lags.
    """
    for lag in lags:
        _check_lag(lag)
    if not 0 <= burn_in < n:
        raise ParameterError(
            "burn_in", f"burn_in must lie in [0, n), got {burn_in} with n = {n}"
        )
    s, d = _draw(service, delay, n, schedule, seed)
    m = n - burn_in
    b = min(_BATCHES, m)
    # X of jobs burn_in-1..n-1; job 0 finds an empty system, and -inf makes
    # its wait (and that of the job before job 0) max(-inf, 0) = 0
    x = np.full(m + 1, -np.inf)
    j0 = max(burn_in - 1, 1)  # first of those jobs with a job before it
    np.subtract(s[j0 - 1:-1], d[j0:], out=x[j0 - burn_in + 1:])
    size, longer = divmod(m, b)
    edges = np.cumsum([0] + [size + 1] * longer + [size] * (b - longer))
    x_edge = x[edges]  # the job before the window, then the last job of each batch
    counts = np.diff(edges).astype(float)  # jobs with an inter-arrival time
    if burn_in == 0:  # job 0 has none
        counts[0] -= 1
        d[0] = 0.0
    d_sums = _batch_sums(d[burn_in:], b)
    s = s[burn_in:]
    # a pad cell never waits and earns nothing: it is no job
    x_rows = _batch_rows(x[1:], b, -np.inf)
    xs_rows = _batch_rows(np.add(x[1:], s, out=x[1:]), b, -np.inf)
    del d, x  # no lag reads them again: free them before the sort
    f_rows = _batch_rows(np.asarray(f.eval(s), dtype=float), b, 0.0)
    del s
    _sort_by_x(x_rows, xs_rows, f_rows)
    lags = np.asarray(lags, dtype=float)
    lag = lags[:, None]
    # per row and lag, the column of the first job that waits: every job past it waits
    firsts = np.array([np.searchsorted(row, lags, side="right") for row in x_rows])
    tail_x = np.take_along_axis(_suffix_sums(x_rows), firsts, axis=1).T
    busy_count = x_rows.shape[1] - firsts.T
    edge = wait_step(x_edge, lag, 0.0)
    spans = (d_sums + lag * counts + (tail_x - lag * busy_count)
             - edge[:, 1:] + edge[:, :-1])
    # the reward of the jobs that do not wait, summed directly: a lag-free sum
    # less the waiting jobs' f(S) would cancel where waiting costs nearly all
    # of a job's reward. Each branch below adds the reward of the jobs that wait.
    f_batch = np.take_along_axis(_prefix_sums(f_rows), firsts, axis=1).T
    del f_rows
    closed = lags <= _closed_lag_max(f)
    if closed.any():
        c, shifted = _exp_shift(x_rows, xs_rows)
        tail_e = np.take_along_axis(_suffix_sums(f.eval(shifted)), firsts[:, closed], axis=1).T
        del shifted
        f_batch[closed] += np.exp(f.kappa * (lag[closed] - c)) * tail_e
    for i in np.flatnonzero(~closed):
        start = firsts[:, i].min()
        waits = x_rows[:, start:] > lags[i]
        t = np.subtract(xs_rows[:, start:], lags[i], out=np.zeros(waits.shape), where=waits)
        f_batch[i] += np.sum(f.eval(t), axis=1, where=waits)
    ses = _batch_se(f_batch, spans)
    return [(_ratio(fb, sp), float(se)) for fb, sp, se in zip(f_batch, spans, ses)]


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
        return _per_span(f_cum[w:] - f_cum[:-w], a_cum[w:] - a_cum[:-w])
    sel = _select(traj, window)
    return _ratio(f.eval(traj.sojourn[sel]), traj.iat[sel])


def estimate_reward_se(traj: Trajectory, f, window: Window = Window.all()) -> tuple[float, float]:
    """Reward estimate plus a batch-means standard error over 32 batches.

    Contiguous batches absorb the short-range dependence between
    consecutive jobs, so the spread of per-batch ratios is an honest
    error bar for the full-window ratio estimator.
    """
    if window.kind == "sliding":
        raise ValueError("standard errors are defined for all/last_k windows only")
    sel = _select(traj, window)
    f_vals = np.asarray(f.eval(traj.sojourn[sel]), dtype=float)
    return _ratio_se(f_vals, traj.iat[sel])


def _ratio(f_vals: np.ndarray, iats: np.ndarray) -> float:
    """The renewal-reward ratio sum f / sum IAT, NaN where the jobs span no time."""
    span = float(np.sum(iats))
    return float(np.sum(f_vals)) / span if span > 0 else math.nan


def _ratio_se(f_vals: np.ndarray, iats: np.ndarray) -> tuple[float, float]:
    """sum f / sum IAT, plus its batch-means standard error over 32 contiguous batches."""
    b = min(_BATCHES, len(f_vals))
    return _ratio(f_vals, iats), float(_batch_se(_batch_sums(f_vals, b), _batch_sums(iats, b)))


def _batch_se(f_sums: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The batch-means standard error of sum f / sum IAT from the batch sums of
    f and of the IATs along the last axis: the spread of the batch ratios (NaN
    for a batch that spans no time) over sqrt(batches), inf for one batch."""
    b = spans.shape[-1]
    if b == 1:
        return np.full(spans.shape[:-1], np.inf)
    return np.std(_per_span(f_sums, spans), axis=-1, ddof=1) / math.sqrt(b)


def _per_span(totals, spans) -> np.ndarray:
    """totals / spans elementwise, NaN where a span is not positive (no time passed)."""
    spans = np.asarray(spans, dtype=float)
    return np.divide(totals, spans, out=np.full(spans.shape, np.nan), where=spans > 0)


def _batch_sums(x: np.ndarray, b: int) -> np.ndarray:
    """Sums of the b contiguous chunks of np.array_split(x, b): the first
    len(x) % b chunks are one element longer than the rest."""
    size, longer = divmod(len(x), b)
    cut = longer * (size + 1)
    return np.concatenate((x[:cut].reshape(longer, size + 1).sum(axis=1),
                           x[cut:].reshape(b - longer, size).sum(axis=1)))


def _batch_rows(x: np.ndarray, b: int, pad: float) -> np.ndarray:
    """The chunks of ``_batch_sums`` as the b rows of a 2-D array, each row
    ``len(x) // b + 1`` long: the shorter chunks end in one ``pad`` cell."""
    size, longer = divmod(len(x), b)
    cut = longer * (size + 1)
    rows = np.full((b, size + 1), pad)
    rows[:longer] = x[:cut].reshape(longer, size + 1)
    rows[longer:, :size] = x[cut:].reshape(b - longer, size)
    return rows


# The sorted sample-path layer of ``sweep_lags`` and the gradient learner.
# Job j waits W_j = max(X_j - L, 0) with X_j = S_{j-1} - D_j fixed across
# lags, so in a row sorted by X the jobs that wait at lag L are those from the
# first column with X > L on: prefix sums read there sum the jobs that do not
# wait, suffix sums the jobs that wait. A cell with X = -inf (no job before
# it, or no job) sorts first and never waits. For f(t) = e^(-kappa t) a job
# that waits earns f(W + S) = e^(kappa (L - c)) f(X + S - c); past
# _closed_lag_max(f) a reader evaluates f(X + S - L) on the waiting jobs.


def _sort_by_x(x: np.ndarray, *rows: np.ndarray) -> None:
    """Sort each row of the 2-D array x in place, and permute ``rows`` alike."""
    order = np.argsort(x, axis=1)
    order += np.arange(0, order.size, order.shape[1])[:, None]  # flat indices
    for a in (x, *rows):
        a[...] = np.take(a, order)


def _prefix_sums(rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Column k holds the sum of each row's cells left of column k: one more
    column than ``rows``, the first 0. Written into ``out`` when given."""
    out = np.empty((rows.shape[0], rows.shape[1] + 1)) if out is None else out
    out[:, 0] = 0.0
    np.cumsum(rows, axis=1, out=out[:, 1:])
    return out


def _suffix_sums(rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Column k holds the sum of each row's cells from column k on: one more
    column than ``rows``, the last 0. Written into ``out`` when given."""
    out = np.empty((rows.shape[0], rows.shape[1] + 1)) if out is None else out
    out[:, -1] = 0.0
    np.cumsum(rows[:, ::-1], axis=1, out=out[:, -2::-1])
    return out


def _exp_shift(x: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the shift c, the least X + S of a job with X > 0 (0 in a row
    with none), which keeps f(X + S - c) from underflowing where f(W + S)
    does not, and the shifted row: X + S - c at those jobs, 0 at the others,
    which no read reaches (exp of 0 stays on numpy's fast path, of -inf not)."""
    busy = x > 0.0
    c = np.min(xs, axis=1, where=busy, initial=np.inf)
    c[c == np.inf] = 0.0
    shifted = xs - c[:, None]
    np.putmask(shifted, ~busy, 0.0)
    return c, shifted


def _closed_lag_max(f) -> float:
    """The largest lag of the exponential branch; -inf, so none, for another reward."""
    return _EXP_LAG_MAX / f.kappa if isinstance(f, ExponentialReward) else -math.inf
