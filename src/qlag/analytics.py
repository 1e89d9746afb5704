"""Analytic and semi-analytic evaluation of the lag policy's reward.

Everything here reduces to moments, tail probabilities and low-dimensional
quadrature, independent of the trajectory simulator, so this module doubles
as the oracle the simulated estimates are checked against. The evaluated
quantities: E[W] and its lag-derivative, the exact per-unit-time reward
G = E[f(W+S)] / (lag + E[D] + E[W]), the MGF-based surrogate upper bound,
and the lag at which the surrogate's MGF product saturates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .distributions import (
    RULE_TAIL_EPS,
    Deterministic,
    DistributionSpec,
    Exponential,
    Uniform,
    monte_carlo_draws,
    prob_diff_exceeds,
)
from .reward import ExponentialReward
from .simulator import ParameterError

__all__ = [
    "ClosedForm",
    "NumericIntegration",
    "MonteCarlo",
    "EvalMethod",
    "ClosedFormUnavailableError",
    "KinkWarning",
    "RewardEstimate",
    "expected_wait",
    "wait_derivative",
    "reward_exact",
    "surrogate_reward",
    "delta_star",
    "monte_carlo_wait",
    "monte_carlo_reward",
]


@dataclass(frozen=True)
class ClosedForm:
    pass


@dataclass(frozen=True)
class NumericIntegration:
    tol: float = 1e-9

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class MonteCarlo:
    n: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n < 10_000:
            raise ValueError("Monte-Carlo evaluation needs at least 1e4 samples")


EvalMethod = Union[ClosedForm, NumericIntegration, MonteCarlo]


class ClosedFormUnavailableError(ValueError):
    """No closed form is implemented for the requested pair of laws."""


class KinkWarning(UserWarning):
    """S - D has an atom at the requested lag; the derivative is one-sided."""


_ORDERS = (16, 24, 32, 48, 64, 96, 128)  # Gauss-Legendre orders per axis, tried in turn
_H_ORDER = 64     # service nodes behind the h(w) table
# elements in the kernel's largest temporary arrays: 64 KB blocks keep an
# exact grid from raising the peak resident memory of a simulation run
_BLOCK = 1 << 13


@dataclass(frozen=True)
class RewardEstimate:
    value: float
    std_error: float


def _check_kappa(kappa: float) -> None:
    if not 0 < kappa < math.inf:
        raise ParameterError("kappa", f"kappa must be finite and positive, got {kappa}")


def _closed_form_or_numeric(fn, kernel, *args, lags, tol: float = 1e-9) -> np.ndarray:
    """fn(*args, lag, ClosedForm()) at every lag, or else kernel(*args, lags,
    tol), the numeric value of the whole grid at once.

    Whether a closed form exists depends on the laws alone, so the first
    lag decides: fn raising ClosedFormUnavailableError there selects the
    kernel.
    """
    try:
        return np.array([fn(*args, lag, ClosedForm()) for lag in lags], dtype=float)
    except ClosedFormUnavailableError:
        return kernel(*args, np.asarray(lags, dtype=float), tol)


def expected_wait(
    service: DistributionSpec,
    delay: DistributionSpec,
    lag: float,
    method: EvalMethod = NumericIntegration(),
) -> float:
    """E[max(S - D - lag, 0)], the stationary waiting time at the given lag."""
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    if isinstance(method, ClosedForm):
        if isinstance(service, Exponential) and isinstance(delay, Exponential):
            lam_s, lam_d = service.rate, delay.rate
            return lam_d / (lam_s + lam_d) * math.exp(-lam_s * lag) / lam_s
        if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
            return max(service.value - delay.value - lag, 0.0)
        raise ClosedFormUnavailableError(
            f"no closed-form E[W] for {type(service).__name__}/{type(delay).__name__}"
        )
    if isinstance(method, MonteCarlo):
        return monte_carlo_wait(service, delay, lag, method.n, method.seed)[0]
    return float(_numeric_waits(service, delay, [lag], method.tol)[0])


def monte_carlo_wait(
    service: DistributionSpec,
    delay: DistributionSpec,
    lag: float,
    n: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo (E[W] estimate, standard error)."""
    total = 0.0
    total_sq = 0.0
    for s, d in monte_carlo_draws(seed, {"mc-wait-service": service, "mc-wait-delay": delay}, n):
        w = np.maximum(s - d - lag, 0.0)
        total += float(w.sum())
        total_sq += float(np.square(w).sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def wait_derivative(service: DistributionSpec, delay: DistributionSpec, lag: float) -> float:
    """d E[W] / d lag = -P(S - D > lag)."""
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
        if abs(service.value - delay.value - lag) <= 1e-12:
            warnings.warn(
                "S - D places an atom exactly at the lag; E[W] is not "
                "differentiable there and the reported value is one-sided",
                KinkWarning,
                stacklevel=2,
            )
    return -prob_diff_exceeds(service, delay, lag)


def _reward_after_wait(service: DistributionSpec, f, tol: float):
    """h(w) = E_S[f(w + S)] as a fast callable on arrays of waits.

    Exact for the exponential family (h factorizes through the MGF) and for
    a point-mass service; otherwise tabulated by Gauss-Legendre quadrature
    over S with cubic interpolation in w: 2048 knots up to the service's
    0.999 quantile, where h bends most, and 256 more up to its
    1 - RULE_TAIL_EPS quantile, the largest wait the kernel asks for.
    Beyond that, h is the same quadrature, evaluated in blocks of rows.
    """
    try:
        return _reward_after_wait_cached(service, f, tol)
    except TypeError:  # duck-typed unhashable reward objects skip the cache
        return _build_reward_after_wait(service, f, tol)


@lru_cache(maxsize=64)
def _reward_after_wait_cached(service: DistributionSpec, f, tol: float):
    return _build_reward_after_wait(service, f, tol)


def _build_reward_after_wait(service: DistributionSpec, f, tol: float):
    if isinstance(f, ExponentialReward):
        ms = service.mgf(-f.kappa)
        return lambda w: ms * f.eval(w)
    if isinstance(service, Deterministic):
        value = service.value
        return lambda w: f.eval(w + value)

    s_nodes, s_weights = service.gauss_rule(_H_ORDER)
    rows = _BLOCK // _H_ORDER

    def quad_h(w: np.ndarray) -> np.ndarray:
        out = np.empty(len(w))
        for i in range(0, len(w), rows):  # one (rows x nodes) block at a time
            out[i:i + rows] = (f.eval(w[i:i + rows, None] + s_nodes) * s_weights).sum(axis=1)
        return out

    w_mid = service.ppf(0.999)
    w_max = service.upper_quantile(RULE_TAIL_EPS)
    w_grid = np.concatenate((np.linspace(0.0, w_mid, 2048), np.linspace(w_mid, w_max, 257)[1:]))
    spline = CubicSpline(w_grid, quad_h(w_grid))

    def h(w):
        w = np.asarray(w, dtype=float)
        out = spline(w)
        far = w > w_max
        if far.any():
            out[far] = quad_h(w[far])
        return out

    return h


def _wait_terms(service, delay, lags, tol, h=None) -> np.ndarray:
    """Rows P(W > 0), E[W] and, given h, E[h(W) 1{W > 0}] at every lag, for
    W = max(S_prev - lag - D, 0).

    One tensor Gauss-Legendre rule over (D, S_prev). The outer rule cuts
    D's support where lag + D crosses the ends of S_prev's support (the
    inner integrals have kinks there); the inner rule runs over S_prev
    above lag + D, so every integrand is smooth on its piece. The order
    steps through _ORDERS until two successive orders agree within tol
    (relative above 1); past the last order the result is returned with an
    IntegrationWarning. Lags go through in blocks that keep every
    temporary array near _BLOCK elements.
    """
    lags = np.asarray(lags, dtype=float)
    s_lo, s_hi = service.support()
    s_hi = min(s_hi, service.upper_quantile(RULE_TAIL_EPS))
    previous = None
    for order in _ORDERS:
        terms = np.empty((2 if h is None else 3, len(lags)))
        # (outer nodes x inner nodes) per lag, from the rules' sizes at one lag
        per_lag = (delay.gauss_rule(order, breaks=(s_lo, s_hi))[0].shape[-1]
                   * service.gauss_rule(order)[0].shape[-1])
        step = max(1, _BLOCK // per_lag)
        for i in range(0, len(lags), step):
            lag = lags[i:i + step]
            d, wd = delay.gauss_rule(order, breaks=(s_lo - lag, s_hi - lag))
            y = lag[:, None] + d
            s, ws = service.gauss_rule(order, above=y)
            excess = np.maximum(s - y[..., None], 0.0)  # zero where the weight is
            terms[0, i:i + step] = (wd * service.sf(y)).sum(-1)
            terms[1, i:i + step] = (wd * (ws * excess).sum(-1)).sum(-1)
            if h is not None:
                terms[2, i:i + step] = (wd * (ws * h(excess)).sum(-1)).sum(-1)
        if previous is not None and np.all(
            np.abs(terms - previous) <= tol * np.maximum(1.0, np.abs(terms))
        ):
            return terms
        previous = terms
    warnings.warn(
        f"the Gauss-Legendre rule has not settled within {tol:g} by order "
        f"{_ORDERS[-1]}; returning that order's value",
        integrate.IntegrationWarning,
        stacklevel=3,
    )
    return terms


def _numeric_waits(service, delay, lags, tol) -> np.ndarray:
    """E[W] at every lag, from one kernel call."""
    return _wait_terms(service, delay, lags, tol)[1]


def _numeric_rewards(service, delay, f, lags, tol) -> np.ndarray:
    """G at every lag, from one kernel call."""
    lags = np.asarray(lags, dtype=float)
    h = _reward_after_wait(service, f, tol)
    p_busy, ew, tail = _wait_terms(service, delay, lags, tol, h)
    numer = (1.0 - p_busy) * h(np.zeros(1)) + tail
    return numer / (lags + delay.mean + ew)


def reward_exact(
    service: DistributionSpec,
    delay: DistributionSpec,
    f,
    lag: float,
    method: EvalMethod = NumericIntegration(),
) -> float:
    """G = E[f(W + S)] / (lag + E[D] + E[W]) at the given lag.

    W = max(S_prev - lag - D, 0) with S_prev distributed as S and
    independent of the served job's own S.
    """
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    if isinstance(method, MonteCarlo):
        return monte_carlo_reward(service, delay, f, lag, method.n, method.seed).value
    if isinstance(method, ClosedForm):
        if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
            w = max(service.value - lag - delay.value, 0.0)
            return float(f.eval(w + service.value)) / (lag + delay.value + w)
        if (
            isinstance(f, ExponentialReward)
            and isinstance(service, Exponential)
            and isinstance(delay, (Exponential, Uniform, Deterministic))
        ):
            lam_s = service.rate
            kappa = f.kappa
            # memoryless service: the overshoot of S_prev past lag + D is
            # again exponential, so both E[W] and M_W(-kappa) close up
            p_bar = math.exp(-lam_s * lag) * delay.mgf(-lam_s)
            mw = 1.0 - p_bar * kappa / (lam_s + kappa)
            ew = p_bar / lam_s
            return service.mgf(-kappa) * mw / (lag + delay.mean + ew)
        raise ClosedFormUnavailableError(
            f"no closed-form reward for {type(service).__name__}/"
            f"{type(delay).__name__} with {type(f).__name__}"
        )
    return float(_numeric_rewards(service, delay, f, [lag], method.tol)[0])


def monte_carlo_reward(
    service: DistributionSpec,
    delay: DistributionSpec,
    f,
    lag: float,
    n: int,
    seed: int = 0,
) -> RewardEstimate:
    """Monte-Carlo estimate of the exact reward with a batch-means error bar."""
    batches = min(100, max(2, n // 100))
    f_sums = np.empty(batches)
    w_sums = np.empty(batches)
    counts = np.empty(batches)
    laws = {
        "mc-reward-prev-service": service, "mc-reward-delay": delay, "mc-reward-service": service,
    }
    for i, (s_prev, d, s) in enumerate(monte_carlo_draws(seed, laws, n, batches)):
        w = np.maximum(s_prev - lag - d, 0.0)
        f_sums[i] = float(np.sum(f.eval(w + s)))
        w_sums[i] = float(w.sum())
        counts[i] = len(s)
    ed = delay.mean
    value = f_sums.sum() / n / (lag + ed + w_sums.sum() / n)
    per_batch = (f_sums / counts) / (lag + ed + w_sums / counts)
    se = float(np.std(per_batch, ddof=1) / math.sqrt(batches))
    return RewardEstimate(value, se)


def surrogate_reward(
    service: DistributionSpec,
    delay: DistributionSpec,
    kappa: float,
    lag: float,
    *,
    tol: float = 1e-9,
) -> float:
    """Jensen upper bound on the exponential-reward G:

    M_S(-kappa) * min(M_S(-kappa) * e^(kappa*lag) * M_D(kappa), 1)
    over (lag + E[D] + E[W](lag)).

    Raises DivergentMGFError when the delay's MGF at kappa does not exist.
    """
    _check_kappa(kappa)
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    return float(_surrogate_rewards(service, delay, kappa, [lag], tol)[0])


def _surrogate_rewards(service, delay, kappa: float, lags, tol: float = 1e-9) -> np.ndarray:
    """surrogate_reward at every lag (kappa already checked), with one E[W]
    column for the grid."""
    lags = np.asarray(lags, dtype=float)
    ms = service.mgf(-kappa)
    md = delay.mgf(kappa)
    ew = _closed_form_or_numeric(
        expected_wait, _numeric_waits, service, delay, lags=lags, tol=tol
    )
    numer = ms * np.minimum(ms * np.exp(kappa * lags) * md, 1.0)
    return numer / (lags + delay.mean + ew)


def delta_star(service: DistributionSpec, delay: DistributionSpec, kappa: float) -> float:
    """Smallest lag at which M_S(-kappa) * e^(kappa*lag) * M_D(kappa) hits 1.

    Zero when the product already reaches 1 at zero lag (including exactly
    at the boundary, taking the continuous limit).
    """
    _check_kappa(kappa)
    product = service.mgf(-kappa) * delay.mgf(kappa)
    if product >= 1.0:
        return 0.0
    return math.log(1.0 / product) / kappa
