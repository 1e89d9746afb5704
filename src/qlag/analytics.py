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

import numpy as np
import scipy

from .distributions import (
    RULE_TAIL_EPS,
    Deterministic,
    DistributionSpec,
    Exponential,
    monte_carlo_draws,
    prob_diff_exceeds,
)
from .reward import ExponentialReward
from .simulator import ParameterError, _check_lag, _per_span

__all__ = [
    "KinkWarning",
    "RewardEstimate",
    "expected_wait",
    "wait_derivative",
    "reward_exact",
    "surrogate_reward",
    "delta_star",
    "monte_carlo_reward",
]


class KinkWarning(UserWarning):
    """S - D has an atom at the requested lag; the derivative is one-sided."""


_ORDERS = (16, 24, 32, 48, 64, 96, 128)  # Gauss-Legendre orders per axis, tried in turn
_TOL = 1e-9       # two successive orders agree within this, relative above 1
_H_ORDER = 64     # service nodes behind the h(w) table
# elements in the kernel's largest temporary arrays: 64 KB blocks keep an
# exact grid from raising the peak resident memory of a simulation run
_BLOCK = 1 << 13


@dataclass(frozen=True)
class RewardEstimate:
    value: float
    std_error: float


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ParameterError(name, f"{name} must be finite and positive, got {value}")


def _exact_waits(service, delay, lags) -> np.ndarray:
    """E[W] at every lag."""
    return _terms(service, delay, lags)[1]


def expected_wait(service: DistributionSpec, delay: DistributionSpec, lag: float) -> float:
    """E[max(S - D - lag, 0)], the stationary waiting time at the given lag:
    the closed form where the laws have one, else quadrature to within 1e-9."""
    _check_lag(lag)
    return float(_exact_waits(service, delay, [lag])[0])


def wait_derivative(service: DistributionSpec, delay: DistributionSpec, lag: float) -> float:
    """d E[W] / d lag = -P(S - D > lag)."""
    _check_lag(lag)
    if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
        if abs(service.value - delay.value - lag) <= 1e-12:
            warnings.warn(
                "S - D places an atom exactly at the lag; E[W] is not "
                "differentiable there and the reported value is one-sided",
                KinkWarning,
                stacklevel=2,
            )
    return -prob_diff_exceeds(service, delay, lag)


def _reward_after_wait(service: DistributionSpec, f):
    """h(w) = E_S[f(w + S)] as a fast callable on arrays of waits.

    Exact for the exponential family (h factorizes through the MGF) and for
    a point-mass service; otherwise tabulated by Gauss-Legendre quadrature
    over S with cubic interpolation in w: 2048 knots up to the service's
    0.999 quantile, where h bends most, and 256 more up to its
    1 - RULE_TAIL_EPS quantile, the largest wait the kernel asks for: it
    cuts S_prev there, and lag + D >= 0.
    """
    try:
        return _reward_after_wait_cached(service, f)
    except TypeError:  # duck-typed unhashable reward objects skip the cache
        return _build_reward_after_wait(service, f)


@lru_cache(maxsize=64)
def _reward_after_wait_cached(service: DistributionSpec, f):
    return _build_reward_after_wait(service, f)


def _build_reward_after_wait(service: DistributionSpec, f):
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
    return scipy.interpolate.CubicSpline(w_grid, quad_h(w_grid))


def _wait_terms(service, delay, lags, h=None) -> np.ndarray:
    """Rows P(W = 0), E[W] and, given h, E[h(W) 1{W > 0}] at every lag, for
    W = max(S_prev - lag - D, 0).

    One tensor Gauss-Legendre rule over (D, S_prev). The outer rule cuts
    D's support where lag + D crosses the ends of S_prev's support (the
    inner integrals have kinks there); the inner rule runs over S_prev
    above lag + D, so every integrand is smooth on its piece. The order
    steps through _ORDERS until two successive orders agree within _TOL
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
            terms[0, i:i + step] = (wd * service.cdf(y)).sum(-1)
            terms[1, i:i + step] = (wd * (ws * excess).sum(-1)).sum(-1)
            if h is not None:
                terms[2, i:i + step] = (wd * (ws * h(excess)).sum(-1)).sum(-1)
        if previous is not None and np.all(
            np.abs(terms - previous) <= _TOL * np.maximum(1.0, np.abs(terms))
        ):
            return terms
        previous = terms
    warnings.warn(
        f"the Gauss-Legendre rule has not settled within {_TOL:g} by order "
        f"{_ORDERS[-1]}; returning that order's value",
        scipy.integrate.IntegrationWarning,
        stacklevel=3,
    )
    return terms


def _closed_terms(service, delay, f, lags) -> np.ndarray | None:
    """The rows of _wait_terms (the third one given f) in closed form, or
    None when the laws have none.

    Two point masses have all three rows for any reward. Exponential service
    has the first two for any delay: its overshoot past lag + D is again
    exponential, so E[W] = P(W > 0) / rate. For an exponential reward that
    overshoot also gives the third: W given W > 0 is distributed as S, and
    h(w) = M_S(-kappa) e^(-kappa w), so the row is P(W > 0) M_S(-kappa)^2.
    The first row is P(W = 0) = 1 - P(W > 0).
    """
    lags = np.asarray(lags, dtype=float)
    if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
        waits = np.maximum(service.value - delay.value - lags, 0.0)
        busy = (waits > 0.0).astype(float)
        rows = [1.0 - busy, waits]
        if f is not None:
            rows.append(busy * f.eval(waits + service.value))
    elif isinstance(service, Exponential) and (f is None or isinstance(f, ExponentialReward)):
        # one scalar call per lag, so that reward_exact(lag) is the grid's entry bit for bit
        busy = np.array([prob_diff_exceeds(service, delay, lag) for lag in lags])
        rows = [1.0 - busy, busy / service.rate]
        if f is not None:
            rows.append(busy * service.mgf(-f.kappa) ** 2)
    else:
        return None
    return np.array(rows)


def _terms(service, delay, lags, f=None) -> np.ndarray:
    """The rows of _wait_terms at every lag, the third one given f: the
    closed form where the laws have one, else one kernel call for the grid."""
    closed = _closed_terms(service, delay, f, lags)
    if closed is not None:
        return closed
    return _wait_terms(service, delay, lags, None if f is None else _reward_after_wait(service, f))


def _exact_rewards(service, delay, f, lags) -> np.ndarray:
    """G at every lag from the rows of _terms: a job does not wait with
    probability P(W = 0) and scores h(0) = E[f(S)] then, else E[h(W) 1{W > 0}].

    P(W = 0) comes from the integrand F_S(lag + D), not as 1 - P(W > 0):
    where nearly every job waits, that difference would cancel to rounding
    and swamp a G far below h(0)."""
    lags = np.asarray(lags, dtype=float)
    p_idle, ew, tail = _terms(service, delay, lags, f)
    numer = p_idle * _reward_after_wait(service, f)(np.zeros(1)) + tail
    return _per_span(numer, lags + delay.mean + ew)


def reward_exact(service: DistributionSpec, delay: DistributionSpec, f, lag: float) -> float:
    """G = E[f(W + S)] / (lag + E[D] + E[W]) at the given lag: the closed
    form where the laws have one, else quadrature to within 1e-9.

    W = max(S_prev - lag - D, 0) with S_prev distributed as S and
    independent of the served job's own S.
    """
    _check_lag(lag)
    return float(_exact_rewards(service, delay, f, [lag])[0])


def monte_carlo_reward(
    service: DistributionSpec,
    delay: DistributionSpec,
    f,
    lag: float,
    n: int,
    seed: int = 0,
) -> RewardEstimate:
    """Monte-Carlo estimate of the exact reward with a batch-means error bar."""
    _check_lag(lag)
    if n < 2:
        raise ParameterError("n", f"Monte-Carlo estimates need at least 2 samples, got {n}")
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
    service: DistributionSpec, delay: DistributionSpec, kappa: float, lag: float
) -> float:
    """Jensen upper bound on the exponential-reward G:

    M_S(-kappa) * min(M_S(-kappa) * e^(kappa*lag) * M_D(kappa), 1)
    over (lag + E[D] + E[W](lag)).

    Raises DivergentMGFError when the delay's MGF at kappa does not exist.
    """
    _check_positive("kappa", kappa)
    _check_lag(lag)
    return float(_surrogate_rewards(service, delay, kappa, [lag])[0])


def _surrogate_rewards(service, delay, kappa: float, lags) -> np.ndarray:
    """surrogate_reward at every lag (kappa already checked), with one E[W]
    column for the grid."""
    lags = np.asarray(lags, dtype=float)
    ms = service.mgf(-kappa)
    md = delay.mgf(kappa)
    ew = _exact_waits(service, delay, lags)
    numer = ms * np.minimum(ms * np.exp(kappa * lags) * md, 1.0)
    return _per_span(numer, lags + delay.mean + ew)


def delta_star(service: DistributionSpec, delay: DistributionSpec, kappa: float) -> float:
    """Smallest lag at which M_S(-kappa) * e^(kappa*lag) * M_D(kappa) hits 1.

    Zero when the product already reaches 1 at zero lag (including exactly
    at the boundary, taking the continuous limit). A product that underflows
    to 0 raises a ParameterError naming ``kappa``.
    """
    _check_positive("kappa", kappa)
    product = service.mgf(-kappa) * delay.mgf(kappa)
    if product >= 1.0:
        return 0.0
    if product == 0.0:
        raise ParameterError(
            "kappa", f"M_S(-kappa) * M_D(kappa) underflows to 0 at kappa = {kappa}"
        )
    return math.log(1.0 / product) / kappa
