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
from functools import partial

import numpy as np
import scipy

from .distributions import (
    RULE_TAIL_EPS,
    Deterministic,
    DistributionSpec,
    Exponential,
    _expect_copies,
    _settled,
    monte_carlo_draws,
    prob_diff_exceeds,
)
from .reward import ExponentialReward
from .simulator import ParameterError, _check_lag, _job_count, _per_span

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
    return _terms(service, delay, lags)[0]


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
    over S, its order settled as the kernel's is, with cubic interpolation
    in w: 2048 knots up to the service's 0.999 quantile, where h bends most,
    and 256 more up to its 1 - RULE_TAIL_EPS quantile, the largest wait the
    kernel asks for: it cuts S_prev there, and lag + D >= 0.
    """
    if isinstance(f, ExponentialReward):
        ms = service.mgf(-f.kappa)
        return lambda w: ms * f.eval(w)
    if isinstance(service, Deterministic):
        value = service.value
        return lambda w: f.eval(w + value)

    w_mid = service.ppf(0.999)
    w_max = service.upper_quantile(RULE_TAIL_EPS)
    w_grid = np.concatenate((np.linspace(0.0, w_mid, 2048), np.linspace(w_mid, w_max, 257)[1:]))

    def h_at(order):
        s_nodes, s_weights = service.gauss_rule(order)
        rows = _BLOCK // len(s_nodes)
        out = np.empty(len(w_grid))
        for i in range(0, len(w_grid), rows):  # one (rows x nodes) block at a time
            out[i:i + rows] = (f.eval(w_grid[i:i + rows, None] + s_nodes) * s_weights).sum(axis=1)
        return out

    return scipy.interpolate.CubicSpline(w_grid, _settled(h_at))


def _wait_terms(service, delay, lags, h=None) -> np.ndarray:
    """Rows E[W] and, given h, E[h(W)] at every lag, for
    W = max(S_prev - lag - D, 0).

    One tensor Gauss-Legendre rule over (D, S_prev). The outer rule cuts
    D's support where lag + D crosses the ends of S_prev's support (the
    inner integrals have kinks there); the inner rule runs over S_prev
    above lag + D, so every integrand is smooth on its piece, and the jobs
    that do not wait add F_S(lag + D) h(0) to the outer integrand: P(W = 0)
    is never taken as 1 - P(W > 0), a difference that would cancel to
    rounding where nearly every job waits. _settled settles the order. Lags
    go through in blocks that keep every temporary array near _BLOCK
    elements.
    """
    lags = np.asarray(lags, dtype=float)
    s_lo, s_hi = service.support()
    s_hi = min(s_hi, service.upper_quantile(RULE_TAIL_EPS))
    h0 = None if h is None else h(np.zeros(1))[0]

    def terms_at(order):
        terms = np.empty((1 if h is None else 2, len(lags)))
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
            terms[0, i:i + step] = (wd * (ws * excess).sum(-1)).sum(-1)
            if h is not None:
                terms[1, i:i + step] = (
                    wd * (service.cdf(y) * h0 + (ws * h(excess)).sum(-1))
                ).sum(-1)
        return terms

    return _settled(terms_at)


def _closed_terms(service, delay, f, lags) -> np.ndarray | None:
    """The rows of _wait_terms (the second one given f) in closed form, or
    None when the laws have none.

    Two point masses have both rows for any reward: W is a point mass too.
    Exponential service has both for any delay and reward: its overshoot
    past lag + D is again exponential, so E[W] = P(W > 0) / rate, and W
    given W > 0 is distributed as S, so E[h(W)] = (1 - p) E[f(S)] +
    p E[f(S + S')] with p = P(W > 0). An exponential reward takes the two
    moments from the MGF, M_S(-kappa) and M_S(-kappa)^2.
    """
    lags = np.asarray(lags, dtype=float)
    if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
        waits = np.maximum(service.value - delay.value - lags, 0.0)
        rows = [waits]
        if f is not None:
            rows.append(f.eval(waits + service.value))
    elif isinstance(service, Exponential):
        # one scalar call per lag, so that reward_exact(lag) is the grid's entry bit for bit
        busy = np.array([prob_diff_exceeds(service, delay, lag) for lag in lags])
        rows = [busy / service.rate]
        if isinstance(f, ExponentialReward):
            ms = service.mgf(-f.kappa)
            rows.append((1.0 - busy) * ms + busy * ms ** 2)
        elif f is not None:
            rows.append((1.0 - busy) * service.expect(f.eval)
                        + busy * _expect_copies(service, f.eval, 2))
    else:
        return None
    return np.array(rows)


def _terms(service, delay, lags, f=None) -> np.ndarray:
    """The rows of _wait_terms at every lag, the second one given f: the
    closed form where the laws have one, else one kernel call for the grid,
    with one h table."""
    closed = _closed_terms(service, delay, f, lags)
    if closed is not None:
        return closed
    return _wait_terms(service, delay, lags, None if f is None else _reward_after_wait(service, f))


def _exact_rewards(service, delay, f, lags) -> np.ndarray:
    """G = E[h(W)] / (lag + E[D] + E[W]) at every lag, from the rows of _terms."""
    lags = np.asarray(lags, dtype=float)
    ew, numer = _terms(service, delay, lags, f)
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
    n = _job_count(n, "n", partial(ParameterError, "n"), 2)
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
