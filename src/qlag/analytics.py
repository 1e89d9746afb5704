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


@dataclass(frozen=True)
class RewardEstimate:
    value: float
    std_error: float


def _upper_partial_expectation(spec: DistributionSpec, y: float, tol: float) -> float:
    """E[(X - y)^+]."""
    if isinstance(spec, Deterministic):
        return max(spec.value - y, 0.0)
    if isinstance(spec, Exponential):
        if y <= 0:
            return spec.mean - y
        return spec.mean * math.exp(-y / spec.mean)
    if isinstance(spec, Uniform):
        if y <= spec.lower:
            return spec.mean - y
        if y >= spec.upper:
            return 0.0
        return (spec.upper - y) ** 2 / (2.0 * (spec.upper - spec.lower))
    lo, hi = spec.support()
    if y >= hi:
        return 0.0
    head = max(lo - y, 0.0)
    val, _ = integrate.quad(
        lambda u: float(spec.sf(u)), max(y, lo), hi, epsabs=tol, epsrel=tol, limit=200
    )
    return head + val


def _check_kappa(kappa: float) -> None:
    if not 0 < kappa < math.inf:
        raise ParameterError("kappa", f"kappa must be finite and positive, got {kappa}")


def _closed_form_or_numeric(fn, *args, tol: float = 1e-9) -> float:
    """fn(*args, ClosedForm()), or fn(*args, NumericIntegration(tol)) where
    fn has no closed form for the arguments."""
    try:
        return fn(*args, ClosedForm())
    except ClosedFormUnavailableError:
        return fn(*args, NumericIntegration(tol))


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
    tol = method.tol
    s_lo, s_hi = service.support()
    return delay.expect(
        lambda t: _upper_partial_expectation(service, lag + t, tol),
        tol,
        breaks=(s_lo - lag, s_hi - lag),
    )


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


def _tail_kernel_exp(service: DistributionSpec, kappa: float, y: float, tol: float) -> float:
    """E[exp(-kappa * (S - y)) * 1{S > y}] for y >= 0."""
    if isinstance(service, Deterministic):
        return math.exp(-kappa * (service.value - y)) if service.value > y else 0.0
    if isinstance(service, Exponential):
        lam = service.rate
        return lam * math.exp(-lam * max(y, 0.0)) / (lam + kappa)
    if isinstance(service, Uniform):
        lo, hi = service.lower, service.upper
        if y >= hi:
            return 0.0
        m = max(y, lo)
        return (math.exp(-kappa * (m - y)) - math.exp(-kappa * (hi - y))) / (
            kappa * (hi - lo)
        )
    lo, hi = service.support()
    if y >= hi:
        return 0.0
    val, _ = integrate.quad(
        lambda s: math.exp(-kappa * (s - y)) * float(service.pdf(s)),
        max(y, lo),
        hi,
        epsabs=tol,
        epsrel=tol,
        limit=200,
    )
    return val


def _reward_after_wait(service: DistributionSpec, f, tol: float):
    """h(w) = E_S[f(w + S)] as a fast callable.

    Exact for the exponential family (h factorizes through the MGF) and for
    a point-mass service; otherwise tabulated by Gauss-Legendre quadrature
    on a 2048-point wait grid with cubic interpolation, evaluating exactly
    beyond the grid span.
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
        return lambda w: ms * float(f.eval(w))
    if isinstance(service, Deterministic):
        value = service.value
        return lambda w: float(f.eval(w + value))

    lo, hi = service.support()
    hi = min(hi, service.upper_quantile())
    nodes, weights = np.polynomial.legendre.leggauss(400)
    s_nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    s_weights = 0.5 * (hi - lo) * weights * np.asarray(service.pdf(s_nodes), dtype=float)

    w_max = service.ppf(0.999)
    w_grid = np.linspace(0.0, w_max, 2048)
    h_vals = (np.asarray(f.eval(w_grid[:, None] + s_nodes[None, :])) * s_weights).sum(axis=1)
    spline = CubicSpline(w_grid, h_vals)

    def h(w: float) -> float:
        if w <= w_max:
            return float(spline(w))
        return float((np.asarray(f.eval(w + s_nodes)) * s_weights).sum())

    return h


def _reward_numerator_numeric(service, delay, f, lag, tol):
    """E[f(W + S)] with W = max(S_prev - lag - D, 0)."""
    if isinstance(f, ExponentialReward):
        kappa = f.kappa
        p_bar = prob_diff_exceeds(service, delay, lag)
        s_lo, s_hi = service.support()
        tail = delay.expect(
            lambda t: _tail_kernel_exp(service, kappa, lag + t, tol),
            tol,
            breaks=(s_lo - lag, s_hi - lag),
        )
        mw = (1.0 - p_bar) + tail
        return service.mgf(-kappa) * mw

    h = _reward_after_wait(service, f, tol)
    if isinstance(service, Deterministic):
        s0 = service.value
        return delay.expect(
            lambda t: float(f.eval(max(s0 - lag - t, 0.0) + s0)),
            tol,
            breaks=(s0 - lag,),
        )

    p_bar = prob_diff_exceeds(service, delay, lag)
    s_lo, s_hi = service.support()
    s_hi_t = min(s_hi, service.upper_quantile())

    def tail_inner(y: float) -> float:
        if y >= s_hi_t:
            return 0.0
        val, _ = integrate.quad(
            lambda s: h(s - y) * float(service.pdf(s)),
            max(y, s_lo),
            s_hi_t,
            epsabs=tol,
            epsrel=tol,
            limit=200,
        )
        return val

    tail = delay.expect(
        lambda t: tail_inner(lag + t),
        tol,
        breaks=(s_lo - lag, s_hi - lag),
    )
    return (1.0 - p_bar) * h(0.0) + tail


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
    tol = method.tol
    numer = _reward_numerator_numeric(service, delay, f, lag, tol)
    denom = lag + delay.mean + expected_wait(service, delay, lag, NumericIntegration(tol))
    return numer / denom


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
    ms = service.mgf(-kappa)
    md = delay.mgf(kappa)
    ew = _closed_form_or_numeric(expected_wait, service, delay, lag, tol=tol)
    numer = ms * min(ms * math.exp(kappa * lag) * md, 1.0)
    return numer / (lag + delay.mean + ew)


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
