"""Parametric laws for service and delay times.

All supports live inside [0, inf): the waiting-time algebra downstream needs
nonnegative draws. Means and MGFs are closed form. So is the cross-law
tail probability P(S - D > x) when either law is a point mass or the
service is exponential; other pairs integrate it adaptively, with a seeded
Monte-Carlo safety net for pairs that integration cannot handle.
"""

from __future__ import annotations

import math
import sys
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, Optional

import numpy as np
import scipy

from .streams import substream

__all__ = [
    "DistributionSpec",
    "Exponential",
    "Uniform",
    "TruncatedNormal",
    "Deterministic",
    "DivergentMGFError",
    "FAMILIES",
    "law_for_family",
    "monte_carlo_draws",
    "prob_diff_exceeds",
]

_QUAD_EPS = 1e-12          # expect's quadrature target
TAIL_EPS = 1e-12           # integrals truncated at the 1 - TAIL_EPS quantile
RULE_TAIL_EPS = 1e-15      # gauss_rule cuts at the 1 - RULE_TAIL_EPS quantile: the mass it
                           # drops moves a first moment by far less than 1e-12
MC_FALLBACK_SAMPLES = 10_000_000
MC_CHUNK = 2_000_000       # Monte-Carlo draws held in memory at once, per law
_MC_FALLBACK_SEED = 0x7A11BACC  # fixed: fallback estimates must stay reproducible


class DivergentMGFError(ValueError):
    """E[exp(a*X)] is infinite, or beyond the float range, at the requested argument."""


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _phi(z: float) -> float:
    """The standard normal CDF at a scalar, from the standard library: a
    law's mass, mean and PDF then load no scipy.special."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class DistributionSpec(ABC):
    """A nonnegative parametric law with seeded sampling and analytic moments.

    Every concrete law exposes a ``mean`` attribute/property, seeded
    ``sample``, an ``mgf`` that raises :class:`DivergentMGFError` where
    E[exp(a*X)] is infinite or overflows a float, and ``with_mean`` which
    rescales (or shifts, for the truncated normal) the law to a target mean
    while preserving its shape.
    """

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the law: a scalar for size=None, else an ndarray."""

    def mgf(self, a: float) -> float:
        """E[exp(a*X)]; DivergentMGFError where it is infinite or overflows."""
        try:
            value = self._mgf(a)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise DivergentMGFError(f"E[exp(a*X)] exceeds the float range for {self} at a={a}")
        return value

    @abstractmethod
    def _mgf(self, a: float) -> float:
        """E[exp(a*X)], raising DivergentMGFError where it is infinite."""

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lower, upper) bounds of the support; upper may be inf."""

    @abstractmethod
    def ppf(self, q: float) -> float:
        """Quantile function."""

    @abstractmethod
    def cdf(self, x):
        """P(X <= x); accepts scalars or arrays."""

    @abstractmethod
    def with_mean(self, target: float) -> "DistributionSpec":
        """Same family and shape, moved to the target mean."""

    def sf(self, x):
        """P(X > x)."""
        return 1.0 - self.cdf(x)

    def pdf(self, x):
        raise NotImplementedError("law has no density")

    def upper_quantile(self, eps: float = TAIL_EPS) -> float:
        return self.ppf(1.0 - eps)

    def expect(self, g) -> float:
        """E[g(X)] by adaptive quadrature over the support, cut at the
        1 - TAIL_EPS quantile."""
        lo, hi = self.support()
        hi = min(hi, self.upper_quantile())
        val, _ = scipy.integrate.quad(
            lambda x: float(g(x)) * float(self.pdf(x)),
            lo,
            hi,
            epsabs=_QUAD_EPS,
            epsrel=_QUAD_EPS,
            limit=300,
        )
        return val

    def gauss_rule(self, order: int, above=-math.inf, breaks=()):
        """Nodes x and weights w, shaped batch + (k,), such that
        (w * g(x)).sum(-1) approximates E[g(X) 1{X > above}].

        An order-point Gauss-Legendre rule on each piece of the support
        above ``above``, cut at the 1 - RULE_TAIL_EPS quantile and at the
        break points; a g that is smooth on every piece is integrated to
        near machine precision. batch is the broadcast shape of ``above``
        and the breaks.
        """
        lo, hi = self.support()
        hi = min(hi, self.upper_quantile(RULE_TAIL_EPS))
        start = np.clip(above, lo, hi)
        edges = np.sort(np.stack(
            np.broadcast_arrays(start, *(np.clip(b, start, hi) for b in breaks), hi), axis=-1
        ), axis=-1)
        a, b = edges[..., :-1, None], edges[..., 1:, None]
        t, v = _legendre(order)
        half = 0.5 * (b - a)
        x = a + half * (1.0 + t)
        w = half * v * self.pdf(x)
        return x.reshape(*x.shape[:-2], -1), w.reshape(*w.shape[:-2], -1)


@lru_cache(maxsize=16)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Newton's method on the three-term recurrence, from the usual cosine
    guesses. numpy's leggauss would solve an eigenproblem instead, and the
    first LAPACK call grows the process's resident memory by about 0.75 MB.
    """
    t = -np.cos(np.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(order), t
        for j in range(2, order + 1):
            p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
        dp = order * (t * p - p_prev) / (t * t - 1.0)
        step = p / dp
        t = t - step
        if np.abs(step).max() <= 1e-15:
            break
    v = 2.0 / ((1.0 - t * t) * dp * dp)
    t.setflags(write=False)
    v.setflags(write=False)
    return t, v


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    """Exponential law parameterized by its mean (rate = 1/mean)."""

    mean: float

    def __post_init__(self):
        if not (self.mean > 0 and math.isfinite(self.mean)):
            raise ValueError(f"exponential mean must be positive, got {self.mean}")

    @property
    def rate(self) -> float:
        return 1.0 / self.mean

    def sample(self, rng, size=None):
        return rng.exponential(self.mean, size)

    def _mgf(self, a):
        if a * self.mean >= 1.0:
            raise DivergentMGFError(
                f"E[exp(a*X)] diverges for exponential(mean={self.mean}) at a={a}"
            )
        return 1.0 / (1.0 - a * self.mean)

    def support(self):
        return (0.0, math.inf)

    def ppf(self, q):
        return -self.mean * math.log1p(-q)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0, 0.0, np.exp(-np.maximum(x, 0.0) / self.mean) / self.mean)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0, 0.0, -np.expm1(-np.maximum(x, 0.0) / self.mean))
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0, 1.0, np.exp(-np.maximum(x, 0.0) / self.mean))
        return out if out.ndim else float(out)

    def with_mean(self, target):
        return Exponential(target)


@dataclass(frozen=True)
class Uniform(DistributionSpec):
    """Uniform law on [lower, upper], lower >= 0."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0 <= self.lower < math.inf:
            raise ValueError(f"uniform lower bound must be finite and >= 0, got {self.lower}")
        if not self.lower < self.upper < math.inf:
            raise ValueError(f"uniform needs lower < upper < inf, got {self.lower}, {self.upper}")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng, size=None):
        return rng.uniform(self.lower, self.upper, size)

    def _mgf(self, a):
        width = self.upper - self.lower
        if a * width == 0.0:  # a = 0, or a*w below the float range: the limit
            return math.exp(a * self.lower)
        # exp(a*l) * (exp(a*w) - 1) / (a*w), stable for small a*w
        return math.exp(a * self.lower) * math.expm1(a * width) / (a * width)

    def support(self):
        return (self.lower, self.upper)

    def ppf(self, q):
        return self.lower + q * (self.upper - self.lower)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lower) & (x <= self.upper)
        out = np.where(inside, 1.0 / (self.upper - self.lower), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lower) / (self.upper - self.lower), 0.0, 1.0)
        return out if out.ndim else float(out)

    def with_mean(self, target):
        if target <= 0:
            raise ValueError("target mean must be positive")
        c = target / self.mean
        return Uniform(self.lower * c, self.upper * c)


@dataclass(frozen=True)
class TruncatedNormal(DistributionSpec):
    """Normal(mu, sigma) conditioned on [lower, upper] with lower >= 0."""

    mu: float
    sigma: float
    lower: float
    upper: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0 <= self.lower < math.inf:
            raise ValueError(f"truncation window must sit in [0, inf), got lower={self.lower}")
        if not self.upper > self.lower:
            raise ValueError(f"truncation needs upper > lower, got [{self.lower}, {self.upper}]")
        if not self._z_mass >= sys.float_info.min:
            # a subnormal mass has lost digits, and the mean and PDF with it
            raise ValueError("truncation window carries no probability mass")

    @cached_property
    def _std_bounds(self) -> tuple[float, float]:
        return ((self.lower - self.mu) / self.sigma, (self.upper - self.mu) / self.sigma)

    @cached_property
    def _sign(self) -> float:
        # -1 reflects a window above mu into the lower tail, where differences
        # of normal CDF levels do not cancel
        return -1.0 if self._std_bounds[0] > 0.0 else 1.0

    @cached_property
    def _z_mass(self) -> float:
        a, b = (self._sign * z for z in self._std_bounds)
        return self._sign * (_phi(b) - _phi(a))

    @property
    def mean(self) -> float:
        a, b = self._std_bounds
        return self.mu + self.sigma * float(_norm_pdf(a) - _norm_pdf(b)) / self._z_mass

    def sample(self, rng, size=None):
        # inverse CDF on the truncated quantile range: robust for any window
        s = self._sign
        a, b = sorted(s * z for z in self._std_bounds)
        u = rng.uniform(float(scipy.special.ndtr(a)), float(scipy.special.ndtr(b)), size)
        x = self.mu + s * self.sigma * scipy.special.ndtri(u)
        return np.clip(x, self.lower, self.upper) if size is not None else float(
            min(max(x, self.lower), self.upper)
        )

    def _mgf(self, a):
        # exp(mu*a + sigma^2 a^2 / 2) * (Phi(beta - sigma*a) - Phi(alpha - sigma*a)) / Z
        # (Johnson, Kotz & Balakrishnan, vol. 1, sec. 10.1), summed in logs so that a
        # large |sigma*a| neither overflows nor underflows; a window above the shifted
        # mean takes its mass from the upper tail, where the difference does not cancel.
        lo, hi = (z - self.sigma * a for z in self._std_bounds)
        upper, lower = (-lo, -hi) if lo > 0.0 else (hi, lo)
        log_upper, log_lower = (float(scipy.special.log_ndtr(z)) for z in (upper, lower))
        log_mass = log_upper + math.log(-math.expm1(log_lower - log_upper))
        return math.exp(a * (self.mu + 0.5 * self.sigma ** 2 * a) + log_mass) / self._z_mass

    def support(self):
        return (self.lower, self.upper)

    def ppf(self, q):
        a, b = self._std_bounds
        fa, fb = float(scipy.special.ndtr(a)), float(scipy.special.ndtr(b))
        z = float(scipy.special.ndtri(fa + q * (fb - fa)))
        if z == math.inf or self._sign < 0:
            # a CDF level that rounded to 1, or a window above mu: solve in the upper tail
            tail_b = float(scipy.special.ndtr(-b))
            upper_tail = (1.0 - q) * (float(scipy.special.ndtr(-a)) - tail_b) + tail_b
            z = -float(scipy.special.ndtri(upper_tail))
        x = self.mu + self.sigma * z
        return min(max(x, self.lower), self.upper)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) / self.sigma
        inside = (x >= self.lower) & (x <= self.upper)
        out = np.where(inside, _norm_pdf(z) / (self.sigma * self._z_mass), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        s = self._sign
        a = s * self._std_bounds[0]
        z = s * ((np.clip(x, self.lower, self.upper) - self.mu) / self.sigma)
        mass = s * (scipy.special.ndtr(z) - scipy.special.ndtr(a)) / self._z_mass
        out = np.where(x < self.lower, 0.0, np.where(x > self.upper, 1.0, mass))
        return out if out.ndim else float(out)

    def with_mean(self, target):
        # shift mu and the window together: the truncated mean shifts by the
        # same amount, so shape (sigma, window width) is preserved exactly
        shift = target - self.mean
        if self.lower + shift < 0:
            raise ValueError(
                f"shifting to mean {target} would push the window below 0"
            )
        return TruncatedNormal(self.mu + shift, self.sigma, self.lower + shift, self.upper + shift)


@dataclass(frozen=True)
class Deterministic(DistributionSpec):
    """Point mass at a nonnegative value."""

    value: float

    def __post_init__(self):
        if not 0 <= self.value < math.inf:
            raise ValueError(f"point mass must be finite and nonnegative, got {self.value}")

    @property
    def mean(self) -> float:
        return self.value

    def expect(self, g) -> float:
        return float(g(self.value))

    def gauss_rule(self, order: int, above=-math.inf, breaks=()):
        shape = np.broadcast_shapes(np.shape(above), *(np.shape(b) for b in breaks))
        x = np.full(shape + (1,), self.value)
        w = np.broadcast_to(self.value > np.asarray(above), shape)[..., None].astype(float)
        return x, w

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=float)

    def _mgf(self, a):
        return math.exp(a * self.value)

    def support(self):
        return (self.value, self.value)

    def ppf(self, q):
        return self.value

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = (x >= self.value).astype(float)
        return out if out.ndim else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = (x < self.value).astype(float)
        return out if out.ndim else float(out)

    def with_mean(self, target):
        return Deterministic(target)


FAMILIES = ("exponential", "uniform", "truncnorm")


def law_for_family(family: str, mean: float) -> DistributionSpec:
    """The law of a named family with the given mean.

    A uniform lives on [0, 2*mean]; a truncated normal has mu = mean and
    sigma = mean/2 on the symmetric window [0, 2*mean], which keeps its
    truncated mean exactly at ``mean``.
    """
    if family == "exponential":
        return Exponential(mean)
    if family == "uniform":
        return Uniform(0.0, 2.0 * mean)
    if family == "truncnorm":
        return TruncatedNormal(mu=mean, sigma=mean / 2.0, lower=0.0, upper=2.0 * mean)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def monte_carlo_draws(
    seed: int,
    laws: Mapping[str, DistributionSpec],
    n: int,
    batches: Optional[int] = None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """n seeded draws from each law, yielded chunk by chunk as one tuple of
    equal-length arrays per chunk, in the mapping's order.

    The law under ``label`` draws from ``substream(seed, label)``. Chunks
    hold MC_CHUNK draws (the last one the rest) or, given ``batches``, split
    n into that many contiguous batches, the first n % batches of them one
    draw longer.
    """
    streams = [(law, substream(seed, label)) for label, law in laws.items()]
    if batches is None:
        sizes = [min(MC_CHUNK, n - done) for done in range(0, n, MC_CHUNK)]
    else:
        sizes = [n // batches + (i < n % batches) for i in range(batches)]
    for m in sizes:
        yield tuple(law.sample(rng, m) for law, rng in streams)


def prob_diff_exceeds(
    service: DistributionSpec,
    delay: DistributionSpec,
    x: float,
) -> float:
    """P(S - D > x) for independent S ~ service, D ~ delay and finite x >= 0.

    Closed form for any pair involving a point mass, and for exponential
    service with any delay: e^(-rate x) M_D(-rate). Otherwise adaptive
    integration of the convolution tail, with a seeded 1e7-sample
    Monte-Carlo fallback if integration fails.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
        return 1.0 if service.value - delay.value > x else 0.0
    if isinstance(delay, Deterministic):
        return float(service.sf(x + delay.value))
    if isinstance(service, Deterministic):
        # P(D < value - x); delay is continuous here, so ties carry no mass
        return float(delay.cdf(service.value - x))
    if isinstance(service, Exponential):
        # memoryless service: S exceeds x + D with probability E[exp(-rate (x + D))]
        lam = service.rate
        return math.exp(-lam * x) * delay.mgf(-lam)

    lo, hi = delay.support()
    hi = min(hi, delay.upper_quantile())
    s_lo, s_hi = service.support()
    breaks = sorted({t for t in (s_lo - x, s_hi - x) if lo < t < hi and math.isfinite(t)})
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
            val, err = scipy.integrate.quad(
                lambda t: float(service.sf(x + t)) * float(delay.pdf(t)),
                lo,
                hi,
                points=breaks or None,
                epsabs=1e-10,
                epsrel=1e-10,
                limit=200,
            )
        if err <= 1e-6:
            return float(min(max(val, 0.0), 1.0))
    except Exception:
        pass
    hits = sum(
        int(np.count_nonzero(s - d > x))
        for s, d in monte_carlo_draws(
            _MC_FALLBACK_SEED,
            {"prob-diff-service": service, "prob-diff-delay": delay},
            MC_FALLBACK_SAMPLES,
        )
    )
    return hits / MC_FALLBACK_SAMPLES
