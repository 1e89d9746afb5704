"""Distribution laws: sampling, moments, MGFs, and the cross-law tail."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri

from qlag import (
    Deterministic,
    DivergentMGFError,
    Exponential,
    ExponentialReward,
    PolynomialReward,
    TruncatedNormal,
    Uniform,
    prob_diff_exceeds,
    substream,
)
from qlag import distributions
from qlag.distributions import FAMILIES, law_for_family

ALL_SPECS = [
    Exponential(1.0),
    Exponential(0.33),
    Uniform(0.0, 2.0),
    Uniform(0.5, 1.5),
    TruncatedNormal(1.0, 0.5, 0.0, 2.0),
    TruncatedNormal(0.33, 0.165, 0.0, 0.66),
    Deterministic(1.0),
]


def test_deterministic_sample_is_point_mass():
    rng = substream(0, "det")
    assert Deterministic(1.0).sample(rng) == 1.0
    assert np.all(Deterministic(0.5).sample(rng, 10) == 0.5)


def test_exponential_empirical_mean():
    draws = Exponential(1.0).sample(substream(7, "exp-mean"), 10**6)
    assert abs(draws.mean() - 1.0) < 0.005


def test_uniform_empirical_mean():
    draws = Uniform(0.0, 2.0).sample(substream(7, "unif-mean"), 10**6)
    assert abs(draws.mean() - 1.0) < 0.005


def test_sampling_reproducible_and_streams_independent():
    a = Exponential(1.0).sample(substream(42, "s"), 1000)
    b = Exponential(1.0).sample(substream(42, "s"), 1000)
    c = Exponential(1.0).sample(substream(42, "other"), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_closed_form_means():
    assert Exponential(0.33).mean == 0.33
    assert Uniform(0.0, 2.0).mean == 1.0
    assert Deterministic(0.7).mean == 0.7
    # symmetric truncation keeps the mean at mu
    assert TruncatedNormal(1.0, 0.5, 0.0, 2.0).mean == pytest.approx(1.0, abs=1e-12)


def test_truncnorm_mean_against_monte_carlo():
    spec = TruncatedNormal(1.0, 0.5, 0.0, 2.0)
    draws = spec.sample(substream(11, "tn-mean"), 10**7)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(spec.mean - draws.mean()) < 3 * se


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_mean_matches_monte_carlo_within_4_se(spec):
    draws = spec.sample(substream(13, "mean-mc", str(spec)), 10**7)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(spec.mean - draws.mean()) <= 4 * se + 1e-15


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_mgf_at_zero_is_one(spec):
    assert spec.mgf(0.0) == pytest.approx(1.0, abs=1e-12)


def test_exponential_mgf_closed_forms():
    assert Exponential(1.0).mgf(-1.0) == pytest.approx(0.5, abs=1e-15)
    assert Exponential(0.33).mgf(1.0) == pytest.approx(1.0 / 0.67, abs=1e-12)


def test_deterministic_mgf():
    assert Deterministic(0.8).mgf(2.0) == pytest.approx(math.exp(1.6), rel=1e-15)


@pytest.mark.parametrize("spec, a", [
    (Uniform(0.0, 2.0), 400.0),
    (Deterministic(10.0), 100.0),
    (TruncatedNormal(1.0, 0.5, 0.0, 2.0), 500.0),
])
def test_mgf_beyond_the_float_range_is_divergent(spec, a):
    with pytest.raises(DivergentMGFError, match="float range"):
        spec.mgf(a)


def test_uniform_mgf_where_a_times_width_underflows():
    # (exp(a*w) - 1) / (a*w) tends to 1: the MGF is exp(a*lower)
    assert Uniform(0.0, 1e-300).mgf(1e-300) == 1.0


@pytest.mark.parametrize("a", [-2.0, -0.3, 0.7, 1.5])
def test_uniform_mgf_against_quadrature(a):
    spec = Uniform(0.5, 1.5)
    oracle, _ = integrate.quad(lambda x: math.exp(a * x) * spec.pdf(x), 0.5, 1.5)
    assert spec.mgf(a) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("a", [-1.5, -0.5, 0.5, 1.0])
def test_truncnorm_mgf_against_closed_form(a):
    # E[exp(aX)] = exp(mu*a + sigma^2 a^2 / 2) * (Phi(b - sigma*a) - Phi(al - sigma*a)) / Z
    spec = TruncatedNormal(1.0, 0.5, 0.0, 2.0)
    al = (spec.lower - spec.mu) / spec.sigma
    b = (spec.upper - spec.mu) / spec.sigma
    z = ndtr(b) - ndtr(al)
    oracle = (
        math.exp(spec.mu * a + 0.5 * spec.sigma**2 * a**2)
        * (ndtr(b - spec.sigma * a) - ndtr(al - spec.sigma * a))
        / z
    )
    assert spec.mgf(a) == pytest.approx(oracle, rel=1e-9)


# windows around, below and (the last four) entirely above mu; the closed form
# takes its mass difference in the upper tail while sigma*a < alpha
MGF_PIN_LAWS = [
    TruncatedNormal(1.0, 0.5, 0.0, 2.0),
    TruncatedNormal(0.33, 0.165, 0.0, 0.66),
    TruncatedNormal(2.0, 1.5, 0.0, 6.0),
    TruncatedNormal(0.5, 0.1, 0.3, 0.55),
    TruncatedNormal(2.5, 0.1, 0.0, 0.5),
    TruncatedNormal(1.0, 0.5, 1.2, 2.5),
    TruncatedNormal(1.0, 0.2, 1.3, 1.6),
    TruncatedNormal(0.2, 0.3, 0.5, 3.0),
    TruncatedNormal(0.2, 0.3, 1.7, 3.0),
]


@pytest.mark.parametrize("spec", MGF_PIN_LAWS, ids=repr)
def test_truncnorm_mgf_matches_quadrature(spec):
    for a in np.linspace(-4.0, 2.0, 13):
        oracle, _ = integrate.quad(lambda x: math.exp(a * x) * spec.pdf(x),
                                   spec.lower, spec.upper, epsabs=0.0, epsrel=1e-13, limit=500)
        assert spec.mgf(float(a)) == pytest.approx(oracle, rel=1e-12, abs=0.0), a


@pytest.mark.parametrize("spec, a", [
    (TruncatedNormal(3.0, 1.5, 0.0, 6.0), -100.0),
    (TruncatedNormal(0.33, 0.165, 0.0, 0.66), 300.0),
])
def test_truncnorm_mgf_at_large_arguments(spec, a):
    # exp(mu*a + sigma^2 a^2 / 2) alone overflows here, and the normal mass it
    # multiplies underflows
    oracle, _ = integrate.quad(lambda x: math.exp(a * x) * spec.pdf(x), spec.lower, spec.upper,
                               points=[spec.lower + 0.01, spec.upper - 0.01],
                               epsabs=0.0, epsrel=1e-13, limit=500)
    assert spec.mgf(a) == pytest.approx(oracle, rel=1e-10, abs=0.0)


def test_exponential_mgf_divergence():
    with pytest.raises(DivergentMGFError):
        Exponential(0.33).mgf(1.0 / 0.33)
    with pytest.raises(DivergentMGFError):
        Exponential(0.33).mgf(4.0)


@given(st.floats(min_value=-3.0, max_value=0.9), st.floats(min_value=-3.0, max_value=0.9))
@settings(max_examples=40, deadline=None)
def test_exponential_mgf_nondecreasing(a1, a2):
    spec = Exponential(1.0)
    lo, hi = sorted((a1, a2))
    assert spec.mgf(lo) <= spec.mgf(hi) + 1e-12


def test_mgf_nondecreasing_on_grid():
    grid = np.linspace(-2.0, 2.0, 21)
    for spec in (Uniform(0.0, 2.0), TruncatedNormal(1.0, 0.5, 0.0, 2.0), Deterministic(1.0)):
        vals = [spec.mgf(float(a)) for a in grid]
        assert np.all(np.diff(vals) >= -1e-10)


class TestProbDiffExceeds:
    def test_deterministic_pair_strict_inequality(self):
        assert prob_diff_exceeds(Deterministic(1.0), Deterministic(1.0), 0.0) == 0.0
        assert prob_diff_exceeds(Deterministic(1.5), Deterministic(1.0), 0.0) == 1.0

    def test_exponential_pair_closed_form(self):
        s, d = Exponential(1.0), Exponential(0.33)
        assert prob_diff_exceeds(s, d, 0.0) == pytest.approx(100.0 / 133.0, abs=1e-12)
        assert prob_diff_exceeds(s, d, 1.0) == pytest.approx(
            100.0 / 133.0 * math.exp(-1.0), abs=1e-12
        )

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            prob_diff_exceeds(Exponential(1.0), Exponential(0.33), -0.1)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_x_rejected(self, x):
        # NaN slips past a plain x < 0 test into the 1e7-sample fallback
        with pytest.raises(ValueError, match="x must be finite"):
            prob_diff_exceeds(Uniform(0.0, 2.0), Exponential(0.33), x)

    @pytest.mark.parametrize(
        "s,d",
        [
            (Uniform(0.0, 2.0), Uniform(0.0, 0.66)),
            (Exponential(1.0), Uniform(0.0, 0.66)),
            (Uniform(0.0, 2.0), Exponential(0.33)),
            (TruncatedNormal(1.0, 0.5, 0.0, 2.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66)),
        ],
    )
    def test_general_pairs_against_monte_carlo(self, s, d):
        for x in (0.0, 0.5):
            sv = s.sample(substream(3, "pd-s", str(s), x), 10**6)
            dv = d.sample(substream(3, "pd-d", str(d), x), 10**6)
            mc = np.mean(sv - dv > x)
            se = math.sqrt(mc * (1 - mc) / len(sv)) + 1e-9
            assert prob_diff_exceeds(s, d, x) == pytest.approx(mc, abs=4 * se)

    def test_nonincreasing_in_x(self):
        s, d = Uniform(0.0, 2.0), Exponential(0.33)
        vals = [prob_diff_exceeds(s, d, x) for x in np.linspace(0.0, 3.0, 16)]
        assert np.all(np.diff(vals) <= 1e-9)

    def test_complement_identity_continuous(self):
        s, d = Exponential(1.0), Uniform(0.0, 0.66)
        p = prob_diff_exceeds(s, d, 0.0)
        sv = s.sample(substream(9, "ci-s"), 10**6)
        dv = d.sample(substream(9, "ci-d"), 10**6)
        p_le = np.mean(sv - dv <= 0.0)
        assert p + p_le == pytest.approx(1.0, abs=4 * math.sqrt(0.25 / 10**6) + 1e-6)


class TestWithMean:
    def test_exponential(self):
        assert Exponential(1.0).with_mean(0.5) == Exponential(0.5)

    def test_uniform_scales_both_endpoints(self):
        scaled = Uniform(0.5, 1.5).with_mean(2.0)
        assert scaled == Uniform(1.0, 3.0)

    def test_truncnorm_shifts_window(self):
        spec = TruncatedNormal(1.0, 0.5, 0.0, 2.0)
        moved = spec.with_mean(1.4)
        assert moved.sigma == spec.sigma
        assert moved.upper - moved.lower == pytest.approx(2.0)
        assert moved.mean == pytest.approx(1.4, abs=1e-9)

    def test_truncnorm_rejects_negative_window(self):
        with pytest.raises(ValueError):
            TruncatedNormal(1.0, 0.5, 0.0, 2.0).with_mean(0.2)

    def test_deterministic(self):
        assert Deterministic(1.0).with_mean(0.25) == Deterministic(0.25)


class TestValidation:
    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_uniform_rejects_negative_support(self):
        with pytest.raises(ValueError):
            Uniform(-0.1, 1.0)
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)

    def test_truncnorm_rejects_empty_window(self):
        with pytest.raises(ValueError):
            TruncatedNormal(1.0, 0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            TruncatedNormal(0.0, 1e-3, 50.0, 51.0)  # window mass underflows

    def test_deterministic_rejects_negative(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)


def test_truncnorm_samples_stay_in_window():
    spec = TruncatedNormal(0.33, 0.165, 0.0, 0.66)
    draws = spec.sample(substream(5, "tn-win"), 10**5)
    assert draws.min() >= 0.0 and draws.max() <= 0.66


def test_truncnorm_upper_quantile_far_in_the_tail():
    # the window starts 6 sigma above mu: the CDF level of a 1 - 1e-15
    # quantile rounds to 1 there, and the tail mass gives it instead
    spec = TruncatedNormal(-3.0, 0.5, 0.0, math.inf)
    q12, q15 = spec.upper_quantile(), spec.upper_quantile(1e-15)
    assert spec.ppf(0.999) < q12 < q15 < math.inf
    # a standard normal tail of eps times the window's mass (eps as rounded in 1 - eps)
    mass = float(ndtr(-6.0))
    for q, eps in ((q12, 1e-12), (q15, 1e-15)):
        tail = (1.0 - (1.0 - eps)) * mass
        assert (q + 3.0) / 0.5 == pytest.approx(-float(ndtri(tail)), rel=1e-9)


@pytest.mark.parametrize("mu, sigma, lower, upper", [
    (0.0, 1.0, 5.0, 6.0),
    (0.0, 1.0, 8.5, 9.0),  # Phi(8.5) and Phi(9) both round to 1
    (1.0, 0.2, 1.3, 1.6),
    (-3.0, 0.5, 0.0, 1.0),
])
def test_truncnorm_window_above_mu_matches_scipy(mu, sigma, lower, upper):
    # a window above mu takes its mass and CDF levels in the upper tail, where
    # their differences do not cancel
    spec = TruncatedNormal(mu, sigma, lower, upper)
    ref = scipy.stats.truncnorm((lower - mu) / sigma, (upper - mu) / sigma, loc=mu, scale=sigma)
    assert spec.mean == pytest.approx(ref.mean(), rel=1e-12)
    assert spec.mgf(0.0) == pytest.approx(1.0, rel=1e-13)
    x = np.linspace(lower, upper, 9)
    np.testing.assert_allclose(spec.cdf(x), ref.cdf(x), rtol=1e-12, atol=0.0)
    q = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    np.testing.assert_allclose([spec.ppf(v) for v in q], ref.ppf(q), rtol=1e-12, atol=1e-15)
    draws = spec.sample(substream(3, "tn-above", repr(spec)), 10**5)
    assert lower <= draws.min() and draws.max() <= upper
    assert abs(draws.mean() - ref.mean()) < 4 * draws.std() / math.sqrt(len(draws))


def _mass_windows():
    """(mu, sigma, lower, upper) of windows at least 0.01 sigma wide below,
    across and above mu, out to 37 sigma from it, one in ten with upper = inf,
    then the extreme ones."""
    rng = np.random.default_rng(25)
    for _ in range(500):
        za = rng.uniform(-37.0, 36.99)
        zb = min(za + math.exp(rng.uniform(math.log(0.01), math.log(74.0))), 37.0)
        sigma, lower = rng.uniform(0.1, 3.0), rng.uniform(0.0, 5.0)
        mu = lower - sigma * za
        yield mu, sigma, lower, math.inf if rng.random() < 0.1 else mu + sigma * zb
    for za, zb in ((-37.0, -36.99), (-0.005, 0.005), (36.99, 37.0), (36.99, math.inf),
                   (-37.0, 37.0), (-37.0, math.inf), (0.0, math.inf)):
        yield -za, 1.0, 0.0, zb - za


def test_truncnorm_mass_matches_scipy_ndtr():
    # the window's mass comes from math.erfc; scipy's ndtr, differenced in
    # the tail where it does not cancel, is the reference
    for mu, sigma, lower, upper in _mass_windows():
        spec = TruncatedNormal(mu, sigma, lower, upper)
        a, b = spec._std_bounds
        want = float(ndtr(-a) - ndtr(-b)) if a > 0 else float(ndtr(b) - ndtr(a))
        assert spec._z_mass == pytest.approx(want, rel=1e-11, abs=0.0)
        x = [lower, lower + 0.005 * sigma, min(upper, lower + sigma)]
        assert lower <= spec.mean <= upper and np.isfinite(spec.pdf(x)).all()


def test_truncnorm_far_window_is_rejected_or_keeps_its_mean():
    # from about 37.5 sigma above mu the window's mass is subnormal and has
    # lost digits, and the mean with it: such a window is rejected
    accepted = 0
    for z in np.arange(37.0, 39.0, 0.01):
        try:
            spec = TruncatedNormal(-z, 1.0, 0.0, 1.0)
        except ValueError:
            continue
        accepted += 1
        assert spec.mean == pytest.approx(scipy.stats.truncnorm(z, z + 1.0, loc=-z).mean(),
                                          rel=1e-9)
    assert 40 <= accepted <= 60


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("make, args", [
    (Exponential, (NAN,)),
    (Exponential, (INF,)),
    (Uniform, (NAN, 1.0)),
    (Uniform, (0.0, NAN)),
    (Uniform, (0.0, INF)),
    (Uniform, (INF, INF)),
    (TruncatedNormal, (NAN, 1.0, 0.0, 2.0)),
    (TruncatedNormal, (INF, 1.0, 0.0, 2.0)),
    (TruncatedNormal, (1.0, NAN, 0.0, 2.0)),
    (TruncatedNormal, (1.0, INF, 0.0, 2.0)),
    (TruncatedNormal, (1.0, 1.0, NAN, 2.0)),
    (TruncatedNormal, (1.0, 1.0, INF, INF)),
    (TruncatedNormal, (1.0, 1.0, 0.0, NAN)),
    (Deterministic, (NAN,)),
    (Deterministic, (INF,)),
    (ExponentialReward, (NAN,)),
    (ExponentialReward, (INF,)),
    (PolynomialReward, (NAN,)),
    (PolynomialReward, (INF,)),
], ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__)
def test_non_finite_parameters_rejected(make, args):
    with pytest.raises(ValueError):
        make(*args)


def test_one_sided_truncnorm_accepted():
    spec = TruncatedNormal(1.0, 0.5, 0.0, INF)
    assert math.isfinite(spec.mean) and spec.mean > 1.0
    assert spec.support() == (0.0, INF)


@pytest.mark.parametrize("family", FAMILIES)
def test_law_for_family_keeps_the_mean(family):
    for mean in (0.1667, 1.0, 3.5):
        assert law_for_family(family, mean).mean == pytest.approx(mean, rel=1e-12)


def test_law_for_family_rejects_unknown_family():
    with pytest.raises(ValueError):
        law_for_family("gamma", 1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=repr)
def test_expect_matches_moments(spec):
    assert spec.expect(lambda x: 1.0) == pytest.approx(1.0, abs=1e-9)
    assert spec.expect(lambda x: x) == pytest.approx(spec.mean, rel=1e-9)
    assert spec.expect(lambda x: math.exp(-0.7 * x)) == pytest.approx(spec.mgf(-0.7), rel=1e-9)


class TestMonteCarloFallback:
    """prob_diff_exceeds falls back to seeded Monte Carlo when quadrature fails."""

    SAMPLES = 200_001
    PAIRS = [
        (Uniform(0.0, 2.0), Exponential(0.33), 0.3),
        (Uniform(0.0, 0.66), Exponential(0.33), 0.0),
        (TruncatedNormal(1.0, 0.5, 0.0, 2.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66), 0.5),
    ]

    @staticmethod
    def _break_quadrature(monkeypatch, quad):
        monkeypatch.setattr(integrate, "quad", quad)

    @staticmethod
    def _raise(*args, **kwargs):
        raise RuntimeError("quadrature forced to fail")

    @staticmethod
    def _inaccurate(*args, **kwargs):
        return 0.5, 1.0

    @pytest.mark.parametrize("quad", ["_raise", "_inaccurate"])
    @pytest.mark.parametrize("s, d, x", PAIRS, ids=["unif-exp", "u066-exp", "tn-tn"])
    def test_agrees_with_quadrature_and_repeats(self, monkeypatch, quad, s, d, x):
        exact = prob_diff_exceeds(s, d, x)
        monkeypatch.setattr(distributions, "MC_FALLBACK_SAMPLES", self.SAMPLES)
        self._break_quadrature(monkeypatch, getattr(self, quad))
        mc = prob_diff_exceeds(s, d, x)
        assert round(mc * self.SAMPLES) / self.SAMPLES == mc  # a hit count over the samples
        se = math.sqrt(exact * (1.0 - exact) / self.SAMPLES)
        assert abs(mc - exact) <= 4.0 * se
        assert prob_diff_exceeds(s, d, x) == mc

    def test_chunking_leaves_the_estimate_unchanged(self, monkeypatch):
        s, d, x = self.PAIRS[0]
        monkeypatch.setattr(distributions, "MC_FALLBACK_SAMPLES", self.SAMPLES)
        self._break_quadrature(monkeypatch, self._raise)
        whole = prob_diff_exceeds(s, d, x)
        monkeypatch.setattr(distributions, "MC_CHUNK", 70_000)  # 3 chunks, the last one short
        assert prob_diff_exceeds(s, d, x) == whole
