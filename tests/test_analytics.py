"""Analytic reward machinery against closed forms, Monte Carlo, and the simulator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from qlag import (
    Deterministic,
    Exponential,
    ExponentialReward,
    KinkWarning,
    ParameterError,
    PolynomialReward,
    TruncatedNormal,
    Uniform,
    Window,
    check_polynomial,
    delta_star,
    estimate_reward_se,
    expected_wait,
    monte_carlo_reward,
    optimize,
    reward_exact,
    run_fixed_lag,
    surrogate_reward,
    wait_derivative,
)
from qlag import analytics
from qlag.analytics import _closed_terms, _exact_rewards, _exact_waits, _terms, _wait_terms
from qlag.distributions import law_for_family
from qlag.simulator import _draw, wait_step

EXP_S = Exponential(1.0)
EXP_D = Exponential(0.33)
P0 = 100.0 / 133.0  # P(S - D > 0) for the pair above


def closed_wait(service, delay, lag):
    return _closed_terms(service, delay, None, [lag])[1, 0]


def closed_reward(service, delay, f, lag):
    """G of one lag from closed-form rows, which the laws must have."""
    assert _closed_terms(service, delay, f, [lag]) is not None
    return _exact_rewards(service, delay, f, [lag])[0]


def numeric_wait(service, delay, lag):
    """The quadrature kernel's E[W], also where a closed form exists."""
    return _wait_terms(service, delay, [lag])[1, 0]


def kernel_rewards(service, delay, f, lags):
    """G at every lag from the quadrature kernel's rows, also where a closed
    form exists."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytics, "_closed_terms", lambda *args: None)
        return _exact_rewards(service, delay, f, lags)


def numeric_reward(service, delay, f, lag):
    return kernel_rewards(service, delay, f, [lag])[0]


def simulated_wait(service, delay, lag, n, seed):
    """Mean and standard error of the simulator's waits of jobs 2..n at a
    fixed lag, W_j = max(S_{j-1} - lag - D_j, 0): i.i.d. draws of W."""
    s, d = _draw(service, delay, n, None, seed)
    w = wait_step(s[:-1], lag, d[1:])
    return float(w.mean()), float(w.std(ddof=1)) / math.sqrt(len(w))


class TestExpectedWait:
    def test_closed_form_exp_exp(self):
        assert closed_wait(EXP_S, EXP_D, 0.0) == pytest.approx(P0, abs=1e-12)
        assert closed_wait(EXP_S, EXP_D, 1.0) == pytest.approx(
            P0 * math.exp(-1.0), abs=1e-12
        )

    def test_closed_form_deterministic(self):
        assert closed_wait(Deterministic(1.0), Deterministic(0.5), 0.2) == 0.3

    def test_closed_form_unavailable(self):
        assert _closed_terms(Uniform(0.0, 2.0), Uniform(0.0, 0.66), None, [0.0]) is None

    def test_large_lag_vanishes(self):
        assert closed_wait(EXP_S, EXP_D, 50.0) < 1e-20
        assert expected_wait(Uniform(0.0, 2.0), Uniform(0.0, 0.66), 2.5) == 0.0

    @pytest.mark.parametrize("lag", [0.0, 0.25, 1.0])
    def test_numeric_matches_closed_form(self, lag):
        closed = closed_wait(EXP_S, EXP_D, lag)
        numeric = numeric_wait(EXP_S, EXP_D, lag)
        assert numeric == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize(
        "s,d",
        [
            (Uniform(0.0, 2.0), Uniform(0.0, 0.66)),
            (EXP_S, Uniform(0.0, 0.66)),
            (TruncatedNormal(1.0, 0.5, 0.0, 2.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66)),
            (Uniform(0.0, 2.0), Deterministic(0.4)),
        ],
    )
    def test_numeric_matches_monte_carlo(self, s, d):
        for lag in (0.0, 0.5):
            mc, se = simulated_wait(s, d, lag, 2_000_000, seed=17)
            assert expected_wait(s, d, lag) == pytest.approx(
                mc, abs=3.5 * se + 1e-9
            )

    def test_method_consistency_three_ways(self):
        closed = closed_wait(EXP_S, EXP_D, 0.5)
        numeric = numeric_wait(EXP_S, EXP_D, 0.5)
        mc, se = simulated_wait(EXP_S, EXP_D, 0.5, 4_000_000, seed=23)
        assert numeric == pytest.approx(closed, abs=1e-9)
        assert abs(mc - closed) < 3 * se


class TestWaitDerivative:
    def test_matches_negative_tail(self):
        assert wait_derivative(EXP_S, EXP_D, 0.0) == pytest.approx(-P0, abs=1e-12)
        assert wait_derivative(EXP_S, EXP_D, 1.0) == pytest.approx(
            -P0 * math.exp(-1.0), abs=1e-12
        )

    def test_vanishes_for_large_lag(self):
        assert wait_derivative(EXP_S, EXP_D, 60.0) == pytest.approx(0.0, abs=1e-20)

    def test_derivative_matches_central_difference(self):
        # independent oracle: the closed-form E[W] formula for exp/exp,
        # smooth in the lag, differentiated centrally
        lam_s, lam_d = 1.0, 1.0 / 0.33

        def ew(x):
            return lam_d / (lam_s + lam_d) * math.exp(-lam_s * x) / lam_s

        h = 1e-4
        for lag in (0.0, 0.25, 0.5, 1.0):
            fd = (ew(lag + h) - ew(lag - h)) / (2 * h)
            assert fd == pytest.approx(wait_derivative(EXP_S, EXP_D, lag), abs=1e-6)

    def test_kink_warning_on_atom(self):
        with pytest.warns(KinkWarning):
            wait_derivative(Deterministic(1.0), Deterministic(0.5), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wait_derivative(Deterministic(1.0), Deterministic(0.5), 0.2)


class TestRewardExact:
    def test_deterministic_hand_value(self):
        f = ExponentialReward(1.0)
        got = closed_reward(Deterministic(1.0), Deterministic(0.5), f, 0.0)
        assert got == pytest.approx(math.exp(-1.5), rel=1e-12)
        got_num = numeric_reward(Deterministic(1.0), Deterministic(0.5), f, 0.0)
        assert got_num == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_closed_vs_numeric_exp_service(self):
        f = ExponentialReward(1.0)
        for delay in (EXP_D, Uniform(0.0, 0.66), Deterministic(0.33),
                      TruncatedNormal(0.33, 0.165, 0.0, 0.66)):
            for lag in (0.0, 0.4):
                closed = closed_reward(EXP_S, delay, f, lag)
                numeric = numeric_reward(EXP_S, delay, f, lag)
                assert numeric == pytest.approx(closed, rel=1e-9)

    def test_closed_form_unavailable_for_uniform_service(self):
        assert _closed_terms(Uniform(0.0, 2.0), EXP_D, ExponentialReward(1.0), [0.0]) is None

    @pytest.mark.parametrize(
        "s,d,f",
        [
            (Uniform(0.0, 2.0), Uniform(0.0, 0.66), ExponentialReward(1.0)),
            (Uniform(0.0, 2.0), EXP_D, ExponentialReward(0.5)),
            (Uniform(0.0, 2.0), Uniform(0.0, 0.66), PolynomialReward(2.0)),
            (EXP_S, EXP_D, PolynomialReward(1.0)),
            (TruncatedNormal(1.0, 0.5, 0.0, 2.0), EXP_D, ExponentialReward(1.0)),
        ],
    )
    def test_numeric_matches_monte_carlo(self, s, d, f):
        est = monte_carlo_reward(s, d, f, 0.2, 2_000_000, seed=31)
        numeric = reward_exact(s, d, f, 0.2)
        assert numeric == pytest.approx(est.value, abs=3.5 * est.std_error)

    def test_monte_carlo_method_dispatch(self):
        val = monte_carlo_reward(EXP_S, EXP_D, ExponentialReward(1.0), 0.0, 500_000, seed=7).value
        closed = closed_reward(EXP_S, EXP_D, ExponentialReward(1.0), 0.0)
        assert val == pytest.approx(closed, rel=0.01)

    def test_tiny_kappa_equals_arrival_rate(self):
        lam = 1.0 / (0.0 + EXP_D.mean + closed_wait(EXP_S, EXP_D, 0.0))
        got = closed_reward(EXP_S, EXP_D, ExponentialReward(1e-9), 0.0)
        assert got == pytest.approx(lam, rel=1e-8)

    def test_agrees_with_simulator(self):
        f = ExponentialReward(1.0)
        traj = run_fixed_lag(EXP_S, EXP_D, 0.0, 10**6, seed=42)
        ghat, se = estimate_reward_se(traj, f, Window.last_k(10**6 - 1000))
        exact = numeric_reward(EXP_S, EXP_D, f, 0.0)
        assert abs(ghat - exact) < 3 * se


def _uniform_excess(a, b, c, kappa):
    """E[(X - c)^+] and E[exp(-kappa (X - c)^+)] for X ~ U(a, b)."""
    m = min(max(c, a), b)
    ew = ((b - c) ** 2 - (m - c) ** 2) / (2.0 * (b - a))
    mw = (m - a) / (b - a) + (math.exp(-kappa * (m - c)) - math.exp(-kappa * (b - c))) / (
        kappa * (b - a)
    )
    return ew, mw


def _point_mass_pair_by_hand(service, delay, kappa, lag):
    """(G, E[W]) for the exponential reward when one law is a point mass.

    W = (S_prev - lag - D)^+ is the excess of a uniform over a constant:
    of S_prev over lag + D for a point-mass delay, and of -D over
    lag - S_prev for a point-mass service.
    """
    if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
        ew = closed_wait(service, delay, lag)
        return closed_reward(service, delay, ExponentialReward(kappa), lag), ew
    if isinstance(delay, Deterministic):
        ew, mw = _uniform_excess(service.lower, service.upper, lag + delay.value, kappa)
    else:
        ew, mw = _uniform_excess(-delay.upper, -delay.lower, lag - service.value, kappa)
    return service.mgf(-kappa) * mw / (lag + delay.mean + ew), ew


POINT_MASS_PAIRS = {
    "det/uniform": (Deterministic(1.0), Uniform(0.2, 0.8)),
    "uniform/det": (Uniform(0.0, 2.0), Deterministic(0.4)),
    "det/det": (Deterministic(1.0), Deterministic(0.5)),
}


@pytest.mark.parametrize("pair", POINT_MASS_PAIRS)
@pytest.mark.parametrize("lag", [0.0, 0.2, 0.5, 0.8, 1.7])
def test_point_mass_pairs_match_closed_form(pair, lag):
    service, delay = POINT_MASS_PAIRS[pair]
    g, ew = _point_mass_pair_by_hand(service, delay, 0.7, lag)
    numeric = numeric_reward(service, delay, ExponentialReward(0.7), lag)
    assert numeric == pytest.approx(g, abs=1e-9)
    assert numeric_wait(service, delay, lag) == pytest.approx(ew, abs=1e-9)


def _uniform_pair_reward_by_hand(service, delay, kappa, lag):
    """G for uniform service and delay under f(t) = e^(-kappa t): the excess
    of S_prev over lag + y in closed form (``_uniform_excess``), averaged
    over the delay y with 64-node Gauss-Legendre rules on the pieces between
    the points where lag + y crosses the service's ends (the closed form
    bends there). It agrees with a 2e6-point trapezoid over y within 1e-11."""
    a, b = service.lower, service.upper
    cuts = sorted({delay.lower, delay.upper,
                   *(y for y in (a - lag, b - lag) if delay.lower < y < delay.upper)})
    nodes, weights = np.polynomial.legendre.leggauss(64)
    ew = mw = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        half = 0.5 * (hi - lo)
        for node, weight in zip(nodes, weights):
            e, m = _uniform_excess(a, b, lag + lo + half * (node + 1.0), kappa)
            ew += weight * half * e
            mw += weight * half * m
    width = delay.upper - delay.lower
    return service.mgf(-kappa) * (mw / width) / (lag + delay.mean + ew / width)


@pytest.mark.parametrize("kappa", [30.0, 100.0, 300.0])
def test_sharp_reward_on_uniform_laws_where_g_is_large(kappa):
    # the kernel's stop rule settles on the right value for a sharp reward on
    # non-exponential service wherever G is within a factor 1e6 of its largest
    # value; test_tiny_g_where_every_job_waits covers the values far below it
    service, delay = Uniform(0.9, 1.1), Uniform(0.3, 0.36)
    lags = np.linspace(0.0, 3.0, 16)
    g = _exact_rewards(service, delay, ExponentialReward(kappa), lags)
    want = np.array([_uniform_pair_reward_by_hand(service, delay, kappa, lag) for lag in lags])
    large = want >= 1e-6 * want.max()
    assert large.sum() >= 13
    np.testing.assert_allclose(g[large], want[large], rtol=1e-8, atol=0)


def test_tiny_g_where_every_job_waits():
    # at lag 0 every job waits (S_prev - D >= 0.54), so G = M_S(-kappa)^2
    # M_D(kappa) / E[S] = 1.2e-66, 1e-37 of h(0) = E[f(S)]. The kernel's
    # P(W = 0) row integrates F_S(lag + D), which is 0 there: 1 - P(W > 0)
    # would leave rounding of about 1e-15 h(0) in G
    service, delay, f = Uniform(0.9, 1.1), Uniform(0.3, 0.36), ExponentialReward(100.0)
    want = service.mgf(-100.0) ** 2 * delay.mgf(100.0) / service.mean
    assert want == pytest.approx(1.2031e-66, rel=1e-4)
    assert reward_exact(service, delay, f, 0.0) == pytest.approx(want, rel=1e-9)
    # and the whole grid, down to G = 1.2e-66, matches the reference
    lags = np.linspace(0.0, 3.0, 16)
    want = [_uniform_pair_reward_by_hand(service, delay, 100.0, lag) for lag in lags]
    np.testing.assert_allclose(_exact_rewards(service, delay, f, lags), want, rtol=1e-8, atol=0)


class TestSurrogate:
    def test_frozen_example_values(self):
        # M_S(-1) = 0.5, M_D(1) = 1/0.67, E[W] = 100/133
        expected = 0.5 * (0.5 / 0.67) / (0.33 + P0)
        assert surrogate_reward(EXP_S, EXP_D, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.3449, abs=5e-5)

    def test_min_clause_saturates_when_product_exceeds_one(self):
        d6 = Exponential(0.6)
        ew = closed_wait(EXP_S, d6, 0.0)
        assert ew == pytest.approx(0.625, abs=1e-12)
        got = surrogate_reward(EXP_S, d6, 1.0, 0.0)
        assert got == pytest.approx(0.5 / (0.6 + 0.625), rel=1e-12)

    def test_min_clause_saturates_exactly_at_delta_star(self):
        ds = delta_star(EXP_S, EXP_D, 1.0)
        product = EXP_S.mgf(-1.0) * math.exp(ds) * EXP_D.mgf(1.0)
        assert product == pytest.approx(1.0, abs=1e-12)

    def test_divergent_delay_mgf_raises(self):
        from qlag import DivergentMGFError

        with pytest.raises(DivergentMGFError):
            surrogate_reward(EXP_S, EXP_D, 4.0, 0.0)

    def test_upper_bounds_exact_reward_on_grid(self):
        f = ExponentialReward(1.0)
        for lag in np.arange(0.0, 2.0001, 0.1):
            g = closed_reward(EXP_S, EXP_D, f, float(lag))
            gs = surrogate_reward(EXP_S, EXP_D, 1.0, float(lag))
            assert gs >= g - 1e-12

    def test_upper_bounds_exact_reward_uniform_pair(self):
        s, d = Uniform(0.0, 2.0), Uniform(0.0, 0.66)
        f = ExponentialReward(0.5)
        for lag in np.arange(0.0, 2.0001, 0.25):
            g = reward_exact(s, d, f, float(lag))
            gs = surrogate_reward(s, d, 0.5, float(lag))
            assert gs >= g - 1e-9


def test_lag_whose_cycle_spans_no_time_is_nan():
    # two point masses at zero: at lag 0 a cycle spans no time, at lag 0.5 it
    # spans 0.5 and every job scores f(0) = 1
    zero = Deterministic(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rewards in (_exact_rewards(zero, zero, ExponentialReward(1.0), [0.0, 0.5]),
                        analytics._surrogate_rewards(zero, zero, 1.0, [0.0, 0.5])):
            assert math.isnan(rewards[0]) and rewards[1] == 2.0
        assert math.isnan(reward_exact(zero, zero, ExponentialReward(1.0), 0.0))
        assert math.isnan(surrogate_reward(zero, zero, 1.0, 0.0))


class TestDeltaStar:
    def test_exp_exp_closed_form(self):
        # product = 0.5 / 0.67, so delta* = ln(1.34)
        assert delta_star(EXP_S, EXP_D, 1.0) == pytest.approx(math.log(1.34), abs=1e-12)

    def test_zero_when_product_at_least_one(self):
        assert delta_star(EXP_S, Exponential(0.6), 1.0) == 0.0

    def test_zero_service_point_mass(self):
        assert delta_star(Deterministic(0.0), EXP_D, 1.0) == 0.0
        assert delta_star(Deterministic(0.0), Uniform(0.0, 0.66), 2.0) == 0.0


def test_eval_method_validation():
    with pytest.raises(ValueError):
        monte_carlo_reward(EXP_S, EXP_D, ExponentialReward(1.0), 0.0, 1)
    with pytest.raises(ValueError):
        expected_wait(EXP_S, EXP_D, -0.1)
    with pytest.raises(ValueError):
        reward_exact(EXP_S, EXP_D, ExponentialReward(1.0), -1.0)
    with pytest.raises(ValueError):
        surrogate_reward(EXP_S, EXP_D, -1.0, 0.0)


# law pairs with a closed-form exponential reward, from (service mean, delay mean)
CLOSED_FORM_PAIRS = {
    "exp/exp": lambda t_s, t_d: (Exponential(t_s), Exponential(t_d)),
    "exp/uniform": lambda t_s, t_d: (Exponential(t_s), Uniform(0.0, 2.0 * t_d)),
    "exp/det": lambda t_s, t_d: (Exponential(t_s), Deterministic(t_d)),
    "exp/truncnorm": lambda t_s, t_d: (Exponential(t_s), law_for_family("truncnorm", t_d)),
    "det/det": lambda t_s, t_d: (Deterministic(t_s), Deterministic(t_d)),
}


@pytest.mark.parametrize("pair", CLOSED_FORM_PAIRS)
@given(
    t_s=st.floats(0.2, 2.0),
    t_d=st.floats(0.05, 1.0),
    lag=st.floats(0.0, 3.0),
    kappa=st.floats(0.2, 3.0),
)
@settings(max_examples=12, deadline=None)
def test_closed_form_and_numeric_agree(pair, t_s, t_d, lag, kappa):
    service, delay = CLOSED_FORM_PAIRS[pair](t_s, t_d)
    f = ExponentialReward(kappa)
    closed = closed_reward(service, delay, f, lag)
    numeric = numeric_reward(service, delay, f, lag)
    assert numeric == pytest.approx(closed, abs=1e-9)
    assert numeric == pytest.approx(closed, rel=1e-7)
    grid = _exact_rewards(service, delay, f, [lag])
    assert grid[0] == closed
    assert reward_exact(service, delay, f, lag) == closed
    mc = monte_carlo_reward(service, delay, f, lag, 200_000, seed=0)
    # 1e-12 covers the rounding of a point mass pair, whose batches all agree
    assert abs(mc.value - closed) <= 5.0 * mc.std_error + 1e-12

    kernel_wait = numeric_wait(service, delay, lag)
    exact_wait = closed_wait(service, delay, lag)
    assert kernel_wait == pytest.approx(exact_wait, abs=1e-9)
    assert kernel_wait == pytest.approx(exact_wait, rel=1e-7, abs=1e-12)
    waits = _exact_waits(service, delay, [lag])
    assert waits[0] == exact_wait
    assert expected_wait(service, delay, lag) == exact_wait


# The analytic benchmark workload's first (t_s, t_d) draw for seeds 1 and 2.
PINNED_MEANS = {1: (1.0023643249400513, 0.3570278217795561),
                2: (0.9523224268498633, 0.31790946860484737)}


def _pinned_case(key):
    """(service, delay, reward, grid step) of a PINNED_G entry: the analytic
    workload's four law/reward pairs, or exp(1) service with a U(0, 0.66)
    delay and poly(2)."""
    if key == "exp/unif poly2":
        return Exponential(1.0), Uniform(0.0, 0.66), PolynomialReward(2.0), 0.2
    seed, combo = key
    t_s, t_d = PINNED_MEANS[seed]
    service_family, delay_family, f = {
        "tn/tn exp1": ("truncnorm", "truncnorm", ExponentialReward(1.0)),
        "tn/tn poly2": ("truncnorm", "truncnorm", PolynomialReward(2.0)),
        "unif/unif poly2": ("uniform", "uniform", PolynomialReward(2.0)),
        "unif/exp exp1": ("uniform", "exponential", ExponentialReward(1.0)),
    }[combo]
    service, delay = law_for_family(service_family, t_s), law_for_family(delay_family, t_d)
    return service, delay, f, 3.0 * t_s / 15


# (best lag, G on the 16 lags 0, step, ..., 15 step), computed by per-lag
# adaptive quadrature (nested scipy.quad) at tolerance 1e-9.
PINNED_G = {
    (1, "tn/tn exp1"): (0.6014185949640307, [
        0.22452233198383204, 0.25586610465124315, 0.2786426449108404,
        0.28849105329172575, 0.28458534515908346, 0.2699019953823141,
        0.24922762384092811, 0.22686433741427908, 0.20562363315579105,
        0.1869313197455012, 0.17108869747431993, 0.15770244790673868,
        0.14625891934663243, 0.13636380888835, 0.12772275778548656,
        0.12011157235977102,
    ]),
    (1, "tn/tn poly2"): (0.6014185949640307, [
        0.1676054473883706, 0.18803747872818874, 0.20311344259842906,
        0.20961408183674343, 0.20668657508235733, 0.19618724557044395,
        0.1813698640466228, 0.16525312285762192, 0.14985879521823317,
        0.13625689718782744, 0.12471078623152783, 0.1149532175966092,
        0.10661174638862363, 0.0993989554601905, 0.093100279435337,
        0.08755229799291937,
    ]),
    (1, "unif/unif poly2"): (0.6014185949640307, [
        0.18401242833209241, 0.19880176094096297, 0.20767697299199428,
        0.21092292388116368, 0.2091896453250338, 0.20326348083752638,
        0.19387167295494998, 0.18159258018628566, 0.16768752596064576,
        0.15374599473029346, 0.14091577968949878, 0.12989030680449384,
        0.1204649398851597, 0.11231491462968149, 0.10519778490999572,
        0.09892889547159761,
    ]),
    (1, "unif/exp exp1"): (0.6014185949640307, [
        0.23198246133819547, 0.2524101087407455, 0.26482478765880296,
        0.2695686378679161, 0.26754917826461405, 0.25996969762911515,
        0.24811652819915644, 0.23324195430235062, 0.21654577904977435,
        0.19924805551689606, 0.18275849721194773, 0.16845918410482422,
        0.15623510318468664, 0.14566505651416733, 0.13643460741259528,
        0.12830427016098322,
    ]),
    (2, "tn/tn exp1"): (0.571393456109918, [
        0.2482221013953026, 0.28232316763854376, 0.30752479929164367,
        0.3188794186968135, 0.3151273104200459, 0.29926530859332373,
        0.2765073059681864, 0.2516872703593072, 0.22799472786084538,
        0.20708501749628394, 0.18936790436687206, 0.17442071028114275,
        0.16166051669345347, 0.15064005763027957, 0.1410262447530094,
        0.1325659191237718,
    ]),
    (2, "tn/tn poly2"): (0.571393456109918, [
        0.18367851464323054, 0.20620373050650037, 0.2232391103623816,
        0.23109251957298457, 0.22853311730203724, 0.21738134962051492,
        0.20118227419618176, 0.18334982587599524, 0.16619848833396328,
        0.15098495751170896, 0.1380698276116177, 0.1271716951239929,
        0.11786812420032723, 0.1098330092311852, 0.10282349253883459,
        0.09665499368433,
    ]),
    (2, "unif/unif poly2"): (0.571393456109918, [
        0.20131372008337853, 0.21771514810615294, 0.227646079586839,
        0.23138687198671545, 0.22964050275618092, 0.22328195803370277,
        0.21314293868524287, 0.19986616504532567, 0.18458917120003787,
        0.16914414192617092, 0.15490112645227058, 0.14267446529276084,
        0.13223674952941372, 0.12322211989291759, 0.11535811332237747,
        0.10843764823879609,
    ]),
    (2, "unif/exp exp1"): (0.571393456109918, [
        0.2567372803014299, 0.27913181905318446, 0.2927091084816975,
        0.2978200908539075, 0.29545635027286316, 0.28694829355950385,
        0.2737227123810636, 0.2571669050245492, 0.23860532244331664,
        0.21938231041216813, 0.20106047163638666, 0.18519035941982517,
        0.171642284578473, 0.15994136459258937, 0.14973394450315808,
        0.14075123401217426,
    ]),
    "exp/unif poly2": (0.4, [
        0.2346629857523036, 0.24546564243971497, 0.24587043686172272,
        0.23945824306530505, 0.22911516787967948, 0.2168699283266218,
        0.2040226855348334, 0.19134614699416316, 0.1792637505859609,
        0.1679806617626677, 0.1575716451951864, 0.1480369893680182,
        0.1393369012954703, 0.13141210623190583, 0.12419586700527203,
        0.11762076925597831,
    ]),
}


@pytest.mark.parametrize("key", PINNED_G, ids=str)
def test_exact_grid_matches_pinned_quadrature(key):
    service, delay, f, step = _pinned_case(key)
    best_lag, pinned = PINNED_G[key]
    grid = optimize(service, delay, f, objective="exact", step=step)
    assert [p.reward for p in grid.points] == pytest.approx(pinned, abs=1e-9)
    assert grid.best_lag == best_lag
    for i in (0, 7, 15):
        lag = grid.points[i].lag
        assert reward_exact(service, delay, f, lag) == pytest.approx(
            pinned[i], abs=1e-9
        )


def test_exact_grid_memory_is_bounded():
    # exponential service: the inner rule runs up to S_prev's 1 - 1e-15
    # quantile, the end of the h table, where an unblocked kernel once took
    # gigabytes
    analytics._reward_after_wait_cached.cache_clear()
    tracemalloc.start()
    try:
        grid = optimize(Exponential(1.0), Uniform(0.0, 0.66), PolynomialReward(2.0),
                        objective="exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid.points) == 61
    assert peak < 16 * 2**20


def test_rule_order_cap_warns(monkeypatch):
    monkeypatch.setattr(analytics, "_ORDERS", (2, 4))
    service, delay = TruncatedNormal(1.0, 0.5, 0.0, 2.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66)
    with pytest.warns(IntegrationWarning):
        reward_exact(service, delay, PolynomialReward(2.0), 0.2)
    with pytest.warns(IntegrationWarning):
        expected_wait(service, delay, 0.2)


def _scalar_closed_wait(service, delay, lag):
    """The closed-form E[W] of one lag, written out with scalar math."""
    if isinstance(service, Exponential):
        lam_s = service.rate
        return math.exp(-lam_s * lag) * delay.mgf(-lam_s) / lam_s
    return max(service.value - delay.value - lag, 0.0)


def _scalar_closed_reward(service, delay, f, lag):
    """The closed-form G of one lag, written out with scalar math."""
    if isinstance(service, Deterministic):
        w = max(service.value - lag - delay.value, 0.0)
        return float(f.eval(w + service.value)) / (lag + delay.value + w)
    lam_s, kappa = service.rate, f.kappa
    p_bar = math.exp(-lam_s * lag) * delay.mgf(-lam_s)
    mw = 1.0 - p_bar * kappa / (lam_s + kappa)
    return service.mgf(-kappa) * mw / (lag + delay.mean + p_bar / lam_s)


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that gets one entry per call of the quadrature kernel."""
    calls = []
    kernel = analytics._wait_terms

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(analytics, "_wait_terms", counted)
    return calls


DISPATCH_LAGS = [float(lag) for lag in np.linspace(0.0, 2.4, 16)]

# (service, delay, reward); on exp(300) over a truncated normal delay the
# kernel's successive orders agree on a G about 9e-3 off, with no warning
CLOSED_FORM_REWARDS = {
    "exp/exp exp": (Exponential(1.0), Exponential(0.33), ExponentialReward(1.0)),
    "exp/uniform exp": (Exponential(1.0), Uniform(0.0, 0.66), ExponentialReward(0.3)),
    "exp/det exp": (Exponential(0.8), Deterministic(0.4), ExponentialReward(1.0)),
    "exp/truncnorm exp": (Exponential(1.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66),
                          ExponentialReward(1.0)),
    "exp/truncnorm exp300": (Exponential(1.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66),
                             ExponentialReward(300.0)),
    "det/det exp": (Deterministic(1.0), Deterministic(0.4), ExponentialReward(1.0)),
    "det/det poly": (Deterministic(1.0), Deterministic(0.4), PolynomialReward(2.0)),
}


@pytest.mark.parametrize("case", CLOSED_FORM_REWARDS)
def test_closed_form_pairs_never_call_the_kernel(case, kernel_calls):
    service, delay, f = CLOSED_FORM_REWARDS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rewards = _exact_rewards(service, delay, f, DISPATCH_LAGS)
        waits = _exact_waits(service, delay, DISPATCH_LAGS)
    assert kernel_calls == []
    assert rewards.tolist() == pytest.approx(
        [_scalar_closed_reward(service, delay, f, lag) for lag in DISPATCH_LAGS], rel=1e-13
    )
    assert [reward_exact(service, delay, f, lag) for lag in DISPATCH_LAGS] == rewards.tolist()
    assert waits.tolist() == pytest.approx(
        [_scalar_closed_wait(service, delay, lag) for lag in DISPATCH_LAGS], rel=1e-13
    )
    assert [expected_wait(service, delay, lag) for lag in DISPATCH_LAGS] == waits.tolist()
    assert kernel_calls == []


@pytest.mark.parametrize("service, delay, f", [
    (Uniform(0.0, 2.0), Uniform(0.0, 0.66), ExponentialReward(1.0)),
    (Exponential(1.0), Exponential(0.33), PolynomialReward(2.0)),
    (Uniform(0.0, 2.0), Deterministic(0.4), ExponentialReward(1.0)),
], ids=["unif/unif exp", "exp/exp poly", "unif/det exp"])
def test_pairs_without_a_closed_form_make_one_kernel_call_per_grid(service, delay, f,
                                                                   kernel_calls):
    assert _closed_terms(service, delay, f, DISPATCH_LAGS) is None
    rows = _terms(service, delay, DISPATCH_LAGS, f)
    assert len(kernel_calls) == 1
    h = analytics._reward_after_wait(service, f)
    assert rows.tolist() == _wait_terms(service, delay, DISPATCH_LAGS, h).tolist()
    kernel_calls.clear()
    rewards = _exact_rewards(service, delay, f, DISPATCH_LAGS)
    assert len(kernel_calls) == 1
    assert rewards.tolist() == kernel_rewards(service, delay, f, DISPATCH_LAGS).tolist()
    if _closed_terms(service, delay, None, DISPATCH_LAGS) is None:
        kernel_calls.clear()
        waits = _exact_waits(service, delay, DISPATCH_LAGS)
        assert len(kernel_calls) == 1
        assert waits.tolist() == _wait_terms(service, delay, DISPATCH_LAGS)[1].tolist()


F1 = ExponentialReward(1.0)
UNIF_S = Uniform(0.0, 2.0)


@pytest.mark.parametrize("call, field", [
    (lambda: reward_exact(UNIF_S, EXP_D, F1, math.nan), "lag"),
    (lambda: reward_exact(UNIF_S, EXP_D, F1, math.inf), "lag"),
    (lambda: reward_exact(EXP_S, EXP_D, F1, math.inf), "lag"),
    (lambda: expected_wait(UNIF_S, EXP_D, math.inf), "lag"),
    (lambda: expected_wait(EXP_S, EXP_D, -0.1), "lag"),
    (lambda: surrogate_reward(EXP_S, EXP_D, 1.0, math.nan), "lag"),
    (lambda: wait_derivative(EXP_S, EXP_D, math.inf), "lag"),
    (lambda: monte_carlo_reward(UNIF_S, EXP_D, F1, 0.2, 0), "n"),
    (lambda: monte_carlo_reward(UNIF_S, EXP_D, F1, 0.2, 1), "n"),
    (lambda: monte_carlo_reward(UNIF_S, EXP_D, F1, -1.0, 10_000), "lag"),
    (lambda: monte_carlo_reward(UNIF_S, EXP_D, F1, math.nan, 10_000), "lag"),
    (lambda: check_polynomial(UNIF_S, EXP_D, 0.0), "gamma"),
])
def test_bad_arguments_name_their_parameter(call, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel's IntegrationWarning must not be reached
        with pytest.raises(ParameterError) as err:
            call()
    assert err.value.name == field
