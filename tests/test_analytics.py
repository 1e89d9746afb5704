"""Analytic reward machinery against closed forms, Monte Carlo, and the simulator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlag import (
    ClosedForm,
    ClosedFormUnavailableError,
    Deterministic,
    Exponential,
    ExponentialReward,
    KinkWarning,
    MonteCarlo,
    NumericIntegration,
    PolynomialReward,
    TruncatedNormal,
    Uniform,
    Window,
    delta_star,
    estimate_reward_se,
    expected_wait,
    monte_carlo_reward,
    monte_carlo_wait,
    reward_exact,
    run_fixed_lag,
    surrogate_reward,
    wait_derivative,
)
from qlag.analytics import _closed_form_or_numeric

EXP_S = Exponential(1.0)
EXP_D = Exponential(0.33)
P0 = 100.0 / 133.0  # P(S - D > 0) for the pair above


class TestExpectedWait:
    def test_closed_form_exp_exp(self):
        assert expected_wait(EXP_S, EXP_D, 0.0, ClosedForm()) == pytest.approx(P0, abs=1e-12)
        assert expected_wait(EXP_S, EXP_D, 1.0, ClosedForm()) == pytest.approx(
            P0 * math.exp(-1.0), abs=1e-12
        )

    def test_closed_form_deterministic(self):
        assert expected_wait(Deterministic(1.0), Deterministic(0.5), 0.2, ClosedForm()) == 0.3

    def test_closed_form_unavailable(self):
        with pytest.raises(ClosedFormUnavailableError):
            expected_wait(EXP_S, Uniform(0.0, 0.66), 0.0, ClosedForm())

    def test_large_lag_vanishes(self):
        assert expected_wait(EXP_S, EXP_D, 50.0, ClosedForm()) < 1e-20
        assert expected_wait(Uniform(0.0, 2.0), Uniform(0.0, 0.66), 2.5) == 0.0

    @pytest.mark.parametrize("lag", [0.0, 0.25, 1.0])
    def test_numeric_matches_closed_form(self, lag):
        closed = expected_wait(EXP_S, EXP_D, lag, ClosedForm())
        numeric = expected_wait(EXP_S, EXP_D, lag, NumericIntegration())
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
            mc, se = monte_carlo_wait(s, d, lag, 2_000_000, seed=17)
            assert expected_wait(s, d, lag, NumericIntegration()) == pytest.approx(
                mc, abs=3.5 * se + 1e-9
            )

    def test_method_consistency_three_ways(self):
        closed = expected_wait(EXP_S, EXP_D, 0.5, ClosedForm())
        numeric = expected_wait(EXP_S, EXP_D, 0.5, NumericIntegration())
        mc, se = monte_carlo_wait(EXP_S, EXP_D, 0.5, 4_000_000, seed=23)
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
        got = reward_exact(Deterministic(1.0), Deterministic(0.5), f, 0.0, ClosedForm())
        assert got == pytest.approx(math.exp(-1.5), rel=1e-12)
        got_num = reward_exact(Deterministic(1.0), Deterministic(0.5), f, 0.0, NumericIntegration())
        assert got_num == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_closed_vs_numeric_exp_service(self):
        f = ExponentialReward(1.0)
        for delay in (EXP_D, Uniform(0.0, 0.66), Deterministic(0.33)):
            for lag in (0.0, 0.4):
                closed = reward_exact(EXP_S, delay, f, lag, ClosedForm())
                numeric = reward_exact(EXP_S, delay, f, lag, NumericIntegration())
                assert numeric == pytest.approx(closed, rel=1e-9)

    def test_closed_form_unavailable_for_uniform_service(self):
        with pytest.raises(ClosedFormUnavailableError):
            reward_exact(Uniform(0.0, 2.0), EXP_D, ExponentialReward(1.0), 0.0, ClosedForm())

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
        numeric = reward_exact(s, d, f, 0.2, NumericIntegration())
        assert numeric == pytest.approx(est.value, abs=3.5 * est.std_error)

    def test_monte_carlo_method_dispatch(self):
        val = reward_exact(EXP_S, EXP_D, ExponentialReward(1.0), 0.0, MonteCarlo(500_000, 7))
        closed = reward_exact(EXP_S, EXP_D, ExponentialReward(1.0), 0.0, ClosedForm())
        assert val == pytest.approx(closed, rel=0.01)

    def test_tiny_kappa_equals_arrival_rate(self):
        lam = 1.0 / (0.0 + EXP_D.mean + expected_wait(EXP_S, EXP_D, 0.0, ClosedForm()))
        got = reward_exact(EXP_S, EXP_D, ExponentialReward(1e-9), 0.0, ClosedForm())
        assert got == pytest.approx(lam, rel=1e-8)

    def test_agrees_with_simulator(self):
        f = ExponentialReward(1.0)
        traj = run_fixed_lag(EXP_S, EXP_D, 0.0, 10**6, seed=42)
        ghat, se = estimate_reward_se(traj, f, Window.last_k(10**6 - 1000))
        exact = reward_exact(EXP_S, EXP_D, f, 0.0, NumericIntegration())
        assert abs(ghat - exact) < 3 * se


class TestSurrogate:
    def test_frozen_example_values(self):
        # M_S(-1) = 0.5, M_D(1) = 1/0.67, E[W] = 100/133
        expected = 0.5 * (0.5 / 0.67) / (0.33 + P0)
        assert surrogate_reward(EXP_S, EXP_D, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.3449, abs=5e-5)

    def test_min_clause_saturates_when_product_exceeds_one(self):
        d6 = Exponential(0.6)
        ew = expected_wait(EXP_S, d6, 0.0, ClosedForm())
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
            g = reward_exact(EXP_S, EXP_D, f, float(lag), ClosedForm())
            gs = surrogate_reward(EXP_S, EXP_D, 1.0, float(lag))
            assert gs >= g - 1e-12

    def test_upper_bounds_exact_reward_uniform_pair(self):
        s, d = Uniform(0.0, 2.0), Uniform(0.0, 0.66)
        f = ExponentialReward(0.5)
        for lag in np.arange(0.0, 2.0001, 0.25):
            g = reward_exact(s, d, f, float(lag), NumericIntegration())
            gs = surrogate_reward(s, d, 0.5, float(lag))
            assert gs >= g - 1e-9


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
        NumericIntegration(0.0)
    with pytest.raises(ValueError):
        MonteCarlo(100)
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
    closed = reward_exact(service, delay, f, lag, ClosedForm())
    assert reward_exact(service, delay, f, lag, NumericIntegration()) == pytest.approx(
        closed, rel=1e-7
    )
    assert _closed_form_or_numeric(reward_exact, service, delay, f, lag) == closed

    numeric_wait = expected_wait(service, delay, lag, NumericIntegration())
    try:
        closed_wait = expected_wait(service, delay, lag, ClosedForm())
    except ClosedFormUnavailableError:
        closed_wait = numeric_wait  # the fallback's answer
    assert numeric_wait == pytest.approx(closed_wait, rel=1e-7, abs=1e-12)
    assert _closed_form_or_numeric(expected_wait, service, delay, lag) == closed_wait
