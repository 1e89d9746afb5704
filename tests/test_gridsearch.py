"""Grid-search benchmark: objectives, reproducibility, tie-breaks."""

import math
import warnings

import numpy as np
import pytest

from qlag import (
    Deterministic,
    DivergentMGFError,
    Exponential,
    ExponentialReward,
    PolynomialReward,
    optimize,
)
from qlag.analytics import _closed_rewards
from qlag.gridsearch import MAX_GRID_POINTS, build_lag_grid
from qlag.simulator import ParameterError

F1 = ExponentialReward(1.0)
EXP_S = Exponential(1.0)
EXP_D = Exponential(0.33)


def test_grid_includes_both_ends():
    grid = build_lag_grid(0.0, 2.0, 0.05)
    assert len(grid) == 41
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2.0, abs=1e-9)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_lag_grid(-0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_lag_grid(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_lag_grid(0.0, 1.0, 0.0)
    # too many lags (1e12, and a count that overflows) fail before any array is built
    for lag_max, step in ((1.0, 1e-12), (1e300, 1e-300)):
        with pytest.raises(ParameterError) as err:
            build_lag_grid(0.0, lag_max, step)
        assert err.value.name == "step"
    assert len(build_lag_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS


def test_surrogate_objective_zero_lag_when_product_saturates():
    result = optimize(EXP_S, Exponential(0.6), F1, objective="surrogate",
                      lag_max=2.0, step=0.05)
    assert result.best_lag == 0.0
    rewards = [p.reward for p in result.points]
    assert np.all(np.diff(rewards) < 0)  # denominator grows, numerator pinned


def test_exact_objective_deterministic_hand_optimum():
    # G = exp(-(1.5 - lag)) for lag <= 0.5, then exp(-1)/(lag + 0.5): peak at 0.5
    result = optimize(Deterministic(1.0), Deterministic(0.5), F1,
                      objective="exact", lag_max=2.0, step=0.01)
    assert result.best_lag == pytest.approx(0.5, abs=0.011)
    assert result.best_reward == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_simulated_tracks_exact_pointwise():
    exact = optimize(EXP_S, EXP_D, F1, objective="exact", lag_max=1.0, step=0.25)
    sim = optimize(EXP_S, EXP_D, F1, objective="simulated", lag_max=1.0, step=0.25,
                   n=10**6, seed=21)
    for pe, ps in zip(exact.points, sim.points):
        assert pe.lag == ps.lag
        assert abs(pe.reward - ps.reward) < 3 * ps.std_error


def test_simulated_best_matches_exact_best():
    exact = optimize(EXP_S, EXP_D, F1, objective="exact", lag_max=2.0, step=0.1)
    sim = optimize(EXP_S, EXP_D, F1, objective="simulated", lag_max=2.0, step=0.1,
                   n=200_000, seed=3)
    se = max(p.std_error for p in sim.points)
    assert abs(sim.best_reward - exact.best_reward) < 4 * se


def test_bit_identical_reproducibility():
    kwargs = dict(objective="simulated", lag_max=0.5, step=0.25, n=20_000, seed=11)
    a = optimize(EXP_S, EXP_D, F1, **kwargs)
    b = optimize(EXP_S, EXP_D, F1, **kwargs)
    assert a == b


def test_tie_breaks_toward_zero_lag():
    # dyadic lags keep the deterministic denominator exactly 1.0, and a
    # vanishing decay rate makes every reward exactly 1.0: a three-way tie
    f = ExponentialReward(1e-18)
    result = optimize(Deterministic(1.0), Deterministic(0.5), f,
                      objective="exact", lag_max=0.5, step=0.25)
    rewards = [p.reward for p in result.points]
    assert rewards == [1.0, 1.0, 1.0]
    assert result.best_lag == 0.0


@pytest.mark.parametrize("objective", ["simulated", "exact", "surrogate"])
def test_nan_points_never_win(objective):
    # two point masses at zero: the lag-0 cycle spans no time, so its point is
    # NaN; the next lag, 1/60, spans 1/60 per job and scores 60 f(0) = 60
    zero = Deterministic(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize(zero, zero, F1, objective=objective, lag_max=1.0)
    assert math.isnan(result.points[0].reward)
    assert result.best_lag == result.points[1].lag
    assert result.best_reward == pytest.approx(60.0, rel=1e-12)


def test_default_grid_span():
    result = optimize(EXP_S, EXP_D, F1, objective="exact")
    assert len(result.points) == 61
    assert result.points[-1].lag == pytest.approx(3.0, abs=1e-9)


def test_exact_points_match_reward_exact():
    result = optimize(EXP_S, EXP_D, F1, objective="exact", lag_max=0.5, step=0.25)
    for p in result.points:
        assert p.reward == pytest.approx(
            _closed_rewards(EXP_S, EXP_D, F1, [p.lag])[0], rel=1e-9
        )
        assert p.std_error == 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        optimize(EXP_S, EXP_D, F1, objective="golden")
    with pytest.raises(ValueError):
        optimize(EXP_S, EXP_D, F1, objective="simulated", n=500)
    with pytest.raises(ValueError):
        optimize(EXP_S, EXP_D, F1, objective="simulated", n=20_000, burn_in=20_000)
    with pytest.raises(ValueError):
        optimize(EXP_S, EXP_D, PolynomialReward(1.0), objective="surrogate")
    with pytest.raises(DivergentMGFError):
        optimize(EXP_S, EXP_D, ExponentialReward(4.0), objective="surrogate")


def test_csv_trailer_carries_summary(tmp_path):
    result = optimize(EXP_S, EXP_D, F1, objective="exact", lag_max=0.5, step=0.25)
    path = tmp_path / "grid.csv"
    result.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lag,reward,std_error"
    assert len(lines) == 2 + len(result.points)
    assert lines[-1].startswith("# best_lag=")
