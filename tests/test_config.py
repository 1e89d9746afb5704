"""Config literal parsing and field-path errors."""

import pytest

from qlag import (
    Deterministic,
    Exponential,
    ExponentialReward,
    GradualLinear,
    PolynomialReward,
    Stationary,
    TruncatedNormal,
    Uniform,
    Window,
)
from qlag.config import (
    ConfigError,
    parse_distribution,
    parse_experiment,
    parse_reward,
    parse_schedule,
    parse_window,
)


class TestDistributionLiterals:
    def test_all_kinds(self):
        assert parse_distribution({"kind": "exponential", "mean": 1.0}) == Exponential(1.0)
        assert parse_distribution({"kind": "uniform", "lower": 0, "upper": 2}) == Uniform(0.0, 2.0)
        assert parse_distribution(
            {"kind": "truncnorm", "mu": 1, "sigma": 0.5, "lower": 0, "upper": 2}
        ) == TruncatedNormal(1.0, 0.5, 0.0, 2.0)
        assert parse_distribution({"kind": "deterministic", "value": 1.0}) == Deterministic(1.0)

    def test_missing_field_names_path(self):
        with pytest.raises(ConfigError) as err:
            parse_distribution({"kind": "exponential"}, "service")
        assert err.value.field == "service.mean"

    def test_invalid_value_names_path(self):
        with pytest.raises(ConfigError) as err:
            parse_distribution({"kind": "uniform", "lower": -1, "upper": 2}, "delay")
        assert err.value.field == "delay"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_distribution({"kind": "gamma", "mean": 1.0}, "service")
        assert err.value.field == "service.kind"


class TestRewardLiterals:
    def test_kinds(self):
        assert parse_reward({"kind": "exp", "kappa": 1.0}) == ExponentialReward(1.0)
        assert parse_reward({"kind": "poly", "gamma": 2.0}) == PolynomialReward(2.0)

    def test_errors(self):
        with pytest.raises(ConfigError) as err:
            parse_reward({"kind": "exp"}, "reward")
        assert err.value.field == "reward.kappa"
        with pytest.raises(ConfigError):
            parse_reward({"kind": "exp", "kappa": -1.0})


class TestScheduleLiterals:
    def test_none_passthrough(self):
        assert parse_schedule(None) is None

    def test_stationary(self):
        assert parse_schedule({"kind": "stationary", "t_s": 1.0, "t_d": 0.33}) == Stationary(1.0, 0.33)

    def test_gradual(self):
        obj = {
            "kind": "gradual",
            "t_s_start": 1.0, "t_s_end": 0.5,
            "t_d_start": 0.33, "t_d_end": 0.1667,
            "over_jobs": 50000,
        }
        assert parse_schedule(obj) == GradualLinear(1.0, 0.5, 0.33, 0.1667, 50000)

    def test_abrupt_segment_validation(self):
        good = parse_schedule({"kind": "abrupt", "segments": [[10000, 1.0, 0.33]]})
        assert good.segments == ((10000, 1.0, 0.33),)
        with pytest.raises(ConfigError) as err:
            parse_schedule({"kind": "abrupt", "segments": [[10000, 1.0]]}, "schedule")
        assert "segments[0]" in err.value.field


class TestWindowLiterals:
    def test_forms(self):
        assert parse_window("all") == Window.all()
        assert parse_window({"kind": "last_k", "k": 5000}) == Window.last_k(5000)
        assert parse_window({"kind": "sliding", "width": 2000}) == Window.sliding(2000)

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_window({"kind": "last_k"}, "window")
        with pytest.raises(ConfigError):
            parse_window({"kind": "weekly"}, "window")


def test_parse_experiment_full():
    obj = {
        "id": "A1",
        "service": {"kind": "exponential", "mean": 1.0},
        "delay": {"kind": "exponential", "mean": 0.33},
        "reward": {"kind": "exp", "kappa": 1.0},
        "methods": ["grid", "bayes", "surrogate"],
        "schedule": None,
        "n": 50000,
        "seeds": [1, 2],
    }
    spec = parse_experiment(obj)
    assert spec.id == "A1"
    assert spec.seeds == (1, 2)
    assert spec.reporting == Window.last_k(5000)


def test_parse_experiment_error_paths():
    with pytest.raises(ConfigError) as err:
        parse_experiment({"id": "x"}, "cases[0]")
    assert err.value.field == "cases[0].methods"
    obj = {
        "id": "x",
        "service": {"kind": "exponential", "mean": 1.0},
        "delay": {"kind": "exponential"},
        "reward": {"kind": "exp", "kappa": 1.0},
        "methods": ["bayes"],
        "n": 100,
        "seeds": [1],
    }
    with pytest.raises(ConfigError) as err:
        parse_experiment(obj, "cases[0]")
    assert err.value.field == "cases[0].delay.mean"
