"""Trajectory generation: the waiting-time recursion and reward estimation."""

import math
import warnings

import numpy as np
import pytest

from qlag import (
    AbruptPiecewise,
    Deterministic,
    EmptyWindowError,
    Exponential,
    ExponentialReward,
    GradualLinear,
    InvalidScheduleError,
    STATE_BUSY,
    STATE_IDLE,
    Stationary,
    TruncatedNormal,
    Uniform,
    Window,
    estimate_reward,
    estimate_reward_se,
    default_cases,
    optimize,
    run_fixed_lag,
    server_state_at_arrival,
    state_from_wait,
)
from qlag import simulator
from qlag.simulator import ParameterError, sample_jobs, schedule_means, sweep_lags
from qlag.streams import substream

F1 = ExponentialReward(1.0)


class TestDeterministicTrace:
    # service 1, delay 0.5, lag 0: W = [0, 0.5, 0.5], IAT = [0, 0.5, 1.0]
    def setup_method(self):
        self.traj = run_fixed_lag(Deterministic(1.0), Deterministic(0.5), 0.0, 3, seed=1)

    def test_waits(self):
        assert self.traj.wait.tolist() == [0.0, 0.5, 0.5]

    def test_sojourns(self):
        assert self.traj.sojourn.tolist() == [1.0, 1.5, 1.5]

    def test_iats(self):
        assert self.traj.iat.tolist() == [0.0, 0.5, 1.0]

    def test_states(self):
        assert [j.server_state_at_arrival for j in self.traj] == [
            STATE_IDLE, STATE_BUSY, STATE_BUSY,
        ]

    def test_job_records(self):
        job = self.traj.job(2)
        assert job.index == 2
        assert job.wait == 0.5
        assert server_state_at_arrival(job) == STATE_BUSY

    def test_steady_state_reward_values(self):
        assert estimate_reward(self.traj, F1, Window.last_k(1)) == pytest.approx(
            math.exp(-1.5), rel=1e-12
        )
        assert estimate_reward(self.traj, F1, Window.last_k(2)) == pytest.approx(
            2.0 * math.exp(-1.5) / 1.5, rel=1e-12
        )


def test_large_lag_means_no_waiting():
    traj = run_fixed_lag(Deterministic(1.0), Deterministic(0.5), 10.0, 3, seed=1)
    assert np.all(traj.wait == 0.0)
    assert all(j.server_state_at_arrival == STATE_IDLE for j in traj)


def test_state_from_wait():
    assert state_from_wait(0.5) == STATE_BUSY
    assert state_from_wait(0.0) == STATE_IDLE


def test_seed_reproducibility():
    a = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.2, 5000, seed=3)
    b = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.2, 5000, seed=3)
    assert np.array_equal(a.service, b.service)
    assert np.array_equal(a.wait, b.wait)
    assert np.array_equal(a.iat, b.iat)


def test_common_random_numbers_across_lags():
    a = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.1, 5000, seed=3)
    b = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.9, 5000, seed=3)
    assert np.array_equal(a.service, b.service)
    assert np.array_equal(a.delay, b.delay)


def test_wait_nonincreasing_in_lag_jobwise():
    prev = None
    for lag in (0.0, 0.25, 0.5, 1.0):
        traj = run_fixed_lag(Exponential(1.0), Exponential(0.33), lag, 20000, seed=3)
        if prev is not None:
            assert np.all(traj.wait <= prev + 1e-12)
        prev = traj.wait


def test_throughput_identity():
    # IATs tile the arrival timeline: reconstructing arrival times from the
    # event sequence (enter service, wait lag, random delay) reproduces each
    # inter-arrival gap, and their total spans first to last arrival
    traj = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.3, 10000, seed=4)
    gaps = traj.wait[:-1] + traj.lag[1:] + traj.delay[1:]
    assert np.array_equal(gaps, traj.iat[1:])
    arrivals = np.cumsum(traj.iat)
    assert arrivals[0] == 0.0  # first job carries no inter-arrival time
    assert arrivals[-1] - arrivals[0] == pytest.approx(traj.iat.sum(), rel=1e-12)


def test_exp_exp_mean_wait_matches_closed_form():
    traj = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.0, 10**6, seed=42)
    assert abs(traj.wait[1:].mean() - 0.7519) / 0.7519 < 0.01


def test_stationarity_between_halves():
    traj = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.0, 10**6, seed=8)
    w = traj.wait[1000:]
    half = len(w) // 2
    first, second = w[:half], w[half:]
    pooled_se = math.sqrt(first.var() / len(first) + second.var() / len(second))
    assert abs(first.mean() - second.mean()) < 3 * pooled_se


def test_degenerate_lag_gives_zero_waits_and_renewal_reward():
    service = Uniform(0.0, 2.0)
    delay = Exponential(0.33)
    lag = 2.0  # >= sup(S)
    traj = run_fixed_lag(service, delay, lag, 200_000, seed=6)
    assert np.all(traj.wait == 0.0)
    ghat, se = estimate_reward_se(traj, F1, Window.last_k(199_000))
    expected = service.mgf(-1.0) / (lag + delay.mean)
    assert abs(ghat - expected) < 3 * se


def test_tiny_kappa_reward_degenerates_to_throughput():
    traj = run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.0, 50_000, seed=5)
    f = ExponentialReward(1e-9)
    ghat = estimate_reward(traj, f, Window.all())
    throughput = len(traj) / traj.iat.sum()
    assert ghat == pytest.approx(throughput, rel=1e-6)


def test_sliding_window_series():
    traj = run_fixed_lag(Deterministic(1.0), Deterministic(0.5), 0.0, 3, seed=1)
    series = estimate_reward(traj, F1, Window.sliding(2))
    e = math.exp(-1.0)
    e15 = math.exp(-1.5)
    assert series == pytest.approx(
        [(e + e15) / 0.5, (e15 + e15) / 1.5], rel=1e-12
    )


def test_width_one_sliding_window_is_nan_over_job_zero():
    # job 0 has no inter-arrival time: its width-1 window spans no time
    traj = run_fixed_lag(Deterministic(1.0), Deterministic(0.5), 0.0, 3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = estimate_reward(traj, F1, Window.sliding(1))
    assert math.isnan(series[0])
    assert series[1:] == pytest.approx([math.exp(-1.5) / 0.5, math.exp(-1.5) / 1.0], rel=1e-12)


@pytest.mark.parametrize(
    "n, b", [(100_017, 32), (100_000, 32), (1003, 32), (31, 31), (64, 7), (5, 2)]
)
def test_batch_sums_equal_array_split_chunk_sums(n, b):
    x = substream(4, "batch-sums").exponential(size=n)
    expected = np.array([chunk.sum() for chunk in np.array_split(x, b)])
    assert np.array_equal(simulator._batch_sums(x, b), expected)


def test_window_errors():
    traj = run_fixed_lag(Deterministic(1.0), Deterministic(0.5), 0.0, 3, seed=1)
    with pytest.raises(EmptyWindowError):
        Window.last_k(0)
    with pytest.raises(EmptyWindowError):
        estimate_reward(traj, F1, Window.last_k(4))
    with pytest.raises(EmptyWindowError):
        estimate_reward(traj, F1, Window.sliding(5))


def test_run_validation():
    with pytest.raises(ValueError):
        run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.0, 1, seed=0)
    with pytest.raises(ValueError):
        run_fixed_lag(Exponential(1.0), Exponential(0.33), -0.5, 10, seed=0)


@pytest.mark.parametrize("lag", [math.nan, math.inf])
def test_run_rejects_non_finite_lag(lag):
    with pytest.raises(ParameterError) as info:
        run_fixed_lag(Exponential(1.0), Exponential(0.33), lag, 10, seed=0)
    assert info.value.name == "lag"


class TestSweepLags:
    """The sweep kernel against per-lag runs; both use the same arithmetic,
    so every estimate and standard error must agree bit for bit."""

    @staticmethod
    def reference(service, delay, lags, f, n, schedule=None, seed=0, burn_in=1000):
        window = Window.last_k(n - burn_in)
        return [
            estimate_reward_se(run_fixed_lag(service, delay, lag, n, schedule, seed), f, window)
            for lag in lags
        ]

    @pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.id)
    def test_default_cases_equal_per_lag_runs(self, case):
        lags = [float(x) for x in np.linspace(0.0, 3.0 * case.service.mean, 7)]
        args = (case.service, case.delay, lags, case.reward, 20_000)
        assert sweep_lags(*args, seed=4) == self.reference(*args, seed=4)

    def test_gradual_schedule_equals_per_lag_runs(self):
        sched = GradualLinear(1.0, 0.5, 0.33, 0.1667, 15_000)
        args = (Uniform(0.0, 2.0), Exponential(0.33), [0.0, 0.3, 1.1], F1, 20_000)
        assert (sweep_lags(*args, schedule=sched, seed=6)
                == self.reference(*args, schedule=sched, seed=6))

    @pytest.mark.parametrize("burn_in", [0, 1, 2])
    def test_window_start_edges_equal_per_lag_runs(self, burn_in):
        args = (Exponential(1.0), Exponential(0.33), [0.0, 0.25, 2.0], F1, 5_000)
        assert (sweep_lags(*args, seed=2, burn_in=burn_in)
                == self.reference(*args, seed=2, burn_in=burn_in))

    @pytest.mark.parametrize("step", [1.5, 0.05])
    def test_optimize_draws_each_stream_once(self, monkeypatch, step):
        calls = []
        real = simulator.sample_jobs

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "sample_jobs", counting)
        result = optimize(Exponential(1.0), Exponential(0.33), F1, objective="simulated",
                          lag_max=3.0, step=step, n=10_000, seed=1)
        assert len(result.points) > 1
        assert len(calls) == 2

    @pytest.mark.parametrize("kwargs, name", [
        (dict(lags=[0.0, math.nan]), "lag"),
        (dict(lags=[-0.1]), "lag"),
        (dict(burn_in=-1), "burn_in"),
        (dict(burn_in=100), "burn_in"),
        (dict(n=1, burn_in=0), "n"),
    ])
    def test_validation_names_the_parameter(self, kwargs, name):
        args = {"lags": [0.0], "n": 100, "burn_in": 10, **kwargs}
        with pytest.raises(ParameterError) as info:
            sweep_lags(Exponential(1.0), Exponential(0.33), args["lags"], F1, args["n"],
                       burn_in=args["burn_in"])
        assert info.value.name == name


class TestSchedules:
    def test_stationary_rescales_means(self):
        ts, td = schedule_means(Stationary(0.5, 0.1667), 4)
        assert np.all(ts == 0.5) and np.all(td == 0.1667)

    def test_gradual_endpoints_and_hold(self):
        sched = GradualLinear(1.0, 0.5, 0.33, 0.1667, over_jobs=11)
        ts, td = schedule_means(sched, 15)
        assert ts[0] == 1.0 and ts[10] == pytest.approx(0.5)
        assert np.all(ts[10:] == ts[10])
        assert td[0] == 0.33 and td[10] == pytest.approx(0.1667)

    def test_abrupt_segments(self):
        sched = AbruptPiecewise(((3, 1.0, 0.33), (2, 0.5, 0.1667)))
        ts, td = schedule_means(sched, 5)
        assert ts.tolist() == [1.0, 1.0, 1.0, 0.5, 0.5]
        assert td.tolist() == [0.33, 0.33, 0.33, 0.1667, 0.1667]

    def test_abrupt_too_short_raises(self):
        sched = AbruptPiecewise(((3, 1.0, 0.33),))
        with pytest.raises(InvalidScheduleError):
            run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.0, 5, schedule=sched, seed=0)

    def test_scale_family_sampling_tracks_means(self):
        means = np.array([0.5, 1.0, 2.0, 4.0])
        draws = sample_jobs(Exponential(1.0), substream(1, "sched"), 4, means)
        base = sample_jobs(Exponential(1.0), substream(1, "sched"), 4, None)
        assert np.allclose(draws, base * means)

    def test_truncnorm_shift_sampling(self):
        spec = TruncatedNormal(1.0, 0.5, 0.0, 2.0)
        means = np.full(1000, 1.5)
        draws = sample_jobs(spec, substream(2, "sched-tn"), 1000, means)
        assert draws.min() >= 0.5 - 1e-12 and draws.max() <= 2.5 + 1e-12
        with pytest.raises(InvalidScheduleError):
            sample_jobs(spec, substream(2, "x"), 4, np.full(4, 0.1))

    def test_fixed_lag_with_stationary_schedule_matches_target_mean(self):
        traj = run_fixed_lag(
            Exponential(1.0), Exponential(0.33), 0.0, 100_000,
            schedule=Stationary(0.5, 0.1667), seed=12,
        )
        assert traj.service.mean() == pytest.approx(0.5, rel=0.02)
        assert traj.delay.mean() == pytest.approx(0.1667, rel=0.02)


def test_csv_export(tmp_path):
    traj = run_fixed_lag(Deterministic(1.0), Deterministic(0.5), 0.0, 3, seed=1)
    path = tmp_path / "trace.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,service,delay,wait,sojourn,iat,state"
    assert lines[1] == "1,1,0.5,0,1,0,idle"
    assert lines[2] == "2,1,0.5,0.5,1.5,0.5,busy"
    assert lines[3] == "3,1,0.5,0.5,1.5,1,busy"
