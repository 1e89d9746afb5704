"""Trajectory generation: the waiting-time recursion and reward estimation."""

import math
import tracemalloc
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
    PolynomialReward,
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
    state_from_wait,
)
from qlag import simulator
from qlag.simulator import ParameterError, sample_jobs, schedule_means, sweep_lags
from qlag.streams import substream

F1 = ExponentialReward(1.0)


class Throughput:
    """f(t) = 1: the reward counts jobs, so it does not vanish at t = inf."""

    @staticmethod
    def eval(t):
        return np.ones_like(t)


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
        assert self.traj.busy.tolist() == [False, True, True]
        assert [state_from_wait(w) for w in self.traj.wait] == [
            STATE_IDLE, STATE_BUSY, STATE_BUSY,
        ]

    def test_job_records(self):
        # job 2 (1-based) waits 0.5 and finds the server busy
        assert self.traj.wait[1] == 0.5
        assert self.traj.busy[1]
        assert state_from_wait(self.traj.wait[1]) == STATE_BUSY

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
    assert not traj.busy.any()
    assert all(state_from_wait(w) == STATE_IDLE for w in traj.wait)


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


def test_windows_that_span_no_time_are_nan():
    # two point masses at zero: every inter-arrival time is zero
    traj = run_fixed_lag(Deterministic(0.0), Deterministic(0.0), 0.0, 100, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = estimate_reward(traj, F1, Window.last_k(50))
        value, se = estimate_reward_se(traj, F1)
        ((swept, swept_se),) = sweep_lags(Deterministic(0.0), Deterministic(0.0), [0.0], F1,
                                          100, burn_in=10)
    assert math.isnan(estimate) and math.isnan(value) and math.isnan(se)
    assert math.isnan(swept) and math.isnan(swept_se)


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


@pytest.mark.parametrize("make", [Window.last_k, Window.sliding])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, True, 0, -3, "4"])
def test_window_size_must_be_a_count(make, bad):
    with pytest.raises(EmptyWindowError):
        make(bad)


def test_window_size_accepts_numpy_integers():
    window = Window.last_k(np.int64(7))
    assert window == Window.last_k(7) and type(window.size) is int


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


@pytest.mark.parametrize("n", [1e4, 2.5, "100"])
def test_run_rejects_a_job_count_that_is_not_an_integer(n):
    with pytest.raises(ParameterError) as info:
        run_fixed_lag(Exponential(1.0), Exponential(0.33), 0.0, n, seed=0)
    assert info.value.name == "n"


class TestSweepLags:
    """The sweep kernel against per-lag runs. The kernel takes the same
    estimator's sums in another order, so each estimate must agree within a
    relative 1e-12 and each standard error within a relative 1e-9: hundreds
    of times the worst rounding seen (7e-16 on an estimate, 1.4e-12 on a
    point-mass standard error), and far below one standard error."""

    @staticmethod
    def reference(service, delay, lags, f, n, schedule=None, seed=0, burn_in=1000):
        window = Window.last_k(n - burn_in)
        return [
            estimate_reward_se(run_fixed_lag(service, delay, lag, n, schedule, seed), f, window)
            for lag in lags
        ]

    @staticmethod
    def assert_matches(swept, reference):
        assert len(swept) == len(reference)
        for (value, se), (ref_value, ref_se) in zip(swept, reference):
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
            assert se == pytest.approx(ref_se, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.id)
    def test_default_cases_equal_per_lag_runs(self, case):
        lags = [float(x) for x in np.linspace(0.0, 3.0 * case.service.mean, 7)]
        args = (case.service, case.delay, lags, case.reward, 20_000)
        self.assert_matches(sweep_lags(*args, seed=4), self.reference(*args, seed=4))

    def test_gradual_schedule_equals_per_lag_runs(self):
        sched = GradualLinear(1.0, 0.5, 0.33, 0.1667, 15_000)
        args = (Uniform(0.0, 2.0), Exponential(0.33), [0.0, 0.3, 1.1], F1, 20_000)
        self.assert_matches(sweep_lags(*args, schedule=sched, seed=6),
                            self.reference(*args, schedule=sched, seed=6))

    @pytest.mark.parametrize("burn_in", [0, 1, 2])
    def test_window_start_edges_equal_per_lag_runs(self, burn_in):
        args = (Exponential(1.0), Exponential(0.33), [0.0, 0.25, 2.0], F1, 5_000)
        self.assert_matches(sweep_lags(*args, seed=2, burn_in=burn_in),
                            self.reference(*args, seed=2, burn_in=burn_in))

    # Point masses run from burn-in 1: job 1 follows the idle job 0, so the
    # batch ratios really differ; past it they are equal, and their spread is
    # rounding noise that no relative tolerance can compare.
    @pytest.mark.parametrize("service, delay, lags, f, burn_in", [
        (Uniform(0.0, 2.0), Exponential(0.33), [0.0, 0.5, 1.0, 3.0], PolynomialReward(2.0), 1000),
        (Deterministic(1.0), Deterministic(0.5), [0.0, 0.25, 0.5, 0.75], F1, 1),
        (Deterministic(1.0), Deterministic(0.33), [0.0, 0.3, 0.6], F1, 1),
        (Uniform(0.0, 2.0), Uniform(0.0, 0.66), [2.0, 2.5, 5.0], F1, 1000),
        (Exponential(1.0), Exponential(0.33), [0.0, 0.25, 2.0], F1, 19_990),
        (Exponential(1.0), Exponential(0.33), [0.0, 0.25, 2.0], F1, 19_999),
        # an exponential reward takes the lags with kappa * lag <= 600 in
        # closed form and the others in the busy-set loop, where e^(kappa lag)
        # would overflow (a RuntimeWarning fails the test)
        (Exponential(1.0), Exponential(0.33), [0.0, 1.0, 800.0], F1, 1000),
        (Exponential(1.0), Exponential(0.33), [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
         ExponentialReward(300.0), 1000),
        (Exponential(1.0), Exponential(0.33), [1.9, 1.95, 1.99, 2.0, 2.01, 2.05, 2.1],
         ExponentialReward(300.0), 1000),
        # rewards near e^-680, where f(X + S) of every waiting job underflows
        (Uniform(2.4, 2.6), Uniform(0.4, 0.6), [1.9, 2.0], ExponentialReward(280.0), 1000),
        # waiting costs all but about e^-25 of a job's reward
        (Uniform(0.9, 1.1), Uniform(0.4, 0.6), [0.0, 0.1, 0.3], ExponentialReward(50.0), 1000),
        # the same (all but about 1.25^-120 = e^-27) for a reward that the
        # busy-set loop takes
        (Uniform(0.9, 1.1), Uniform(0.4, 0.6), [0.0, 0.1, 0.3], PolynomialReward(120.0), 1000),
        # a reward that does not vanish at t = inf: the pad cells of the
        # shorter batches must not count as jobs
        (Exponential(1.0), Exponential(0.33), [0.0, 1.0], Throughput(), 1000),
    ], ids=["poly2", "lag-equals-x", "every-job-waits", "no-job-waits",
            "fewer-jobs-than-batches", "one-job", "kappa1-lag800", "kappa300",
            "across-the-bound", "rewards-near-the-float-floor", "waiting-costs-nearly-all",
            "waiting-costs-nearly-all-poly", "throughput"])
    def test_edge_cases_equal_per_lag_runs(self, service, delay, lags, f, burn_in):
        args = (service, delay, lags, f, 20_000)
        swept = sweep_lags(*args, seed=3, burn_in=burn_in)
        self.assert_matches(swept, self.reference(*args, seed=3, burn_in=burn_in))
        if burn_in == 19_999:
            assert all(se == math.inf for _, se in swept)

    def test_reward_work_is_done_only_on_jobs_that_wait(self):
        # about a quarter of the jobs wait at a default-grid lag of case A1;
        # a sweep that evaluated every job at every lag would hand f 99% of L n
        case = default_cases()[0]

        class Counting:
            elements = 0

            def eval(self, t):
                self.elements += np.size(t)
                return case.reward.eval(t)

        f, n = Counting(), 100_000
        result = optimize(case.service, case.delay, f, objective="simulated", n=n, seed=5)
        assert f.elements < 0.35 * len(result.points) * n

    def test_exponential_reward_work_does_not_grow_with_the_lags(self):
        # the closed form evaluates f on each job at most twice, whatever the
        # number of lags; a per-lag loop would hand f about 0.25 L n elements
        case = default_cases()[0]
        elements = []

        class Counting(ExponentialReward):
            def eval(self, t):
                elements.append(np.size(t))
                return super().eval(t)

        n, lags = 100_000, np.linspace(0.0, 3.0 * case.service.mean, 6001)
        sweep_lags(case.service, case.delay, lags, Counting(case.reward.kappa), n)
        assert sum(elements) <= 2 * (n + simulator._BATCHES)

    def test_sweep_memory_is_bounded(self):
        # the default 61-lag grid at n = 1e5: a few n-job arrays, about 4 MB,
        # for the exponential branch (case A1's reward) and the busy-set loop
        case = default_cases()[0]
        for f in (case.reward, PolynomialReward(2.0)):
            tracemalloc.start()
            try:
                grid = optimize(case.service, case.delay, f, objective="simulated",
                                n=100_000, seed=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(grid.points) == 61
            assert peak < 8 * 2**20

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


class TestSortedRows:
    """The sorted sample-path layer against per-job brute force. Rows of
    weighted jobs are sorted by X with ``_sort_by_x`` and read at lag L the
    way both callers read them, at the first column with X > L; the reward
    N = sum w f(W + S) and the cycle C = sum w (L + D + W), W = max(X - L, 0),
    must match the per-job sums within a relative 1e-12. Each lag is read by
    both readers of the waiting jobs' reward: the shifted suffix sums where
    L <= _closed_lag_max(f), and f(X + S - L) on the waiting jobs always."""

    LAGS = [0.0, 0.5, 1.0, 1.7, 2.0, 2.0 + 1e-12, 2.6, 3.2]

    @staticmethod
    def jobs():
        rng = np.random.default_rng(11)
        shape = (6, 41)
        x = rng.uniform(-1.0, 3.5, shape)
        s = rng.exponential(0.5, shape)
        d = rng.uniform(0.0, 0.7, shape)
        w = rng.uniform(0.0, 1.0, shape)
        w[:, ::7] = 0.0  # cells that are no job, as the learner's fold pads are
        x[:, 2::5] = -np.inf  # jobs with no job before them, as job 0 is
        x[1, 4:9] = 0.5  # ties at X == L for L = 0.5: those jobs do not wait
        x[3, 10:13] = 2.0  # and for L = 2
        x[2] = -np.abs(x[2])  # no job with X > 0, so c = 0
        return x, s, d, w

    @staticmethod
    def brute_force(x, s, d, w, f, lag):
        wait = np.maximum(x - lag, 0.0)
        n = np.sum(w * f.eval(wait + s), axis=1)
        c = np.sum(w * (lag + d + wait), axis=1)
        return n, c

    @pytest.mark.parametrize("f", [ExponentialReward(1.0), ExponentialReward(300.0),
                                   PolynomialReward(2.0)], ids=["exp1", "exp300", "poly2"])
    def test_reads_match_per_job_sums(self, f):
        x, s, d, w = self.jobs()
        # no suffix sum is read at a cell with X = -inf; there X + D is taken
        # as D, as the learner's fold pads are, so that a 0 weight gives 0
        xd = np.where(np.isfinite(x), x, 0.0) + d
        key, w_, xs, fs, d_ = (a.copy() for a in (x, w, x + s, f.eval(s), d))
        simulator._sort_by_x(key, w_, xs, fs, d_, xd)
        assert np.all(key[:, 1:] >= key[:, :-1])
        w_pre = simulator._prefix_sums(w_)
        wf_pre = simulator._prefix_sums(w_ * fs)
        wd_pre = simulator._prefix_sums(w_ * d_)
        wxd_suf = simulator._suffix_sums(w_ * xd)
        c, shifted = simulator._exp_shift(key, xs)
        assert c[2] == 0.0 and np.all(shifted[2] == 0.0)
        lag_max = simulator._closed_lag_max(f)
        if isinstance(f, ExponentialReward):
            assert lag_max == simulator._EXP_LAG_MAX / f.kappa
            we_suf = simulator._suffix_sums(w_ * f.eval(shifted))
        else:
            assert lag_max == -math.inf
        closed_reads = 0
        for lag in self.LAGS:
            want_n, want_c = self.brute_force(x, s, d, w, f, lag)
            for r in range(len(key)):
                b = np.searchsorted(key[r], lag, side="right")
                assert np.all(key[r, b:] > lag) and np.all(key[r, :b] <= lag)
                got_c = lag * w_pre[r, b] + wd_pre[r, b] + wxd_suf[r, b]
                busy = np.sum(w_[r, b:] * f.eval(xs[r, b:] - lag))
                readers = [busy]
                if lag <= lag_max:
                    readers.append(math.exp(f.kappa * (lag - c[r])) * we_suf[r, b])
                    closed_reads += 1
                for got_busy in readers:
                    assert wf_pre[r, b] + got_busy == pytest.approx(want_n[r], rel=1e-12, abs=0)
                assert got_c == pytest.approx(want_c[r], rel=1e-12, abs=0)
        if isinstance(f, ExponentialReward):
            assert closed_reads > 0
            assert (closed_reads < len(self.LAGS) * len(key)) == (f.kappa == 300.0)


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

    @pytest.mark.parametrize("make", [
        lambda bad: Stationary(bad, 0.33),
        lambda bad: Stationary(1.0, bad),
        lambda bad: GradualLinear(1.0, bad, 0.3, 0.3, 100),
        lambda bad: GradualLinear(1.0, 0.5, 0.3, bad, 100),
        lambda bad: AbruptPiecewise(((100, 1.0, bad),)),
        lambda bad: AbruptPiecewise(((100, 1.0, 0.33), (100, bad, 0.33))),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_means_must_be_positive_and_finite(self, make, bad):
        with pytest.raises(InvalidScheduleError):
            make(bad)

    # every job count must be a positive integer: NaN and inf would break
    # schedule_means, and 2.5 or True would silently run as 2 or 1 jobs
    BAD_COUNTS = [math.nan, math.inf, 2.5, True, 0, -3, "4"]

    @pytest.mark.parametrize("bad", BAD_COUNTS + [1])  # a ramp needs 2 jobs
    def test_gradual_ramp_length_must_be_a_count(self, bad):
        with pytest.raises(InvalidScheduleError):
            GradualLinear(1.0, 2.0, 0.3, 0.3, over_jobs=bad)

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    def test_abrupt_segment_length_must_be_a_count(self, bad):
        with pytest.raises(InvalidScheduleError):
            AbruptPiecewise(((100, 1.0, 0.33), (bad, 0.5, 0.1667)))

    def test_numpy_integer_counts_accepted(self):
        gradual = GradualLinear(1.0, 2.0, 0.3, 0.3, over_jobs=np.int64(11))
        assert schedule_means(gradual, 12)[0].tolist() == pytest.approx(
            schedule_means(GradualLinear(1.0, 2.0, 0.3, 0.3, 11), 12)[0].tolist())
        abrupt = AbruptPiecewise(((np.int32(3), 1.0, 0.33), (np.int64(2), 0.5, 0.1667)))
        assert schedule_means(abrupt, 5)[0].tolist() == [1.0, 1.0, 1.0, 0.5, 0.5]

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
