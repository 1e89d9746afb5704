"""Conjugate posterior updates and the adaptive lag loop."""

import math

import numpy as np
import pytest

from qlag import (
    AbruptPiecewise,
    BayesConfig,
    Exponential,
    ExponentialReward,
    GradualLinear,
    PolynomialReward,
    PosteriorState,
    STATE_BUSY,
    STATE_IDLE,
    Uniform,
    Window,
    default_cases,
    draw_lag,
    run_adaptive,
    update,
)
from qlag import bayes, simulator
from qlag._fmt import fmt_float
from qlag.bayes import adaptive_log_to_csv
from qlag.simulator import assemble_trajectory
from qlag.streams import substream
from test_conditions import GaussDecay

F1 = ExponentialReward(1.0)
CFG = BayesConfig()


class TestUpdate:
    def test_idle_idle_conjugacy(self):
        post = update(PosteriorState(1.0, 1.0), 0.5, STATE_IDLE, STATE_IDLE, CFG)
        assert (post.alpha, post.beta) == (4.0, 1.5)
        assert post.updates_applied == 1

    def test_busy_busy_conjugacy(self):
        post = update(PosteriorState(1.0, 1.0), 0.5, STATE_BUSY, STATE_BUSY, CFG)
        assert (post.alpha, post.beta) == (2.0, 1.5)

    def test_mixed_states_leave_posterior_unchanged(self):
        start = PosteriorState(5.0, 2.0, updates_applied=3)
        assert update(start, 0.7, STATE_BUSY, STATE_IDLE, CFG) is start
        assert update(start, 0.7, STATE_IDLE, STATE_BUSY, CFG) is start

    def test_first_job_updates_like_same_state_pair(self):
        idle = update(PosteriorState(1.0, 1.0), 0.5, STATE_IDLE, None, CFG)
        busy = update(PosteriorState(1.0, 1.0), 0.5, STATE_BUSY, None, CFG)
        assert (idle.alpha, idle.beta) == (4.0, 1.5)
        assert (busy.alpha, busy.beta) == (2.0, 1.5)

    def test_forced_run_accumulates_exactly(self):
        post = PosteriorState(1.0, 1.0)
        samples = [0.25, 0.5, 0.125, 1.0]
        for x in samples:
            post = update(post, x, STATE_IDLE, STATE_IDLE, CFG)
        assert post.alpha == 1.0 + 3.0 * len(samples)
        assert post.beta == 1.0 + sum(samples)
        assert post.updates_applied == len(samples)

    def test_parameters_never_decrease(self):
        rng = substream(3, "never-decrease")
        post = PosteriorState(1.0, 1.0)
        states = [STATE_IDLE, STATE_BUSY]
        prev = None
        for _ in range(200):
            state = states[rng.integers(2)]
            nxt = update(post, float(rng.uniform(0.01, 2.0)), state, prev, CFG)
            assert nxt.alpha >= post.alpha and nxt.beta >= post.beta
            post, prev = nxt, state

    def test_directionality_idle_shrinks_lag_faster(self):
        idle = busy = PosteriorState(1.0, 1.0)
        for _ in range(100):
            idle = update(idle, 0.5, STATE_IDLE, STATE_IDLE, CFG)
            busy = update(busy, 0.5, STATE_BUSY, STATE_BUSY, CFG)
        assert idle.mean_rate > busy.mean_rate
        assert idle.mean_lag < busy.mean_lag

    def test_validation(self):
        with pytest.raises(ValueError):
            PosteriorState(0.0, 1.0)
        with pytest.raises(ValueError):
            update(PosteriorState(1.0, 1.0), 0.0, STATE_IDLE, None, CFG)
        with pytest.raises(ValueError):
            update(PosteriorState(1.0, 1.0), 0.5, "unknown", None, CFG)


class TestDrawLag:
    def test_concentrated_posterior_draws_near_mean(self):
        rng = substream(1, "draw-conc")
        post = PosteriorState(1e6, 1e6)
        draws = np.array([draw_lag(post, rng) for _ in range(10_000)])
        assert 0.99 <= draws.mean() <= 1.01

    def test_diffuse_prior_positive(self):
        rng = substream(2, "draw-pos")
        draws = [draw_lag(PosteriorState(1.0, 1.0), rng) for _ in range(1000)]
        assert min(draws) > 0.0

    def test_fixed_seed_reproduces_sequence(self):
        a = [draw_lag(PosteriorState(2.0, 3.0), substream(5, "seq"))]
        b = [draw_lag(PosteriorState(2.0, 3.0), substream(5, "seq"))]
        assert a == b


class TestRunAdaptive:
    def test_deterministic_per_seed(self):
        r1 = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1, n=5000, seed=9)
        r2 = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1, n=5000, seed=9)
        assert np.array_equal(r1.lags, r2.lags)
        assert r1.posterior == r2.posterior
        assert r1.reward == r2.reward

    def test_zero_epsilons_freeze_alpha(self):
        cfg = BayesConfig(eps_idle=0.0, eps_busy=0.0, rule="gamma")
        r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1,
                         n=2000, cfg=cfg, seed=4, reporting=Window.last_k(500))
        assert np.all(r.alphas == 1.0)
        assert r.betas[-1] > 1.0

    def test_posterior_concentration_after_long_run(self):
        r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1, n=50_000, seed=2)
        tail = r.lags[-100:]
        assert tail.std() < 0.25 * tail.mean()

    def test_reporting_window_must_fit(self):
        with pytest.raises(ValueError):
            run_adaptive(Exponential(1.0), Exponential(0.33), None, F1,
                         n=1000, reporting=Window.last_k(5000))

    def test_float_job_count_names_n(self):
        with pytest.raises(simulator.ParameterError) as err:
            run_adaptive(Exponential(1.0), Exponential(0.33), None, F1, n=2e4)
        assert err.value.name == "n"

    def test_sliding_reporting_returns_series(self):
        r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1,
                         n=3000, seed=7, reporting=Window.sliding(500))
        assert len(r.reward) == 3000 - 500 + 1

    def test_abrupt_schedule_accepted(self):
        sched = AbruptPiecewise(((1500, 1.0, 0.33), (1500, 0.5, 0.1667)))
        r = run_adaptive(Exponential(1.0), Exponential(0.33), sched, F1,
                         n=3000, seed=7, reporting=Window.last_k(500))
        assert np.isfinite(r.reward)

    def test_posterior_matches_replayed_updates(self):
        # replay the recursion from the logged lags: the loop's posterior is
        # exactly the fold of `update` over (lag, state) pairs
        r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1,
                         n=2000, cfg=BayesConfig(rule="gamma"), seed=13,
                         reporting=Window.last_k(500))
        traj = r.trajectory
        post = PosteriorState(1.0, 1.0)
        prev = None
        for j in range(len(traj)):
            state = STATE_BUSY if traj.busy[j] else STATE_IDLE
            post = update(post, float(r.lags[j]), state, prev, CFG)
            prev = state
        assert post == r.posterior

    def test_wait_recursion_uses_drawn_lag(self):
        r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1,
                         n=2000, seed=13, reporting=Window.last_k(500))
        traj = r.trajectory
        expect = np.maximum(traj.service[:-1] - r.lags[1:] - traj.delay[1:], 0.0)
        assert np.array_equal(traj.wait[1:], expect)
        assert traj.wait[0] == 0.0


class TestRules:
    def test_gamma_rule_reproduces_pinned_run(self):
        # values recorded from the Gamma-state loop before the gradient
        # learner became the default; the rule must keep giving them
        r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1, n=500,
                         cfg=BayesConfig(rule="gamma"), seed=21,
                         reporting=Window.last_k(100))
        assert r.posterior == PosteriorState(661.0, 260.2898943385243, updates_applied=280)
        assert r.lags[0] == 21.753387527696017
        assert r.lags[1] == 17.010774562159995
        assert r.lags[250] == 0.5545685205301485
        assert r.lags[-1] == 0.3926848766269015
        assert r.reward == 0.34313246259330676
        assert r.lag_estimate == r.posterior.mean_lag
        assert (r.alphas[-1], r.betas[-1]) == (r.posterior.alpha, r.posterior.beta)

    def test_gradient_rule_starts_at_zero_lag_and_leaves_prior(self):
        cfg = BayesConfig(alpha0=2.0, beta0=3.0)
        r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1,
                         n=2000, cfg=cfg, seed=4, reporting=Window.last_k(500))
        assert r.lags[0] == 0.0
        assert np.all(r.lags >= 0.0)
        assert r.posterior == PosteriorState(2.0, 3.0, updates_applied=2000)
        assert r.alphas is None and r.betas is None
        assert r.lag_estimate >= 0.0

    def test_gradient_rule_reads_the_reward(self):
        # the optimal lag moves from about 0.3 at kappa = 1 to 0 at kappa = 0.01,
        # so the same draws must give different lag paths
        s, d = Exponential(1.0), Exponential(0.33)
        steep = run_adaptive(s, d, None, ExponentialReward(1.0), n=5000, seed=6,
                             reporting=Window.last_k(500))
        gentle = run_adaptive(s, d, None, ExponentialReward(0.01), n=5000, seed=6,
                              reporting=Window.last_k(500))
        assert np.array_equal(steep.trajectory.service, gentle.trajectory.service)
        assert not np.array_equal(steep.lags, gentle.lags)
        assert steep.lags[-1000:].mean() > gentle.lags[-1000:].mean()

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            BayesConfig(rule="thompson")


@pytest.mark.parametrize("rule", ["gradient", "gamma"])
# the gradient rule moves the lag at block starts, so j + 1 = k * _BLOCK is
# where a lag that peeked at S[j] would show it
@pytest.mark.parametrize("j", [1, bayes._BLOCK - 1, 50 * bayes._BLOCK - 1, 801])
def test_lag_depends_only_on_earlier_jobs(monkeypatch, rule, j):
    # job j+1 is called when job j enters service, before S[j] is known, so
    # changing S[j] must leave the lags of jobs 0..j+1 as they were
    service, delay = Exponential(1.0), Exponential(0.33)
    real = simulator.sample_jobs

    def run():
        return run_adaptive(service, delay, None, F1, n=2000, cfg=BayesConfig(rule=rule),
                            seed=8, reporting=Window.last_k(500))

    base = run()
    # flip the server state job j+1 finds, so that both rules see the change
    was_busy = bool(base.trajectory.busy[j + 1])

    def changed_service(law, rng, n, means):
        draws = real(law, rng, n, means)
        if law is service:
            draws = draws.copy()
            draws[j] = 0.0 if was_busy else draws[j] + 50.0
        return draws

    monkeypatch.setattr(simulator, "sample_jobs", changed_service)
    changed = run()
    assert changed.trajectory.busy[j + 1] != was_busy
    assert np.array_equal(base.lags[: j + 2], changed.lags[: j + 2])
    assert not np.array_equal(base.lags, changed.lags)


def test_adaptive_log_csv(tmp_path):
    r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1,
                     n=50, seed=3, reporting=Window.last_k(10))
    path = tmp_path / "log.csv"
    adaptive_log_to_csv(r, F1, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,lag_drawn,alpha,beta,state,reward_window"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] == "idle" and first[5] == ""
    assert lines[-1].split(",")[5] != ""
    # the gradient rule keeps no belief, so alpha and beta stay empty
    assert all(line.split(",")[2:4] == ["", ""] for line in lines[1:])


def test_adaptive_log_csv_gamma_belief(tmp_path):
    r = run_adaptive(Exponential(1.0), Exponential(0.33), None, F1, n=50,
                     cfg=BayesConfig(rule="gamma"), seed=3, reporting=Window.last_k(10))
    path = tmp_path / "log.csv"
    adaptive_log_to_csv(r, F1, path)
    last = path.read_text().splitlines()[-1].split(",")
    assert last[2:4] == [fmt_float(r.posterior.alpha), fmt_float(r.posterior.beta)]


def test_config_validation():
    with pytest.raises(ValueError):
        BayesConfig(alpha0=0.0)
    with pytest.raises(ValueError):
        BayesConfig(eps_idle=-1.0)
    assert BayesConfig().rule == "gradient"


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha0", "beta0", "eps_idle", "eps_busy"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        BayesConfig(**{field: value})


@pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
def test_posterior_rejects_non_finite(alpha, beta):
    with pytest.raises(ValueError):
        PosteriorState(alpha, beta)


def _reference_gradient_lags(s, d, f):
    """The gradient learner as first written: one np.stack of the fold's
    observation rows per step, reduced by ``obs @ weights``. The library's
    loop must reproduce it bit for bit."""
    n = len(s)
    rho = 1.0 - 1.0 / bayes._MEMORY
    weights = (1.0 - rho) * rho ** np.arange(bayes._BLOCK, -1.0, -1.0)
    lags = np.empty(n)
    wait = np.zeros(n)
    means = np.zeros(5)
    lag = 0.0
    folded = 0

    def step(lo, hi):
        nonlocal means
        w = wait[lo:hi]
        busy = w > 0
        sojourn = w + s[lo:hi]
        obs = np.stack((
            f.eval(sojourn),
            lags[lo:hi] + d[lo:hi] + w,
            -f.deriv(sojourn) * busy,
            ~busy,
            s[lo:hi],
        ))
        means = rho ** (hi - lo) * means + obs @ weights[lo - hi:]
        reward, cycle, d_reward, d_cycle, service = means
        if reward <= 0 or cycle <= 0:
            return lag
        scale = service / (1.0 - rho ** hi)
        return max(lag + bayes._STEP * scale * scale * (d_reward / reward - d_cycle / cycle), 0.0)

    for start in range(0, n, bayes._BLOCK):
        if start - 1 > folded:
            lag = step(folded, start - 1)
            folded = start - 1
        end = min(start + bayes._BLOCK, n)
        lags[start:end] = lag
        first = max(start, 1)
        wait[first:end] = np.maximum(s[first - 1:end - 1] - lag - d[first:end], 0.0)
    return lags, step(folded, n)


def _reference_with_waits(s, d, f):
    """The reference loop in the library learner's return shape: per-job
    lags, the waits recomputed from those lags, and the final lag."""
    lags, lag_estimate = _reference_gradient_lags(s, d, f)
    wait = np.zeros(len(s))
    wait[1:] = np.maximum(s[:-1] - lags[1:] - d[1:], 0.0)
    return lags, wait, lag_estimate


class TestGradientOracle:
    """run_adaptive's gradient rule against the reference loop.

    The library reads each fold from sorted per-block sums, so its sums add
    in another order, and the learner amplifies rounding over a run: a
    relative 1e-12 change of one early service draw moves the lag by up to
    about 1e-11 at job 20k and 1e-5 at job 50k. Lags, the final lag and the
    waits are compared within an absolute LAG_TOL, the windowed reward within
    a relative REWARD_TOL. At n = 20 000 the largest gaps over these inputs
    were 3.3e-12 in the lag and 5.4e-14 in the reward.
    """

    LAG_TOL = 1e-9
    REWARD_TOL = 1e-9

    CASES = {
        "A": (Exponential(1.0), Exponential(0.33)),
        "B": (Exponential(1.0), Uniform(0.0, 0.66)),
        "C": (Uniform(0.0, 2.0), Uniform(0.0, 0.66)),
        "D": (Uniform(0.0, 2.0), Exponential(0.33)),
    }
    # under exp(0.01) the optimum is zero lag and the learner stays clipped
    # there, so those cases pin the clip; the other two move the lag
    REWARDS = {
        "exp1": ExponentialReward(1.0),
        "exp0.01": ExponentialReward(0.01),
        "poly2": PolynomialReward(2.0),
    }

    @staticmethod
    def _assert_matches_reference(monkeypatch, service, delay, schedule, f, n, seed, reporting):
        def run():
            return run_adaptive(service, delay, schedule, f, n=n, seed=seed, reporting=reporting)

        got = run()
        with monkeypatch.context() as m:
            m.setattr(bayes, "_gradient_lags", _reference_with_waits)
            want = run()
        tol = TestGradientOracle.LAG_TOL
        np.testing.assert_allclose(got.lags, want.lags, rtol=0, atol=tol)
        assert got.lag_estimate == pytest.approx(want.lag_estimate, rel=0, abs=tol)
        np.testing.assert_allclose(got.trajectory.wait, want.trajectory.wait, rtol=0, atol=tol)
        assert got.reward == pytest.approx(want.reward, rel=TestGradientOracle.REWARD_TOL, abs=0)
        return got

    @pytest.mark.parametrize("reward", list(REWARDS))
    @pytest.mark.parametrize("case", list(CASES))
    def test_cases_and_rewards(self, monkeypatch, case, reward):
        service, delay = self.CASES[case]
        for seed in (1, 2, 3):
            self._assert_matches_reference(monkeypatch, service, delay, None,
                                           self.REWARDS[reward], 20_000, seed,
                                           Window.last_k(5000))

    def test_every_short_run(self, monkeypatch):
        # n = 2..40 covers every fold length the final step can see (1..17)
        service, delay = self.CASES["A"]
        for n in range(2, 41):
            self._assert_matches_reference(monkeypatch, service, delay, None, F1, n, 5,
                                           Window.all())

    def test_exponential_branch_switch(self, monkeypatch):
        # with the bound lowered, kappa L crosses it partway through the run:
        # the early folds read the waiting jobs' reward from the suffix sums of
        # f(X + S - c), the later ones evaluate f on the waiting suffix
        monkeypatch.setattr(simulator, "_EXP_LAG_MAX", 0.2)
        service, delay = self.CASES["A"]
        for seed in (1, 2):
            got = self._assert_matches_reference(monkeypatch, service, delay, None, F1,
                                                 20_000, seed, Window.last_k(5000))
            assert got.lags.min() <= 0.2 < got.lags.max()

    @pytest.mark.parametrize("case", ["A", "C"])
    def test_duck_typed_reward(self, monkeypatch, case):
        # neither shipped family: every fold evaluates f on the waiting suffix
        service, delay = self.CASES[case]
        got = self._assert_matches_reference(monkeypatch, service, delay, None, GaussDecay(),
                                             20_000, 1, Window.last_k(5000))
        assert got.lags.max() > 0.0

    @pytest.mark.parametrize("case", ["A", "C"])
    def test_sharp_exponential_reward(self, monkeypatch, case):
        # exp(300) under the suite's error::RuntimeWarning filter: the shift c
        # keeps the suffix sums from underflowing and e^(kappa (L - c)) from
        # overflowing. On case A the lag climbs past 600 / kappa = 2, where the
        # folds switch to the waiting suffix; on case C it stays at zero
        service, delay = self.CASES[case]
        f = ExponentialReward(300.0)
        for seed in (1, 2, 3):
            got = self._assert_matches_reference(monkeypatch, service, delay, None, f,
                                                 20_000, seed, Window.last_k(5000))
            if case == "A":
                assert got.lags.max() > simulator._EXP_LAG_MAX / f.kappa

    def test_gradual_schedule(self, monkeypatch):
        schedule = GradualLinear(1.0, 0.5, 0.33, 0.1667, 10_000)
        service, delay = self.CASES["A"]
        for f in self.REWARDS.values():
            self._assert_matches_reference(monkeypatch, service, delay, schedule, f,
                                           20_000, 4, Window.last_k(5000))


class TestHandOff:
    """The trajectory run_adaptive builds from its learner's waits equals the
    one assemble_trajectory recomputes from the same draws and lags, column by
    column with ==."""

    GRADUAL = GradualLinear(1.0, 0.5, 0.33, 0.1667, 2000)
    ABRUPT = AbruptPiecewise(((2000, 1.0, 0.33), (2000, 0.5, 0.1667)))

    @staticmethod
    def _assert_hand_off(service, delay, schedule, f, rule):
        r = run_adaptive(service, delay, schedule, f, n=4000, cfg=BayesConfig(rule=rule),
                         seed=5, reporting=Window.last_k(500))
        got = r.trajectory
        want = assemble_trajectory(got.service, got.delay, r.lags, got.seed,
                                   got.lag_policy_description)
        for column in ("wait", "iat", "sojourn", "busy"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
        assert got.busy.any() and not got.busy.all()

    @pytest.mark.parametrize("rule", bayes.RULES)
    @pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.id)
    def test_default_cases(self, case, rule):
        self._assert_hand_off(case.service, case.delay, None, case.reward, rule)

    @pytest.mark.parametrize("rule", bayes.RULES)
    @pytest.mark.parametrize("schedule", [GRADUAL, ABRUPT], ids=["gradual", "abrupt"])
    def test_schedules(self, schedule, rule):
        self._assert_hand_off(Exponential(1.0), Exponential(0.33), schedule,
                              PolynomialReward(2.0), rule)
