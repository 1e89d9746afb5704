"""The three closed-loop workloads of the qlag benchmark.

Every workload is driven by one caller in one process: the next op starts
only after the previous one has returned and been checked. Each workload
makes one kind of op, and every op does the same kind and amount of work, so
latency percentiles do not fall between clusters of unlike ops.

A workload object is built by its set-up (inputs and check references are
generated from the workload seed), exposes ``op(k)`` for the k-th op and
``check(k, result)``, which returns True when the op's output is right. The
benchmark times only ``op``. ``cycle`` is the number of ops after which the
input pattern repeats; runs measure whole cycles so that every input kind
appears equally often.

The ops call into qlag through module attributes (``gridsearch.optimize``,
``bayes.run_adaptive``, ``conditions.check_general``...) so that the traced
run can wrap those calls from outside the package.
"""

from __future__ import annotations

import math

import numpy as np

from qlag import analytics, bayes, conditions, gridsearch, scenarios
from qlag.distributions import Exponential, TruncatedNormal, Uniform
from qlag.reward import ExponentialReward, PolynomialReward
from qlag.simulator import Window

VERDICTS = frozenset(
    {conditions.VERDICT_HOLDS, conditions.VERDICT_FAILS, conditions.VERDICT_INDETERMINATE}
)


def _exact_optimum(service, delay, f) -> float:
    return gridsearch.optimize(service, delay, f, objective="exact").best_reward


class Sweep:
    """One simulated lag sweep per op: ``optimize(objective="simulated")`` at
    its defaults (61 lags on [0, 3 t_s], n = 100 000, burn-in 1000).

    Ops cycle through the 12 law pairs of ``default_cases()``; op k uses seed
    ``seed + k``. Check: the simulated optimum lies within ``SE_MULTIPLE``
    batch-means standard errors of the exact grid optimum G*.
    """

    name = "sweep"
    N = 100_000
    SE_MULTIPLE = 6.0
    useful_draws = 2 * N

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = scenarios.default_cases()
        self.cycle = len(self.cases)
        self.g_star = [_exact_optimum(c.service, c.delay, c.reward) for c in self.cases]

    def warm_up(self) -> None:
        case = self.cases[0]
        gridsearch.optimize(case.service, case.delay, case.reward,
                            objective="simulated", n=self.N, seed=self.seed - 1)

    def op(self, k: int):
        case = self.cases[k % self.cycle]
        return gridsearch.optimize(case.service, case.delay, case.reward,
                                   objective="simulated", n=self.N, seed=self.seed + k)

    def check(self, k: int, result) -> bool:
        if len(result.points) != 61:
            return False
        best = next(p for p in result.points if p.lag == result.best_lag)
        gap = abs(result.best_reward - self.g_star[k % self.cycle])
        return best.reward == result.best_reward and gap <= self.SE_MULTIPLE * best.std_error


class Adaptive:
    """One adaptive run per op: ``run_adaptive(n=50_000, ExponentialReward(1),
    reporting=Window.last_k(5000))``.

    Ops cycle through cases A1-D2 of ``default_cases()`` (the law pairs of
    acceptance criterion 7); op k uses seed ``seed + k``. Check: the waits
    and the reported window ratio recomputed from the trajectory arrays
    match the returned ones, and 0 < G_be <= 1.2 G*. On the seed code
    G_be / G* has a standard deviation of about 0.03 per op on cases A2 and
    B2, so 1.1 would fail correct ops about once in 4000; 1.2 is 6.7 such
    deviations out.
    """

    name = "adaptive"
    N = 50_000
    WINDOW = 5000
    PLAUSIBLE_MAX = 1.2
    useful_draws = 2 * N

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = [c for c in scenarios.default_cases() if c.id[0] in "ABCD"]
        self.cycle = len(self.cases)
        self.reward = ExponentialReward(1.0)
        self.g_star = [_exact_optimum(c.service, c.delay, self.reward) for c in self.cases]

    def warm_up(self) -> None:
        self._run(self.cases[0], self.seed - 1)

    def _run(self, case, seed: int):
        return bayes.run_adaptive(case.service, case.delay, None, self.reward,
                                  n=self.N, seed=seed, reporting=Window.last_k(self.WINDOW))

    def op(self, k: int):
        return self._run(self.cases[k % self.cycle], self.seed + k)

    def check(self, k: int, result) -> bool:
        traj = result.trajectory
        n = self.N
        if len(traj) != n or len(result.lags) != n:
            return False
        s, d, lags = traj.service, traj.delay, result.lags
        wait = np.zeros(n)
        wait[1:] = np.maximum(s[:-1] - lags[1:] - d[1:], 0.0)
        iat = np.zeros(n)
        iat[1:] = wait[:-1] + lags[1:] + d[1:]
        tail = slice(n - self.WINDOW, n)
        ratio = float(np.sum(self.reward.eval(wait[tail] + s[tail])) / np.sum(iat[tail]))
        g_be = float(result.reward)
        return (
            np.allclose(traj.wait, wait, rtol=1e-12, atol=1e-12)
            and math.isclose(g_be, ratio, rel_tol=1e-9)
            and 0.0 < g_be <= self.PLAUSIBLE_MAX * self.g_star[k % self.cycle]
        )


def _truncnorm(mean: float) -> TruncatedNormal:
    # the same shape scenarios.default_cases() uses for its truncated normals
    return TruncatedNormal(mu=mean, sigma=mean / 2.0, lower=0.0, upper=2.0 * mean)


def _uniform(mean: float) -> Uniform:
    return Uniform(0.0, 2.0 * mean)


class Analytic:
    """One quadrature bundle per op at fresh means t_s ~ U[0.9, 1.1],
    t_d ~ U[0.30, 0.36] drawn from the seed.

    The bundle: ``optimize(objective="exact")`` on a 16-point lag grid for
    truncnorm/truncnorm with exp(1) and with poly(2), uniform/uniform with
    poly(2) and uniform/exponential with exp(1); then ``check_general``
    (with its tail-assumption probe), ``check_polynomial`` and
    ``check_surrogate`` on the uniform/exponential pair. The closed-form
    exp/exp pair and exponential service with a polynomial reward (about
    200 ms per lag) are left out so that every op costs about the same.
    Check: the reward at each best lag agrees with ``monte_carlo_reward``
    within ``SE_MULTIPLE`` standard errors, and every checker returns one
    of its three verdicts.
    """

    name = "analytic"
    GRID_POINTS = 16
    MC_SAMPLES = 400_000
    SE_MULTIPLE = 5.0
    INPUTS = 4096
    cycle = 1
    useful_draws = 0

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        # the last row is reserved for the warm-up op
        self.means = rng.uniform((0.9, 0.30), (1.1, 0.36), size=(self.INPUTS + 1, 2))
        self.exp1 = ExponentialReward(1.0)
        self.poly2 = PolynomialReward(2.0)

    def combos(self, row: int):
        t_s, t_d = (float(v) for v in self.means[row])
        return (
            (_truncnorm(t_s), _truncnorm(t_d), self.exp1),
            (_truncnorm(t_s), _truncnorm(t_d), self.poly2),
            (_uniform(t_s), _uniform(t_d), self.poly2),
            (_uniform(t_s), Exponential(t_d), self.exp1),
        )

    def _bundle(self, row: int):
        combos = self.combos(row)
        grids = []
        for service, delay, f in combos:
            step = 3.0 * service.mean / (self.GRID_POINTS - 1)
            grids.append(gridsearch.optimize(service, delay, f, objective="exact", step=step))
        service, delay, _ = combos[3]
        reports = (
            conditions.check_general(service, delay, self.exp1),
            conditions.check_polynomial(service, delay, self.poly2.gamma),
            *conditions.check_surrogate(service, delay, self.exp1.kappa),
        )
        return grids, reports

    def warm_up(self) -> None:
        self._bundle(self.INPUTS)

    def op(self, k: int):
        return self._bundle(k % self.INPUTS)

    def check(self, k: int, result) -> bool:
        grids, reports = result
        if any(r.verdict not in VERDICTS for r in reports):
            return False
        for (service, delay, f), grid in zip(self.combos(k % self.INPUTS), grids, strict=True):
            if len(grid.points) != self.GRID_POINTS:
                return False
            mc = analytics.monte_carlo_reward(service, delay, f, grid.best_lag,
                                              self.MC_SAMPLES, seed=self.seed + k)
            if not abs(mc.value - grid.best_reward) <= self.SE_MULTIPLE * mc.std_error:
                return False
        return True


WORKLOADS = {w.name: w for w in (Sweep, Adaptive, Analytic)}
