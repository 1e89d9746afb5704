"""Adaptive lag selection: a renewal-reward gradient learner and a Gamma-state rule.

``run_adaptive`` learns the lag online while it serves jobs. The long-run
reward per unit time is the renewal-reward ratio

    G(lag) = E[f(W + S)] / (lag + E[D] + E[W]),    W = max(S_prev - lag - D, 0)

``BayesConfig.rule`` picks the learner:

- ``"gradient"`` (default) ascends G. Each completed job contributes its
  reward N = f(W + S), its cycle C = lag + D + W, and their pathwise lag
  derivatives from dW/dlag = -1{busy}: dN = -f'(W + S) 1{busy} and
  dC = 1 - 1{busy} (infinitesimal perturbation analysis). Exponentially
  forgotten running means of N, C, dN and dC give d log G / dlag =
  dN/N - dC/C. The learner starts at zero lag and, every few jobs, moves the
  lag by a step scaled to the observed mean service time, clipped at 0. The
  step, the block length and the forgetting horizon are module constants
  shared by every law and reward.
- ``"gamma"`` is the paper's conjugate rule. The lag is 1/theta for a rate
  theta with a Gamma(alpha, beta) belief. Each job draws theta, applies lag
  1/theta, observes whether the arriving job found the server idle or busy,
  and, only when two consecutive jobs saw the same state, folds the drawn lag
  into beta and credits eps_idle or eps_busy to alpha. Mixed consecutive
  states leave the belief untouched. An update adds the drawn lag (close to
  beta/alpha once alpha is large) to beta and eps_idle = 3 or eps_busy = 1
  to alpha, so the mean lag beta/alpha drifts down and never climbs back;
  the rule ignores the reward and settles below the optimum whenever the
  optimal lag is positive.

Either way a job's lag depends only on what had been observed when the job
was called, and a fixed seed reproduces the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._fmt import write_table
from .distributions import DistributionSpec
from .simulator import (
    STATE_BUSY,
    STATE_IDLE,
    EmptyWindowError,
    ParamSchedule,
    Trajectory,
    Window,
    _draw,
    _trajectory,
    estimate_reward,
    state_from_wait,
    wait_step,
)
from .streams import substream

__all__ = [
    "PosteriorState",
    "BayesConfig",
    "RULES",
    "AdaptiveResult",
    "draw_lag",
    "update",
    "run_adaptive",
    "adaptive_log_to_csv",
]


@dataclass(frozen=True)
class PosteriorState:
    """Gamma(alpha, beta) belief over the lag rate theta."""

    alpha: float
    beta: float
    updates_applied: int = 0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(
                f"Gamma parameters must be finite and positive, got ({self.alpha}, {self.beta})"
            )

    @property
    def mean_rate(self) -> float:
        return self.alpha / self.beta

    @property
    def mean_lag(self) -> float:
        """Plug-in lag estimate 1 / E[theta]."""
        return self.beta / self.alpha


RULES = ("gradient", "gamma")

# Gradient learner constants, chosen once for every law and reward: the lag
# moves once per block of jobs, the running means forget with a horizon of
# _MEMORY jobs, and a step is _STEP * (mean service time)^2 * d log G / dlag.
_BLOCK = 16
_MEMORY = 2000
_STEP = 0.02


@dataclass(frozen=True)
class BayesConfig:
    """Learner choice plus the Gamma-state rule's prior and state credits.

    ``alpha0``, ``beta0``, ``eps_idle`` and ``eps_busy`` only drive the
    ``"gamma"`` rule; the ``"gradient"`` rule has no tunable fields.
    """

    alpha0: float = 1.0
    beta0: float = 1.0
    eps_idle: float = 3.0
    eps_busy: float = 1.0
    rule: str = "gradient"

    def __post_init__(self):
        if not (0 < self.alpha0 < math.inf and 0 < self.beta0 < math.inf):
            raise ValueError("prior parameters must be finite and positive")
        if not (0 <= self.eps_idle < math.inf and 0 <= self.eps_busy < math.inf):
            raise ValueError("state increments must be finite and nonnegative")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}, got {self.rule!r}")


def draw_lag(post: PosteriorState, rng: np.random.Generator) -> float:
    """Sample theta from the posterior and return the lag 1/theta."""
    theta = rng.gamma(post.alpha, 1.0 / post.beta)
    return 1.0 / max(theta, 1e-300)


def update(
    post: PosteriorState,
    lag_sample: float,
    state_now: str,
    state_prev: Optional[str],
    cfg: BayesConfig,
) -> PosteriorState:
    """Conjugate update for one observed job.

    The first job (state_prev None) and any same-state pair fold the applied
    lag into beta and credit eps_idle/eps_busy to alpha; a state flip leaves
    the posterior unchanged.
    """
    if state_now not in (STATE_IDLE, STATE_BUSY):
        raise ValueError(f"unknown server state {state_now!r}")
    if lag_sample <= 0:
        raise ValueError(f"lag sample must be positive, got {lag_sample}")
    if state_prev is not None and state_now != state_prev:
        return post
    eps = cfg.eps_idle if state_now == STATE_IDLE else cfg.eps_busy
    return PosteriorState(
        alpha=post.alpha + eps,
        beta=post.beta + lag_sample,
        updates_applied=post.updates_applied + 1,
    )


@dataclass(frozen=True)
class AdaptiveResult:
    """One adaptive run.

    ``lags`` holds the lag applied to each job's call and ``reward`` the
    windowed reward of the resulting trajectory; ``lag_estimate`` is the
    learner's final lag. Under the ``"gamma"`` rule that is the plug-in
    lag ``posterior.mean_lag``, and ``alphas``/``betas`` trace the belief
    after each job. Under the ``"gradient"`` rule it is the lag the learner
    would apply next, ``posterior`` is the untouched prior with
    ``updates_applied`` counting the jobs folded into the gradient, and
    ``alphas``/``betas`` are None: that rule keeps no belief.
    """

    trajectory: Trajectory
    posterior: PosteriorState
    reward: Union[float, np.ndarray]
    reporting: Window
    lags: np.ndarray
    alphas: Optional[np.ndarray]
    betas: Optional[np.ndarray]
    lag_estimate: float


def _gamma_lags(s: np.ndarray, d: np.ndarray, cfg: BayesConfig, rng: np.random.Generator):
    """The Gamma-state loop: one posterior draw and one update per job.
    Each lag depends on the state the job before found, so the waits are
    stepped one scalar job at a time."""
    n = len(s)
    post = PosteriorState(cfg.alpha0, cfg.beta0)
    lags = np.empty(n)
    wait = np.zeros(n)
    alphas = np.empty(n)
    betas = np.empty(n)
    prev_state: Optional[str] = None
    for j in range(n):
        t = draw_lag(post, rng)
        if j > 0:
            wait[j] = max(float(s[j - 1]) - t - float(d[j]), 0.0)
        state = state_from_wait(wait[j])
        post = update(post, t, state, prev_state, cfg)
        lags[j] = t
        alphas[j] = post.alpha
        betas[j] = post.beta
        prev_state = state
    return lags, wait, alphas, betas, post


def _gradient_lags(s: np.ndarray, d: np.ndarray, f) -> tuple[np.ndarray, np.ndarray, float]:
    """Renewal-reward gradient ascent on the lag, starting from zero lag.

    Job j's lag is set when job j-1 enters service, so it may use jobs
    0..j-2 only. At each block start the jobs completed since the last step
    are folded into the running means of (N, C, dN, dC, S), each job's
    weight decaying by a factor rho per later job, and the lag takes one
    step. Returns the per-job lags and waits, and the lag after folding
    every job.
    """
    n = len(s)
    rho = 1.0 - 1.0 / _MEMORY
    weights = (1.0 - rho) * rho ** np.arange(_BLOCK, -1.0, -1.0)
    # fold length k -> (a (5, k) row buffer, rho**k, the last k weights)
    folds = {}
    lags = np.empty(n)
    wait = np.zeros(n)
    means = np.zeros(5)
    lag = 0.0
    folded = 0

    def step(lo: int, hi: int) -> float:
        k = hi - lo
        if k not in folds:
            folds[k] = (np.empty((5, k)), rho ** k, weights[-k:])
        obs, decay, fold_weights = folds[k]
        w = wait[lo:hi]
        busy = w > 0
        sojourn = w + s[lo:hi]
        # rows N, C, dN = -f'(W + S) 1{busy}, dC = 1{idle}, S
        obs[0] = f.eval(sojourn)
        np.add(lags[lo:hi], d[lo:hi], out=obs[1])
        obs[1] += w
        np.negative(f.deriv(sojourn), out=obs[2])
        obs[2] *= busy
        obs[3] = ~busy
        obs[4] = s[lo:hi]
        np.multiply(means, decay, out=means)
        np.add(means, obs @ fold_weights, out=means)
        reward, cycle, d_reward, d_cycle, service = means.tolist()
        if reward <= 0 or cycle <= 0:
            return lag
        scale = service / (1.0 - rho ** hi)
        return max(lag + _STEP * scale * scale * (d_reward / reward - d_cycle / cycle), 0.0)

    for start in range(0, n, _BLOCK):
        if start - 1 > folded:
            lag = step(folded, start - 1)
            folded = start - 1
        end = min(start + _BLOCK, n)
        lags[start:end] = lag
        first = max(start, 1)
        wait_step(s[first - 1:end - 1], lag, d[first:end], out=wait[first:end])
    return lags, wait, step(folded, n)


def run_adaptive(
    service: DistributionSpec,
    delay: DistributionSpec,
    schedule: Optional[ParamSchedule],
    f,
    n: int,
    cfg: BayesConfig = BayesConfig(),
    seed: int = 0,
    reporting: Window = Window.last_k(5000),
) -> AdaptiveResult:
    """Run the adaptive loop for n jobs and report the windowed reward.

    ``cfg.rule`` selects the learner (see the module docstring). The lag a
    job is called with is the lag recorded in ``lags`` and applied to the
    trajectory. Deterministic for a fixed seed.
    """
    # n < 2 is _draw's ParameterError, raised ahead of a window that does not fit
    if reporting.kind != "all" and reporting.size > n >= 2:
        raise EmptyWindowError(
            f"reporting window of {reporting.size} jobs exceeds the {n}-job run"
        )
    s, d = _draw(service, delay, n, schedule, seed)

    if cfg.rule == "gamma":
        lags, wait, alphas, betas, post = _gamma_lags(s, d, cfg, substream(seed, "posterior"))
        lag_estimate = post.mean_lag
        description = "adaptive gamma-posterior lag"
    else:
        lags, wait, lag_estimate = _gradient_lags(s, d, f)
        post = PosteriorState(cfg.alpha0, cfg.beta0, updates_applied=n)
        alphas = betas = None
        description = "adaptive renewal-reward gradient lag"

    traj = _trajectory(s, d, wait, lags, seed, description)
    reward = estimate_reward(traj, f, reporting)
    return AdaptiveResult(traj, post, reward, reporting, lags, alphas, betas, lag_estimate)


def adaptive_log_to_csv(result: AdaptiveResult, f, path) -> None:
    """Per-job log: index,lag_drawn,alpha,beta,state,reward_window.

    lag_drawn is the lag the job was called with; alpha and beta follow
    ``result.alphas``/``result.betas`` and are left empty under the gradient
    rule, which keeps no belief.
    reward_window is the rolling estimate over the trailing window of the
    reporting size, left empty until enough jobs have accumulated.
    """
    traj = result.trajectory
    n = len(traj)
    width = result.reporting.size if result.reporting.kind != "all" else n
    windowed = estimate_reward(traj, f, Window.sliding(width)).tolist()
    no_belief = [None] * n
    write_table(path, {
        "index": range(1, n + 1),
        "lag_drawn": result.lags,
        "alpha": no_belief if result.alphas is None else result.alphas,
        "beta": no_belief if result.betas is None else result.betas,
        "state": np.where(traj.busy, STATE_BUSY, STATE_IDLE),
        "reward_window": [None] * (width - 1)
        + [ratio if math.isfinite(ratio) else None for ratio in windowed],
    })
