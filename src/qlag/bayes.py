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
  shared by every law and reward. The jobs of one block all ran at one lag
  L, and such a job waits iff X = S_prev - D > L, so each block is sorted by
  X once, ahead of the loop: a fold then reads its sums from prefix and
  suffix sums at one ``bisect`` of L (see ``_gradient_lags``).
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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._fmt import write_table
from .distributions import DistributionSpec
from .reward import ExponentialReward
from .simulator import (
    STATE_BUSY,
    STATE_IDLE,
    EmptyWindowError,
    ParamSchedule,
    Trajectory,
    Window,
    _closed_lag_max,
    _draw,
    _exp_shift,
    _prefix_sums,
    _sort_by_x,
    _suffix_sums,
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
_CHUNK = 256  # blocks whose fold tables are built at a time: memory stays flat in n


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

    A fold [lo, hi) is its head job lo, which ran at the previous block's
    lag, and its body, jobs of one block, which all ran at one lag L.
    ``_fold_tables`` lays each body out as a sorted sample-path row of
    ``simulator`` with the fold weights w, so that one ``bisect`` of L reads
    every sum: a job that does not wait has N = f(S), C = L + D and dC = 1,
    one that waits has C = X + D, and in the exponential branch dN = kappa N.
    Past that branch f and f' are evaluated on the waiting suffix only. The
    head is one scalar term. The waits come from one ``wait_step`` over the
    run, as in ``assemble_trajectory``.

    These sums add in another order than a fold of each job's terms, and
    the learner amplifies rounding: a relative 1e-12 change of one early
    service draw moves the lag by up to about 1e-11 at job 20k and 1e-5 at
    job 50k (exp(1) and poly(2) rewards). Two orders of the same float
    operations, or two numpy builds, give lags that agree within a
    tolerance, not bit for bit.
    """
    n = len(s)
    rho = 1.0 - 1.0 / _MEMORY
    weights = (1.0 - rho) * rho ** np.arange(_BLOCK, -1.0, -1.0)
    blocks = (n - 1) // _BLOCK + 1
    if isinstance(f, ExponentialReward):
        kappa = f.kappa

        def terms(t):  # f(t) and -f'(t) at a scalar sojourn time
            e = math.exp(-kappa * t)
            return e, kappa * e
    else:
        def terms(t):
            return float(f.eval(t)), -float(f.deriv(t))

    lag_max = _closed_lag_max(f)
    block_lags = []
    reward = cycle = d_reward = d_cycle = service = 0.0
    lag = prev = 0.0  # the lags of the fold's body and of its head
    for i0 in range(0, blocks, _CHUNK):
        tables, scalars, xs_rows, w_rows = _fold_tables(s, d, f, rho, weights, i0,
                                                        min(i0 + _CHUNK, blocks))
        x, w, wf, wd, wxd, we = tables
        for r, (ws, c, xh, xsh, wh, hf, hd, hxd, decay, norm) in enumerate(scalars):
            block_lags.append(lag)
            start = r * (_BLOCK + 1)
            b = bisect_right(x, lag, start, start + _BLOCK)  # body jobs from b on wait
            n_sum = wf[b]
            c_sum = lag * w[b] + wd[b] + wxd[b]
            dn_sum = 0.0
            dc_sum = w[b]
            if b < start + _BLOCK:
                if lag <= lag_max:
                    n_busy = math.exp(kappa * (lag - c)) * we[b]
                    n_sum += n_busy
                    dn_sum = kappa * n_busy
                else:
                    t = xs_rows[r, b - start:] - lag
                    w_busy = w_rows[r, b - start:]
                    n_sum += float(f.eval(t) @ w_busy)
                    dn_sum = -float(f.deriv(t) @ w_busy)
            if xh > prev:
                nh, dnh = terms(xsh - prev)
                n_sum += wh * nh
                dn_sum += wh * dnh
                c_sum += hxd
            else:
                n_sum += hf
                c_sum += prev * wh + hd
                dc_sum += wh
            reward = decay * reward + n_sum
            cycle = decay * cycle + c_sum
            d_reward = decay * d_reward + dn_sum
            d_cycle = decay * d_cycle + dc_sum
            service = decay * service + ws
            prev = lag
            if reward > 0 and cycle > 0:
                scale = service / norm
                lag = max(lag + _STEP * scale * scale * (d_reward / reward - d_cycle / cycle), 0.0)
    lags = np.repeat(block_lags, _BLOCK)[:n]
    wait = np.zeros(n)
    wait_step(s[:-1], lags[1:], d[1:], out=wait[1:])
    return lags, wait, lag


def _fold_tables(s, d, f, rho, weights, i0, i1):
    """The lag-free tables of folds i0..i1-1 of ``_gradient_lags``.

    Fold i is [lo, hi) with lo = max(16 i - 1, 0) and hi = 16 i + 15, or n
    for the last fold. Its body is row i - i0 of 16 cells, block i's jobs
    from lo + 1 to hi - 1; the other cells get weight 0 and X = -inf. Returns:

    - six memoryviews over rows of 17, each row sorted by X: X, then the
      prefix sums of w, w f(S) and w D, then the suffix sums of w (X + D)
      and, for an exponential reward, of w f(X + S - c);
    - per fold, as a list: the fold's sum of w S, c, the head's X, X + S
      and weight, its weighted f(S), D and X + D, rho^(hi - lo) and
      1 - rho^hi;
    - the sorted rows of X + S and of w, for the waiting suffix.
    """
    n = len(s)
    rows = i1 - i0
    j0, j1 = i0 * _BLOCK, min(i1 * _BLOCK, n)
    last = (n - 1) // _BLOCK
    w = np.tile(np.append(weights[2:], 0.0), rows)
    if i1 > last:
        tail = n - last * _BLOCK
        start = (last - i0) * _BLOCK
        w[start:] = 0.0
        w[start:start + tail] = weights[_BLOCK + 1 - tail:]
    if i0 == 0:
        w[0] = 0.0
    cell_s, cell_d, cell_x = np.zeros((3, rows * _BLOCK))
    cell_s[:j1 - j0] = s[j0:j1]
    cell_d[:j1 - j0] = d[j0:j1]
    a = max(j0, 1)
    np.subtract(s[a - 1:j1 - 1], d[a:j1], out=cell_x[a - j0:j1 - j0])
    ws = np.sum((w * cell_s).reshape(rows, _BLOCK), axis=1)
    x, w, xs, wf, wd, wxd = (np.reshape(row, (rows, _BLOCK)) for row in (
        np.where(w > 0, cell_x, -np.inf), w, cell_x + cell_s,
        w * np.asarray(f.eval(cell_s), dtype=float), w * cell_d, w * (cell_x + cell_d)))
    _sort_by_x(x, w, xs, wf, wd, wxd)
    tab = np.zeros((6, rows, _BLOCK + 1))
    tab[0, :, :-1] = x
    _prefix_sums(w, out=tab[1])
    _prefix_sums(wf, out=tab[2])
    _prefix_sums(wd, out=tab[3])
    _suffix_sums(wxd, out=tab[4])
    c = np.zeros(rows)
    if _closed_lag_max(f) >= 0.0:
        c, shifted = _exp_shift(x, xs)
        _suffix_sums(w * f.eval(shifted), out=tab[5])
    i = np.arange(i0, i1)
    lo = np.maximum(i * _BLOCK - 1, 0)
    hi = np.where(i == last, n, i * _BLOCK + _BLOCK - 1)
    wh = weights[_BLOCK + 1 - (hi - lo)]
    sh, dh = s[lo], d[lo]
    xh = np.full(rows, -np.inf)  # job 0 never waits
    np.subtract(s[lo - 1], dh, out=xh, where=lo > 0)
    f_head = np.asarray(f.eval(sh), dtype=float)
    scalars = np.column_stack((ws + wh * sh, c, xh, xh + sh, wh, wh * f_head, wh * dh,
                             wh * (xh + dh), rho ** (hi - lo), 1.0 - rho ** hi))
    return [table.data for table in tab.reshape(6, -1)], scalars.tolist(), xs, w


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
