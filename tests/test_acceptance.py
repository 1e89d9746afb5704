"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, verbatim from the criteria; nothing is
deferred to later calibration. Criterion 7 evaluates the learned reward
against the exact-objective grid optimum for the four closed-form cases at
the configured reward decay.
"""

import json
import math
import time

import numpy as np

from qlag import (
    Exponential,
    ExponentialReward,
    PolynomialReward,
    AbruptPiecewise,
    GradualLinear,
    ExperimentSpec,
    TruncatedNormal,
    Uniform,
    Window,
    check_exponential,
    check_general,
    check_polynomial,
    check_surrogate,
    estimate_reward_se,
    mean_shift_run,
    optimize,
    region_scan,
    run_adaptive,
    run_fixed_lag,
    surrogate_reward,
    wait_derivative,
)
from qlag.analytics import _numeric_rewards
from qlag.cli import main as cli_main
from qlag.streams import substream

EXP_S = Exponential(1.0)
EXP_D = Exponential(0.33)
F1 = ExponentialReward(1.0)


def _report(criterion: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < limit, f"{criterion}: runtime {elapsed:.1f}s exceeded {limit:.0f}s"


def test_criterion_1_wait_derivative():
    start = time.time()
    lam_s, lam_d = 1.0, 1.0 / 0.33

    def ew_closed(x):  # closed-form E[W], smooth in the lag
        return lam_d / (lam_s + lam_d) * math.exp(-lam_s * x) / lam_s

    h = 1e-4
    worst_closed = 0.0
    worst_mc_sigmas = 0.0
    n = 10**7
    s = EXP_S.sample(substream(101, "c1-service"), n)
    d = EXP_D.sample(substream(101, "c1-delay"), n)
    u = s - d
    for lag in (0.0, 0.25, 0.5, 1.0):
        deriv = wait_derivative(EXP_S, EXP_D, lag)
        fd_closed = (ew_closed(lag + h) - ew_closed(lag - h)) / (2 * h)
        worst_closed = max(worst_closed, abs(fd_closed - deriv))
        # Monte-Carlo central difference with common random numbers
        quot = (np.maximum(u - lag - h, 0.0) - np.maximum(u - lag + h, 0.0)) / (2 * h)
        fd_mc = quot.mean()
        se = quot.std() / math.sqrt(n)
        worst_mc_sigmas = max(worst_mc_sigmas, abs(fd_mc - deriv) / se)
    ok = worst_closed < 1e-6 and worst_mc_sigmas < 3.0
    _report(
        "criterion 1 (wait derivative)",
        ok,
        f"closed-form gap {worst_closed:.2e} < 1e-6, MC gap {worst_mc_sigmas:.2f} sigma < 3",
        time.time() - start,
        30.0,
    )


def test_criterion_2_simulator_oracle_agreement():
    start = time.time()
    traj = run_fixed_lag(EXP_S, EXP_D, 0.0, 10**6, seed=42)
    mean_w = float(traj.wait.mean())
    rel_gap = abs(mean_w - 0.7519) / 0.7519
    ghat, se = estimate_reward_se(traj, F1, Window.last_k(10**6 - 1000))
    exact = _numeric_rewards(EXP_S, EXP_D, F1, [0.0])[0]
    sigmas = abs(ghat - exact) / se
    ok = rel_gap < 0.01 and sigmas < 3.0
    _report(
        "criterion 2 (simulator vs oracle)",
        ok,
        f"mean W gap {rel_gap:.4%} < 1%, reward gap {sigmas:.2f} sigma < 3",
        time.time() - start,
        60.0,
    )


def test_criterion_3_surrogate_upper_bound():
    start = time.time()
    cases = [
        ("exp/exp", EXP_S, EXP_D),
        ("unif/unif", Uniform(0.0, 2.0), Uniform(0.0, 0.66)),
    ]
    lags = np.arange(0.0, 2.0001, 0.1)
    worst_margin = math.inf
    n = 200_000
    for name, s, d in cases:
        for kappa in (0.5, 1.0):
            f = ExponentialReward(kappa)
            for lag in lags:
                traj = run_fixed_lag(s, d, float(lag), n, seed=77)
                ghat, se = estimate_reward_se(traj, f, Window.last_k(n - 1000))
                gsur = surrogate_reward(s, d, kappa, float(lag))
                worst_margin = min(worst_margin, gsur - (ghat - 3.0 * se))
    ok = worst_margin >= 0.0
    _report(
        "criterion 3 (surrogate upper bound)",
        ok,
        f"min margin G_sur - (Ghat - 3se) = {worst_margin:.4f} >= 0 over 84 points",
        time.time() - start,
        300.0,
    )


def test_criterion_4_surrogate_condition_soundness():
    start = time.time()
    cond1, _ = check_surrogate(EXP_S, Exponential(0.6), 1.0)
    grid = optimize(EXP_S, Exponential(0.6), F1, objective="surrogate",
                    lag_max=3.0, step=0.05)
    cond_ok = cond1.verdict == "holds" and grid.best_lag == 0.0

    ts_vals = np.linspace(0.05, 2.0, 50)
    td_vals = np.linspace(0.02, 0.98, 50)
    scan = region_scan(ts_vals, td_vals, 1.0, mode="thm2_cond1")
    mismatches = sum(
        1
        for i, t_s in enumerate(ts_vals)
        for j, t_d in enumerate(td_vals)
        if scan.verdict_at(i, j)
        != ("holds" if t_d * (1.0 + t_s) >= t_s else "fails")
    )
    ok = cond_ok and mismatches == 0
    _report(
        "criterion 4 (surrogate condition soundness + region boundary)",
        ok,
        f"cond1 holds with grid optimum at 0: {cond_ok}, boundary mismatches {mismatches}/2500",
        time.time() - start,
        120.0,
    )


def _random_spec(rng, family, mean):
    if family == "exp":
        return Exponential(mean)
    if family == "unif":
        return Uniform(0.0, 2.0 * mean)
    return TruncatedNormal(mean, mean * rng.uniform(0.3, 0.8), 0.0, 2.0 * mean)


def test_criterion_5_specialization_consistency():
    start = time.time()
    rng = np.random.default_rng(20250810)
    worst = 0.0
    confirmed = 0
    for _ in range(20):
        families = ["exp", "unif", "tn"]
        s = _random_spec(rng, rng.choice(families), rng.uniform(0.2, 2.0))
        d = _random_spec(rng, rng.choice(families), rng.uniform(0.2, 2.0))
        kappa = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        gamma = float(rng.uniform(0.3, 3.0))
        pairs = [
            (ExponentialReward(kappa),
             check_general(s, d, ExponentialReward(kappa), check_assumption=False),
             check_exponential(s, d, kappa, check_assumption=False)),
            (PolynomialReward(gamma),
             check_general(s, d, PolynomialReward(gamma), check_assumption=False),
             check_polynomial(s, d, gamma, check_assumption=False)),
        ]
        for f, general, special in pairs:
            worst = max(worst, abs(general.lhs - special.lhs), abs(general.rhs - special.rhs))
            assert general.verdict == special.verdict
            if special.verdict == "holds":
                grid = optimize(s, d, f, objective="exact", lag_max=3.0, step=0.05)
                assert grid.best_lag == 0.0, f"holds but optimum at {grid.best_lag}"
                confirmed += 1
    ok = worst <= 1e-9
    _report(
        "criterion 5 (specialization consistency)",
        ok,
        f"worst lhs/rhs gap {worst:.2e} <= 1e-9 over 20 sets, {confirmed} holds confirmed at zero lag",
        time.time() - start,
        600.0,
    )


def test_criterion_6_conjugacy_unit():
    start = time.time()
    from qlag import PosteriorState, BayesConfig, update, STATE_IDLE, STATE_BUSY

    cfg = BayesConfig()
    post = update(PosteriorState(1.0, 1.0), 0.5, STATE_IDLE, STATE_IDLE, cfg)
    exact = (post.alpha, post.beta) == (4.0, 1.5)
    frozen = PosteriorState(5.0, 2.0)
    unchanged = (
        update(frozen, 0.7, STATE_IDLE, STATE_BUSY, cfg) is frozen
        and update(frozen, 0.7, STATE_BUSY, STATE_IDLE, cfg) is frozen
    )
    ok = exact and unchanged
    _report(
        "criterion 6 (conjugacy unit)",
        ok,
        f"idle-idle Gamma(1,1)+0.5 -> Gamma(4,1.5): {exact}, mixed states frozen: {unchanged}",
        time.time() - start,
        1.0,
    )


def test_criterion_7_bayesian_convergence():
    start = time.time()
    cases = {
        "A": (EXP_S, EXP_D),
        "B": (EXP_S, Uniform(0.0, 0.66)),
        "C": (Uniform(0.0, 2.0), Uniform(0.0, 0.66)),
        "D": (Uniform(0.0, 2.0), EXP_D),
    }
    details = []
    ok = True
    for name, (s, d) in cases.items():
        optimum = optimize(s, d, F1, objective="exact").best_reward
        rewards = [
            run_adaptive(s, d, None, F1, n=50_000, seed=k,
                         reporting=Window.last_k(5000)).reward
            for k in range(1, 11)
        ]
        gap = abs(float(np.mean(rewards)) - optimum) / optimum
        details.append(f"{name}: gap {gap:.2%}")
        ok = ok and gap <= 0.05
    _report(
        "criterion 7 (bayesian convergence, cases A-D)",
        ok,
        "; ".join(details) + " vs 5% of exact grid optimum (10-seed mean)",
        time.time() - start,
        600.0,
    )


def test_criterion_8_mean_shift_tracking():
    start = time.time()
    # abrupt: (1, 0.33) -> (0.5, 0.1667) at job 10000, window 2000, burn-in 2000
    sched = AbruptPiecewise(((10_000, 1.0, 0.33), (10_000, 0.5, 0.1667)))
    base = ExperimentSpec(
        id="c8-abrupt", service=EXP_S, delay=EXP_D, reward=F1,
        methods=frozenset({"bayes"}), schedule=sched, n=20_000, seeds=(3,),
        reporting=Window.sliding(2000),
    )
    res = mean_shift_run(base)
    opt1 = optimize(EXP_S, EXP_D, F1, objective="exact").best_reward
    opt2 = optimize(Exponential(0.5), Exponential(0.1667), F1, objective="exact").best_reward
    abrupt_ok = True
    details = []
    for lo, hi, opt, seg in ((2001 + 1999, 10_000, opt1, "seg1"),
                             (12_001 + 1999, 20_000, opt2, "seg2")):
        mask = (res.index >= lo) & (res.index <= hi)
        ratios = res.g_be[mask] / opt
        # recovery: every post-burn-in window holds >= 90% of the segment
        # optimum, and the segment-mean estimate sits within 10% of it
        seg_ok = ratios.min() >= 0.90 and abs(ratios.mean() - 1.0) <= 0.10
        abrupt_ok = abrupt_ok and seg_ok
        details.append(f"{seg} min {ratios.min():.3f} mean {ratios.mean():.3f}")

    # gradual linear ramp over the full run
    sched_g = GradualLinear(1.0, 0.5, 0.33, 0.1667, 50_000)
    base_g = ExperimentSpec(
        id="c8-gradual", service=EXP_S, delay=EXP_D, reward=F1,
        methods=frozenset({"bayes"}), schedule=sched_g, n=50_000, seeds=(3,),
        reporting=Window.sliding(2000),
    )
    res_g = mean_shift_run(base_g)
    mask = res_g.index > 5000
    mard = float(np.mean(np.abs(res_g.g_be[mask] - res_g.g_ref[mask]) / res_g.g_ref[mask]))
    gradual_ok = mard <= 0.10
    ok = abrupt_ok and gradual_ok
    _report(
        "criterion 8 (mean-shift tracking)",
        ok,
        f"abrupt {'; '.join(details)} (>=0.90, mean within 10%), gradual MARD {mard:.2%} <= 10%",
        time.time() - start,
        600.0,
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    configs = {
        "simulate": {
            "service": {"kind": "exponential", "mean": 1.0},
            "delay": {"kind": "exponential", "mean": 0.33},
            "n": 2000,
            "lag": 0.2,
            "reward": {"kind": "exp", "kappa": 1.0},
        },
        "grid-search": {
            "service": {"kind": "exponential", "mean": 1.0},
            "delay": {"kind": "exponential", "mean": 0.33},
            "reward": {"kind": "exp", "kappa": 1.0},
            "objective": "simulated",
            "lag_max": 0.5,
            "step": 0.25,
            "n": 10_000,
            "burn_in": 500,
        },
        "bayes": {
            "service": {"kind": "exponential", "mean": 1.0},
            "delay": {"kind": "exponential", "mean": 0.33},
            "reward": {"kind": "exp", "kappa": 1.0},
            "n": 2000,
            "reporting": {"kind": "last_k", "k": 500},
        },
        "region-scan": {
            "service_family": "exponential",
            "delay_family": "exponential",
            "kappa": 1.0,
            "ts": {"min": 0.2, "max": 1.0, "count": 5},
            "td": {"min": 0.1, "max": 0.9, "count": 5},
        },
    }
    all_identical = True
    for command, payload in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload))
        outs = []
        for run_idx in (1, 2):
            out = tmp_path / f"{command}-{run_idx}"
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(out), "--seed", "11"])
            assert code == 0
            outs.append(out)
        for artifact in sorted(p.name for p in outs[0].iterdir()):
            identical = (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
            all_identical = all_identical and identical
    _report(
        "criterion 9 (CLI determinism)",
        all_identical,
        "every artifact byte-identical across repeated seeded runs",
        time.time() - start,
        60.0,
    )
