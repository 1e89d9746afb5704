"""Reproducible experiment definitions binding the toolkit together.

A suite row compares, for one (case, seed): the surrogate optimum G_sur, the
simulated grid-search optimum G_sim, the adaptively learned reward G_be, and
the surrogate evaluated at the learner's final lag estimate, G_tb. A case
fills G_sur and G_tb only if it asks for the surrogate method, which needs an
exponential reward at a rate where the delay MGF is finite.

Mean-shift runs emit the windowed adaptive reward next to a reference series
G_ref, the exact-objective grid optimum recomputed for the instantaneous
(service mean, delay mean).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from ._fmt import write_table
from .analytics import surrogate_reward
from .bayes import BayesConfig, run_adaptive
from .distributions import DistributionSpec, DivergentMGFError, law_for_family
from .gridsearch import MIN_SIMULATED_N, optimize
from .parallel import ordered_map
from .reward import ExponentialReward, RewardSpec
from .simulator import (
    AbruptPiecewise,
    ParameterError,
    ParamSchedule,
    Window,
    schedule_means,
)

__all__ = [
    "ExperimentSpec",
    "SuiteRow",
    "MeanShiftResult",
    "METHODS",
    "default_cases",
    "run_suite",
    "suite_to_csv",
    "mean_shift_run",
]

METHODS = frozenset({"grid", "bayes", "surrogate"})


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    service: DistributionSpec
    delay: DistributionSpec
    reward: RewardSpec
    methods: frozenset[str]
    schedule: Optional[ParamSchedule]
    n: int
    seeds: tuple[int, ...]
    reporting: Window

    def __post_init__(self):
        unknown = set(self.methods) - METHODS
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if self.n < 2:
            raise ParameterError("n", "experiments need at least 2 jobs")
        if not self.seeds:
            raise ValueError("experiments need at least one seed")
        if "surrogate" in self.methods:
            if not isinstance(self.reward, ExponentialReward):
                raise ValueError(
                    f"{self.id}: the surrogate method needs an exponential reward"
                )
            try:
                self.delay.mgf(self.reward.kappa)
            except DivergentMGFError as exc:
                raise ValueError(f"{self.id}: {exc}") from exc


@dataclass(frozen=True)
class SuiteRow:
    case: str
    seed: int
    kappa: Optional[float]
    g_sur: Optional[float]
    g_sim: Optional[float]
    g_be: Optional[float]
    g_tb: Optional[float]


_CASE_LAYOUT = (
    ("A", "exponential", "exponential"),
    ("B", "exponential", "uniform"),
    ("C", "uniform", "uniform"),
    ("D", "uniform", "exponential"),
    ("E", "exponential", "truncnorm"),
    ("F", "truncnorm", "truncnorm"),
)


_CASE_PAIRS = ((1.0, 0.33), (0.5, 0.1667))  # (t_s, t_d) of rows 1 and 2


def default_cases(n: int = 50_000) -> list[ExperimentSpec]:
    """The six-case benchmark matrix over two (t_s, t_d) pairs, with an
    exp(1) reward, seed 1 and n jobs per learner run.

    Cases E and F, which have a truncated normal law, ask for no surrogate
    columns. Any law would do, but these are the cases of the default
    suite.csv, and adding the columns would change it."""
    specs = []
    for label, service_family, delay_family in _CASE_LAYOUT:
        methods = {"grid", "bayes"}
        if service_family != "truncnorm" and delay_family != "truncnorm":
            methods.add("surrogate")
        for row, (t_s, t_d) in enumerate(_CASE_PAIRS, start=1):
            specs.append(
                ExperimentSpec(
                    id=f"{label}{row}",
                    service=law_for_family(service_family, t_s),
                    delay=law_for_family(delay_family, t_d),
                    reward=ExponentialReward(1.0),
                    methods=frozenset(methods),
                    schedule=None,
                    n=n,
                    seeds=(1,),
                    reporting=Window.last_k(5000),
                )
            )
    return specs


def _suite_row(spec: ExperimentSpec, seed: int, grid_n: int) -> SuiteRow:
    kappa = spec.reward.kappa if isinstance(spec.reward, ExponentialReward) else None
    g_sur = None
    if "surrogate" in spec.methods:
        g_sur = optimize(
            spec.service, spec.delay, spec.reward, objective="surrogate", seed=seed
        ).best_reward
    g_sim = None
    if "grid" in spec.methods:
        g_sim = optimize(
            spec.service,
            spec.delay,
            spec.reward,
            objective="simulated",
            n=grid_n,
            seed=seed,
            schedule=spec.schedule,
        ).best_reward
    g_be = None
    g_tb = None
    if "bayes" in spec.methods:
        result = run_adaptive(
            spec.service,
            spec.delay,
            spec.schedule,
            spec.reward,
            n=spec.n,
            cfg=BayesConfig(),
            seed=seed,
            reporting=spec.reporting,
        )
        g_be = float(np.asarray(result.reward).reshape(-1)[-1])
        if g_sur is not None:
            g_tb = surrogate_reward(
                spec.service, spec.delay, kappa, result.lag_estimate
            )
    return SuiteRow(spec.id, seed, kappa, g_sur, g_sim, g_be, g_tb)


def run_suite(specs: Sequence[ExperimentSpec], *, grid_n: int = 100_000) -> list[SuiteRow]:
    """One row per (spec, seed), reproducible from the spec list alone.

    A grid_n too small for the simulated grid raises ParameterError("grid_n")
    before any row runs; a row that cannot run raises ParameterError("specs")
    naming its case and seed.
    """
    if grid_n < MIN_SIMULATED_N and any("grid" in spec.methods for spec in specs):
        raise ParameterError(
            "grid_n", f"the grid method needs at least 1e4 jobs per point, got {grid_n}"
        )

    def row(job):
        spec, seed = job
        try:
            return _suite_row(spec, seed, grid_n)
        except ValueError as exc:
            raise ParameterError("specs", f"case {spec.id}, seed {seed}: {exc}") from exc

    jobs = [(spec, seed) for spec in specs for seed in spec.seeds]
    return ordered_map(row, jobs)


_SUITE_HEADER = ("case", "seed", "kappa", "G_sur", "G_sim", "G_be", "G_tb")


def suite_to_csv(rows: Sequence[SuiteRow], path) -> None:
    write_table(path, {
        name: [getattr(row, field.name) for row in rows]
        for name, field in zip(_SUITE_HEADER, fields(SuiteRow))
    })


@dataclass(frozen=True)
class MeanShiftResult:
    """Windowed adaptive reward against the moving exact-grid optimum."""

    index: np.ndarray   # window end job index (1-based)
    g_be: np.ndarray
    g_ref: np.ndarray

    def to_csv(self, path) -> None:
        write_table(path, {"index": self.index, "G_be_window": self.g_be, "G_ref": self.g_ref})


def _exact_optimum(service, delay, f, t_s: float, t_d: float) -> float:
    return optimize(
        service.with_mean(t_s), delay.with_mean(t_d), f, objective="exact"
    ).best_reward


def mean_shift_run(base: ExperimentSpec, *, cfg: BayesConfig = BayesConfig()) -> MeanShiftResult:
    """Run the adaptive policy under a drifting schedule, reporting its reward
    over the sliding window ``base.reporting``.

    The reference series re-solves the exact-objective grid search at the
    instantaneous means: once per segment of an abrupt schedule, else at 11
    evenly spaced job indices, interpolated in between.
    """
    if "bayes" not in base.methods:
        raise ValueError("mean-shift runs drive the bayes method; add it to the spec")
    schedule = base.schedule
    if schedule is None:
        raise ParameterError("schedule", "mean-shift runs need a schedule")
    if base.reporting.kind != "sliding":
        raise ParameterError(
            "reporting", f"mean-shift runs report over a sliding window, got {base.reporting.kind}"
        )

    n = base.n
    result = run_adaptive(
        base.service,
        base.delay,
        schedule,
        base.reward,
        n=n,
        cfg=cfg,
        seed=base.seeds[0],
        reporting=base.reporting,
    )
    width = base.reporting.size
    ends = np.arange(width, n + 1)
    centers = ends - (width - 1) / 2.0

    if isinstance(schedule, AbruptPiecewise):
        bounds = np.cumsum([length for length, _, _ in schedule.segments])
        seg_opt = np.array(
            [
                _exact_optimum(base.service, base.delay, base.reward, t_s, t_d)
                for _, t_s, t_d in schedule.segments
            ]
        )
        seg_idx = np.searchsorted(bounds, centers, side="left")
        g_ref = seg_opt[np.minimum(seg_idx, len(seg_opt) - 1)]
    else:
        ts_means, td_means = schedule_means(schedule, n)
        anchor_jobs = np.unique(np.linspace(0, n - 1, 11).astype(int))
        anchor_opt = np.array(
            [
                _exact_optimum(
                    base.service, base.delay, base.reward,
                    float(ts_means[j]), float(td_means[j]),
                )
                for j in anchor_jobs
            ]
        )
        g_ref = np.interp(centers - 1.0, anchor_jobs.astype(float), anchor_opt)

    return MeanShiftResult(index=ends, g_be=np.asarray(result.reward), g_ref=g_ref)
