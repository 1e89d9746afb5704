"""What the benchmark in perfbench/ needs from qlag: one op of each workload
at its own size passes its check, traced where the benchmark traces it."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_environment_record():
    env = run.environment(0, None)
    assert env["thread_count"] == 1  # qlag.parallel.thread_count under QLAG_THREADS=1
    assert env["seed"] == 0


@pytest.mark.parametrize("cls", [workloads.Sweep, workloads.Analytic])
def test_op_passes_its_check(cls):
    workload = cls(1)
    elapsed, ok = run.attempt(workload, 0)
    assert ok and elapsed > 0


def test_traced_adaptive_op_passes_its_check():
    from qlag.simulator import Trajectory

    workload = workloads.Adaptive(1)
    tracer = tracing.Tracer()
    results = []

    def op(k):
        results.append(tracer.run_op(k, workload.op))
        return results[-1]

    tracer.install()
    try:
        _, ok = run.attempt(workload, 0, op)
    finally:
        tracer.uninstall()
    assert ok
    (span,) = (s for s in tracer.spans if s.name == "bayes.run_adaptive")
    assert span.attrs["jobs"] == workloads.Adaptive.N
    assert 0 < span.attrs["updates"] <= workloads.Adaptive.N  # posterior.updates_applied

    # the benchmark's smoke test bends a trajectory through the positional constructor
    t = results[0].trajectory
    same = Trajectory(t.service, t.delay, t.wait, t.iat, t.lag, t.seed,
                      t.lag_policy_description)
    assert (same.wait == t.wait).all() and (same.busy == t.busy).all()


def test_reward_cache_hooks_reach_the_analytics_cache():
    from qlag import PolynomialReward, Uniform, optimize

    cache = tracing.reward_cache()
    assert cache is not None
    optimize(Uniform(0.0, 2.0), Uniform(0.0, 0.66), PolynomialReward(2.0), objective="exact",
             lag_max=1.0, step=0.25)
    assert cache.cache_info().currsize > 0
    tracing.clear_reward_cache()
    assert cache.cache_info().currsize == 0
