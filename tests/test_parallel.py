"""QLAG_THREADS: fanning work out over threads must not change any result."""

import pytest

from qlag import (
    Exponential,
    ExponentialReward,
    Uniform,
    default_cases,
    optimize,
    region_scan,
    run_suite,
)
from qlag import parallel
from qlag.parallel import thread_count

F1 = ExponentialReward(1.0)


def _with_threads(monkeypatch, threads, fn):
    monkeypatch.setenv("QLAG_THREADS", str(threads))
    assert thread_count() == threads
    return fn()


@pytest.mark.parametrize("objective, n", [("exact", 100_000), ("simulated", 10_000)])
def test_optimize_independent_of_threads(monkeypatch, objective, n):
    def sweep():
        return optimize(Uniform(0.0, 2.0), Exponential(0.33), F1, objective=objective,
                        lag_max=2.0, step=0.25, n=n, seed=5)

    assert _with_threads(monkeypatch, 2, sweep) == _with_threads(monkeypatch, 1, sweep)


def test_suite_independent_of_threads(monkeypatch):
    specs = [c for c in default_cases(n=6000) if c.id in ("A1", "B2")]

    def suite():
        return run_suite(specs, grid_n=10_000)

    assert _with_threads(monkeypatch, 2, suite) == _with_threads(monkeypatch, 1, suite)


def test_no_pool_is_nested(monkeypatch):
    opened = []

    class CountingPool(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setenv("QLAG_THREADS", "2")
    for objective in ("exact", "surrogate"):
        optimize(Uniform(0.0, 2.0), Exponential(0.33), F1, objective=objective,
                 lag_max=2.0, step=0.25)
    region_scan([0.5, 1.0, 1.5], [0.2, 0.4], 1.0, mode="cor1")
    assert opened == []

    # A1 and B2 run the surrogate and simulated grids inside each suite row
    specs = [c for c in default_cases(n=6000) if c.id in ("A1", "B2")]
    run_suite(specs, grid_n=10_000)
    assert len(opened) == 1
