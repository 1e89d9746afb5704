"""Smoke test of the benchmark itself.

1. Runs each workload for a few ops, untraced and traced, through the same
   command line the benchmark is run with, and asserts that the result line
   names every metric of BENCHMARK.json with its unit and that no op failed.
2. Feeds each workload's output check perturbed results and asserts that
   the op is counted as failed, so the checks are shown to catch errors.

Run from the repository root: ``python3 perfbench/smoke.py`` (about two
minutes). It exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metric_lines() -> None:
    for spec in BENCH["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(run.__file__)), "--workload", spec["name"],
                   "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=180, check=False)
            expect(proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{spec['name']} trace={trace}: {result}")
            wanted = {m["name"]: m["unit"] for m in BENCH[group]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == wanted, f"{spec['name']} trace={trace}: {printed} != {wanted}")
            print(f"ok: {spec['name']} trace={trace} prints its {len(wanted)} metrics")


def expect_failed(workload, result, what: str) -> None:
    """Assert that an op returning ``result`` (or raising it) counts as failed."""

    def op(k):
        if isinstance(result, Exception):
            raise result
        return result

    _, ok = run.attempt(workload, 0, op=op)
    expect(not ok, f"{workload.name}: {what} was not counted as failed")
    print(f"ok: {workload.name} counts {what} as failed")


def check_perturbed_results() -> None:
    from qlag.simulator import Trajectory
    from workloads import Adaptive, Analytic, Sweep

    sweep = Sweep(3)
    good = sweep.op(0)
    expect(run.attempt(sweep, 0, op=lambda k: good)[1], "sweep: unperturbed op failed")
    scaled = tuple(dataclasses.replace(p, reward=p.reward * 1.05) for p in good.points)
    expect_failed(sweep, dataclasses.replace(
        good, points=scaled, best_reward=good.best_reward * 1.05), "a reward 5% off G*")
    expect_failed(sweep, dataclasses.replace(good, points=good.points[:-1]), "a short grid")
    expect_failed(sweep, RuntimeError("op raised"), "an op that raised")

    adaptive = Adaptive(3)
    good = adaptive.op(0)
    expect(run.attempt(adaptive, 0, op=lambda k: good)[1], "adaptive: unperturbed op failed")
    t = good.trajectory
    wait = t.wait.copy()
    wait[1000] += 0.05
    bent = Trajectory(t.service, t.delay, wait, t.iat, t.lag, t.seed, t.lag_policy_description)
    expect_failed(adaptive, dataclasses.replace(good, trajectory=bent), "a wrong wait")
    expect_failed(adaptive, dataclasses.replace(good, reward=good.reward * 1.001),
                  "a wrong window ratio")
    g_star = adaptive.g_star
    adaptive.g_star = [g / 2.0 for g in g_star]
    expect_failed(adaptive, good, "G_be above 1.2 G*")
    adaptive.g_star = g_star

    analytic = Analytic(3)
    good = analytic.op(0)
    expect(run.attempt(analytic, 0, op=lambda k: good)[1], "analytic: unperturbed op failed")
    grids, reports = good
    off = [dataclasses.replace(grids[0], best_reward=grids[0].best_reward * 1.02), *grids[1:]]
    expect_failed(analytic, (off, reports), "a best reward 2% off Monte Carlo")
    bad = (dataclasses.replace(reports[0], verdict="maybe"), *reports[1:])
    expect_failed(analytic, (grids, bad), "an unknown verdict")


def main() -> int:
    check_metric_lines()
    run.import_program()
    check_perturbed_results()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
