"""What a fresh process imports: the adaptive, simulated and exponential-reward
paths load no scipy quadrature, interpolation or linear-algebra stack."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.linalg", "scipy.sparse")

ADAPTIVE_AND_EXACT = """
import qlag, qlag.cli
from qlag import Exponential, ExponentialReward, Uniform, Window, optimize, run_adaptive
service, delay, f = Exponential(1.0), Uniform(0.0, 0.66), ExponentialReward(1.0)
run_adaptive(service, delay, None, f, n=2000, reporting=Window.last_k(500))
optimize(service, delay, f, objective="exact")
"""

# the benchmark's sweep process: exact optima of every default case (F1 and
# F2 are truncated normals), a simulated sweep, and the MGF-only checkers on
# truncated normals and on exponential service; the point masses and the
# memoryless service keep P(S - D > 0) closed form
SWEEP_AND_TRUNCNORM_MGF = """
import qlag, qlag.cli
from qlag import (Deterministic, Exponential, TruncatedNormal, Uniform, check_exponential,
                  check_surrogate, default_cases, optimize, region_scan)
cases = default_cases()
for case in cases:
    optimize(case.service, case.delay, case.reward, objective="exact")
f1 = next(case for case in cases if case.id == "F1")
optimize(f1.service, f1.delay, f1.reward, objective="simulated", n=10_000)
service = TruncatedNormal(1.0, 0.5, 0.0, 2.0)
check_exponential(service, Deterministic(0.4), 1.0, check_assumption=False)
check_surrogate(service, Deterministic(0.4), 1.0)
check_exponential(Exponential(1.0), Uniform(0.0, 0.66), 1.0, check_assumption=False)
check_surrogate(Exponential(1.0), Uniform(0.0, 0.66), 1.0)
region_scan([0.5, 1.0, 2.0], [0.2, 0.33], 1.0, "thm2_cond1", ("truncnorm", "truncnorm"))
"""

NUMERIC_TRUNCNORM = """
from qlag import PolynomialReward, TruncatedNormal, reward_exact
reward_exact(TruncatedNormal(1.0, 0.5, 0.0, 2.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66),
             PolynomialReward(2.0), 0.1)
"""


def _loaded_after(code: str) -> set[str]:
    """The HEAVY modules in sys.modules once code has run in a new interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_adaptive_and_closed_form_paths_load_no_heavy_scipy():
    assert _loaded_after(ADAPTIVE_AND_EXACT) == set()


def test_sweep_and_truncnorm_mgf_paths_load_no_heavy_scipy():
    assert _loaded_after(SWEEP_AND_TRUNCNORM_MGF) == set()


def test_numeric_reward_loads_quadrature_or_spline():
    # positive control: the probe sees a submodule that a numeric path does load
    assert _loaded_after(NUMERIC_TRUNCNORM) & {"scipy.integrate", "scipy.interpolate"}
