"""What a fresh process imports: the adaptive, simulated and exponential-reward
paths load no scipy quadrature, interpolation or linear-algebra stack, and
the adaptive process loads no scipy.special either."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.linalg", "scipy.sparse")

# the gradient learner under both rewards: the exponential one reads the
# waiting jobs' reward from suffix sums, the polynomial one evaluates f on them;
# exponential service has closed-form rows and Theorem-1 moments from Gauss
# rules for every reward
ADAPTIVE_AND_EXACT = """
import qlag, qlag.cli
from qlag import (Exponential, ExponentialReward, PolynomialReward, Uniform, Window,
                  check_general, check_polynomial, optimize, run_adaptive)
service, delay, f = Exponential(1.0), Uniform(0.0, 0.66), ExponentialReward(1.0)
run_adaptive(service, delay, None, f, n=2000, reporting=Window.last_k(500))
run_adaptive(service, delay, None, PolynomialReward(2.0), n=2000, reporting=Window.last_k(500))
optimize(service, delay, f, objective="exact")
optimize(service, delay, PolynomialReward(2.0), objective="exact")
check_general(service, delay, PolynomialReward(2.0))
check_polynomial(service, delay, 2.0)
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

# the benchmark's adaptive process: it builds every default case (E and F are
# truncated normals) but evaluates only A1-D2; building a truncated normal,
# from a class or a config literal, and taking its mean and PDF need no
# normal CDF from scipy.special
ADAPTIVE_PROCESS = """
import qlag, qlag.cli
from qlag import ExponentialReward, TruncatedNormal, Window, default_cases, optimize, run_adaptive
from qlag.config import parse_distribution
f = ExponentialReward(1.0)
cases = [case for case in default_cases() if case.id[0] in "ABCD"]
for case in cases:
    optimize(case.service, case.delay, f, objective="exact")
law = parse_distribution({"kind": "truncnorm", "mu": 1, "sigma": 0.5, "lower": 0, "upper": 2})
law.mean, law.pdf(0.5), TruncatedNormal(-3.0, 0.5, 0.0, float("inf")).pdf([1.0, 2.0])
run_adaptive(cases[0].service, cases[0].delay, None, f, n=2000, reporting=Window.last_k(500))
"""

TRUNCNORM_DRAW = """
import numpy as np
from qlag import TruncatedNormal
TruncatedNormal(1.0, 0.5, 0.0, 2.0).sample(np.random.default_rng(0))
"""

NUMERIC_TRUNCNORM = """
from qlag import PolynomialReward, TruncatedNormal, reward_exact
reward_exact(TruncatedNormal(1.0, 0.5, 0.0, 2.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66),
             PolynomialReward(2.0), 0.1)
"""


def _loaded_after(code: str, watched=HEAVY) -> set[str]:
    """The watched modules in sys.modules once code has run in a new interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
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


def test_adaptive_process_loads_no_scipy_special():
    assert _loaded_after(ADAPTIVE_PROCESS, HEAVY + ("scipy.special",)) == set()


def test_truncnorm_draw_loads_scipy_special():
    # positive control: a truncated-normal draw inverts the normal CDF with scipy.special
    assert _loaded_after(TRUNCNORM_DRAW, ("scipy.special",)) == {"scipy.special"}
