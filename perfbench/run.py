"""qlag benchmark: three closed-loop workloads, end-to-end and per-layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,adaptive,analytic} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run sets the workload up several times, then runs
whole input cycles of ops for at least S seconds of timed op time, and
reports the end-to-end metrics. With ``--trace 1`` it runs every op twice,
untraced and with every layer boundary wrapped, for at least S/2 seconds of
untraced op time, and reports the per-layer metrics, including the tracing
overhead between the two runs. Every op's output is checked outside the
timed region.

The second-to-last stdout line is a JSON record of the environment and run
details; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The program under test is imported from ``src/`` next to this directory and
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it

# name -> unit of every end-to-end metric
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# One caller, one thread. BLAS pools would only add scheduler noise: no
# measured path does large linear algebra.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "adaptive", "analytic"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program() -> float:
    """Import qlag from this checkout's src/ and return the seconds it took."""
    if not (SRC / "qlag" / "__init__.py").is_file():
        fail(f"no qlag package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qlag  # noqa: F401  (the import is what is timed)

    elapsed = time.perf_counter() - start
    if Path(qlag.__file__).resolve().parent != SRC / "qlag":
        fail(f"imported qlag from {qlag.__file__}, not from {SRC}")
    return elapsed


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlag").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int, inherited_threads) -> dict:
    import numpy
    import scipy
    from qlag import parallel

    return {
        "nproc": os.cpu_count(),
        "qlag_threads_env": inherited_threads,
        "thread_count": parallel.thread_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "seed": seed,
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }


def attempt(workload, k: int, op=None) -> tuple[float, bool]:
    """Run and time op k, then check its output outside the timed region.

    Returns (seconds, ok). An op that raises or whose output fails the
    workload's check counts as failed.
    """
    op = op or workload.op
    start = time.perf_counter()
    try:
        result = op(k)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        ok = bool(workload.check(k, result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"op {k} of {workload.name} failed its output check", file=sys.stderr)
    return elapsed, ok


def run_cycles(workload, seconds: float):
    """Closed loop over whole input cycles until ``seconds`` of timed op time.

    Whole cycles keep every input kind equally often in the sample, so the
    timed total overshoots ``seconds`` by less than one cycle.
    """
    latencies, oks = [], []
    while sum(latencies) < seconds or len(latencies) % workload.cycle:
        elapsed, ok = attempt(workload, len(latencies))
        latencies.append(elapsed)
        oks.append(ok)
    return latencies, oks


def set_up(cls, seed: int, import_s: float):
    """Build the workload SETUP_REPEATS times; return it and the median set-up.

    One set-up is: generate inputs, compute check references, run one
    untimed warm-up op. The one-time import is added to each. The reward
    cache is emptied first so that every repeat pays what a fresh process
    pays.
    """
    from tracing import clear_reward_cache

    times = []
    for _ in range(SETUP_REPEATS):
        clear_reward_cache()
        start = time.perf_counter()
        workload = cls(seed)
        workload.warm_up()
        times.append(import_s + time.perf_counter() - start)
    return workload, statistics.median(times)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n ops beyond it."""
    return max(0, (100 * (n - TAIL_BEYOND)) // n)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, seconds: int, setup_s: float):
    import numpy as np

    latencies, oks = run_cycles(workload, seconds)
    n, ok = len(latencies), sum(oks)
    q = tail_percentile(n)
    p50_s, tail_s = np.percentile(latencies, (50, q))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ok / sum(latencies),
        "op_p50_ms": 1e3 * float(p50_s),
        "op_tail_ms": 1e3 * float(tail_s),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": ok / n,
    }
    details = {"ops": n, "tail_percentile": q, "timed_s": sum(latencies)}
    return metrics, n, n - ok, details


def measure_traced(workload, seconds: int, seed: int):
    """Run each op twice, untraced and traced, alternating which goes first.

    Pairing the two runs of an op in time keeps the machine's slow drifts
    out of the tracing overhead. The reward cache is emptied before every
    run, so both runs of an op build what they need.
    """
    from tracing import Tracer, clear_reward_cache

    tracer = Tracer()
    ops = {False: workload.op, True: lambda k: tracer.run_op(k, workload.op)}
    times = {False: [], True: []}
    oks = []
    k = 0
    while sum(times[False]) < seconds / 2.0 or k % workload.cycle:
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            clear_reward_cache()
            if traced:
                tracer.install()
            try:
                elapsed, ok = attempt(workload, k, ops[traced])
            finally:
                tracer.uninstall()
            times[traced].append(elapsed)
            oks.append(ok)
        k += 1
    plain_s, traced_s = sum(times[False]), sum(times[True])
    spans_file = OUT / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(spans_file)
    metrics = tracer.metrics(workload.cycle, workload.useful_draws, traced_s / plain_s - 1.0)
    details = {"ops": k, "plain_s": plain_s, "traced_s": traced_s,
               "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, len(oks), len(oks) - sum(oks), details


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited_threads = os.environ.pop("QLAG_THREADS", None)  # run at the program default
    os.environ.update(PINNED_ENV)
    import_s = import_program()

    from tracing import PER_LAYER
    from workloads import WORKLOADS

    workload, setup_s = set_up(WORKLOADS[args.workload], args.seed, import_s)
    if args.trace:
        metrics, attempted, failed, details = measure_traced(workload, args.seconds, args.seed)
        units = PER_LAYER
    else:
        metrics, attempted, failed, details = measure(workload, args.seconds, setup_s)
        units = END_TO_END
    info = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "loop": "closed, 1 caller", "env": environment(args.seed, inherited_threads),
            **details}
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
