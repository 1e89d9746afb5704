"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces public qlag functions by timing wrappers at the module
attribute the caller looks them up through (for example
``qlag.gridsearch.run_fixed_lag`` is what ``optimize`` calls). Each wrapped
call records one span: its name, the op it belongs to, its parent span, its
start and end, and the time its child spans cover. Spans are kept in memory
and written out once the run ends. A span's self time is its duration minus
its children's; with one caller thread, children never overlap.

Per-job functions (``draw_lag``, ``update``) are not wrapped: each op makes
100 000 such calls. The adaptive loop's time is derived instead as the
``run_adaptive`` span minus its simulator children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# (module, attribute, span name). The module is where the caller resolves
# the name, so a function imported into two modules is wrapped twice.
TARGETS = (
    ("qlag.gridsearch", "optimize", "gridsearch.optimize"),
    ("qlag.gridsearch", "run_fixed_lag", "simulator.run_fixed_lag"),
    ("qlag.gridsearch", "estimate_reward_se", "simulator.estimate_reward_se"),
    ("qlag.gridsearch", "reward_exact", "analytics.reward_exact"),
    ("qlag.simulator", "sample_jobs", "simulator.sample_jobs"),
    ("qlag.simulator", "assemble_trajectory", "simulator.assemble_trajectory"),
    ("qlag.bayes", "run_adaptive", "bayes.run_adaptive"),
    ("qlag.bayes", "sample_jobs", "simulator.sample_jobs"),
    ("qlag.bayes", "assemble_trajectory", "simulator.assemble_trajectory"),
    ("qlag.bayes", "estimate_reward", "simulator.estimate_reward"),
    ("qlag.analytics", "expected_wait", "analytics.expected_wait"),
    ("qlag.conditions", "expected_wait", "analytics.expected_wait"),
    ("qlag.analytics", "prob_diff_exceeds", "distributions.prob_diff_exceeds"),
    ("qlag.conditions", "prob_diff_exceeds", "distributions.prob_diff_exceeds"),
    ("qlag.conditions", "check_general", "conditions.check"),
    ("qlag.conditions", "check_polynomial", "conditions.check"),
    ("qlag.conditions", "check_surrogate", "conditions.check"),
    ("qlag.conditions", "verify_assumption", "conditions.verify_assumption"),
)

# Per-layer metrics: name -> unit. Each is a per-op figure of the traced run.
PER_LAYER = {
    "simulator.sample_jobs_ms": "ms",
    "simulator.draws": "count",
    "simulator.draw_reuse": "ratio",
    "simulator.assemble_ms": "ms",
    "simulator.bytes_computed_mb": "MB",
    "simulator.estimate_se_ms": "ms",
    "gridsearch.points": "count",
    "gridsearch.self_ms": "ms",
    "bayes.loop_self_ms": "ms",
    "bayes.jobs": "count",
    "bayes.update_applied_ratio": "ratio",
    "analytics.reward_exact_calls": "count",
    "analytics.reward_exact_ms": "ms",
    "analytics.closed_form_fallbacks": "count",
    "analytics.expected_wait_ms": "ms",
    "analytics.h_cache_hit_ratio": "ratio",
    "distributions.prob_diff_calls": "count",
    "distributions.prob_diff_ms": "ms",
    "conditions.check_ms": "ms",
    "conditions.verify_assumption_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_frac": "ratio",
}

_TRAJECTORY_OUTPUTS = ("wait", "iat", "sojourn", "busy")


def reward_cache():
    """The analytics module's cache of E_S[f(w + S)] builders, if it has one."""
    analytics = importlib.import_module("qlag.analytics")
    return getattr(analytics, "_reward_after_wait_cached", None)


def clear_reward_cache() -> None:
    cache = reward_cache()
    if cache is not None:
        cache.cache_clear()


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # a layer that no longer has this function
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            _record_output(span, result)
            return result

        return traced

    def run_op(self, k: int, op):
        """Run op(k) under a root span, recording the reward-cache deltas."""
        self._op = k
        cache = reward_cache()
        before = cache.cache_info() if cache is not None else None
        span = self._open("op")
        try:
            return op(k)
        finally:
            self._close(span)
            if cache is not None:
                after = cache.cache_info()
                span.attrs["cache_hits"] = after.hits - before.hits
                span.attrs["cache_misses"] = after.misses - before.misses
            self._op = -1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_s, **s.attrs,
                }) + "\n")

    def metrics(self, count_ops: int, useful_draws: int, overhead_frac: float) -> dict[str, float]:
        """Per-op layer figures.

        Times are means over every traced op. Counts and ratios come from
        ops 0..count_ops-1 only, one whole input cycle, so that at a fixed
        seed they repeat exactly whatever the number of ops the run fitted.
        ``useful_draws`` is what one op needs: one service and one delay
        draw per simulated job.
        """
        n_ops = max(sum(1 for s in self.spans if s.name == "op"), 1)
        counted = [s for s in self.spans if 0 <= s.op < count_ops]
        per_op = 1.0 / count_ops

        def ms(name, self_time=False):
            spans = (s for s in self.spans if s.name == name)
            return 1e3 * sum(s.self_s if self_time else s.duration for s in spans) / n_ops

        def total(name, key):
            return sum(s.attrs.get(key, 0) for s in counted if s.name == name)

        def calls(name, **match):
            return sum(1 for s in counted if s.name == name
                       and all(s.attrs.get(k) == v for k, v in match.items()))

        def ratio(num, den):
            return num / den if den else 0.0

        draws = total("simulator.sample_jobs", "size")
        hits, misses = total("op", "cache_hits"), total("op", "cache_misses")
        return {
            "simulator.sample_jobs_ms": ms("simulator.sample_jobs"),
            "simulator.draws": draws * per_op,
            "simulator.draw_reuse": ratio(useful_draws * count_ops, draws),
            "simulator.assemble_ms": ms("simulator.assemble_trajectory"),
            "simulator.bytes_computed_mb": per_op / 1e6 * (
                total("simulator.sample_jobs", "bytes")
                + total("simulator.assemble_trajectory", "bytes")),
            "simulator.estimate_se_ms": ms("simulator.estimate_reward_se"),
            "gridsearch.points": total("gridsearch.optimize", "points") * per_op,
            "gridsearch.self_ms": ms("gridsearch.optimize", self_time=True),
            "bayes.loop_self_ms": ms("bayes.run_adaptive", self_time=True),
            "bayes.jobs": total("bayes.run_adaptive", "jobs") * per_op,
            "bayes.update_applied_ratio": ratio(total("bayes.run_adaptive", "updates"),
                                                total("bayes.run_adaptive", "jobs")),
            "analytics.reward_exact_calls": calls("analytics.reward_exact") * per_op,
            "analytics.reward_exact_ms": ms("analytics.reward_exact"),
            "analytics.closed_form_fallbacks": calls(
                "analytics.reward_exact", raised="ClosedFormUnavailableError") * per_op,
            "analytics.expected_wait_ms": ms("analytics.expected_wait"),
            "analytics.h_cache_hit_ratio": ratio(hits, hits + misses),
            "distributions.prob_diff_calls": calls("distributions.prob_diff_exceeds") * per_op,
            "distributions.prob_diff_ms": ms("distributions.prob_diff_exceeds"),
            "conditions.check_ms": ms("conditions.check"),
            "conditions.verify_assumption_ms": ms("conditions.verify_assumption"),
            "trace.op_ms": ms("op"),
            "trace.overhead_frac": overhead_frac,
        }


def _record_output(span: Span, result) -> None:
    """Attach the counts a layer's output carries to its span."""
    name = span.name
    if name == "simulator.sample_jobs":
        span.attrs["size"] = int(result.size)
        span.attrs["bytes"] = int(result.nbytes)
    elif name == "simulator.assemble_trajectory":
        span.attrs["bytes"] = sum(int(getattr(result, a).nbytes) for a in _TRAJECTORY_OUTPUTS
                                  if hasattr(result, a))
    elif name == "gridsearch.optimize":
        span.attrs["points"] = len(result.points)
    elif name == "bayes.run_adaptive":
        span.attrs["jobs"] = len(result.trajectory)
        span.attrs["updates"] = int(result.posterior.updates_applied)
