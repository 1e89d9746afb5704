"""Sufficient-condition checkers for zero-lag optimality.

Each checker evaluates one analytic condition for calling the next job
immediately (zero lag), and reports the two sides of the inequality plus a
three-valued verdict. Theorem 1 and its corollaries speak about the reward
G itself. Theorem 2 (``check_surrogate``, and ``region_scan`` in mode
"thm2_cond1") makes zero lag the maximiser of the surrogate upper bound on
G, not of G: at t_s = 1, t_d = 0.8 and kappa = 1 (exponential laws) both of
its conditions hold, yet G(0.075) exceeds G(0). A divergent MGF, one beyond
the float range, or a failed numeric evaluation yields "indeterminate"
rather than a silent "fails": the conditions presuppose well-defined
exponential moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    FAMILIES,
    Deterministic,
    DistributionSpec,
    DivergentMGFError,
    law_for_family,
    prob_diff_exceeds,
)
from ._fmt import fmt_float, write_table
from .analytics import _check_positive, _exact_waits
from .simulator import ParameterError

__all__ = [
    "VERDICT_HOLDS",
    "VERDICT_FAILS",
    "VERDICT_INDETERMINATE",
    "ConditionReport",
    "AssumptionReport",
    "check_general",
    "check_exponential",
    "check_polynomial",
    "check_surrogate",
    "verify_assumption",
    "region_scan",
    "RegionScan",
]

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    lhs: float
    rhs: float
    verdict: str
    assumption_checked: bool
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "lhs": fmt_float(self.lhs),
            "rhs": fmt_float(self.rhs),
            "verdict": self.verdict,
            "assumption_checked": self.assumption_checked,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class AssumptionReport:
    """Result of probing whether lag^2 * P(S - D > lag) is non-increasing."""

    ok: bool
    worst_violation: float
    worst_pair: tuple[float, float]


def _expect_sum_two(spec: DistributionSpec, g) -> float:
    """E[g(X + X')] over two independent copies of the law."""
    return spec.expect(lambda x: spec.expect(lambda y: g(x + y)))


def _rhs_from_tail(p: float) -> float:
    if p <= 0.0:
        return math.inf
    root = math.sqrt(p)
    return 1.0 / root - root


def _verdict(lhs: float, rhs: float, strict: bool = False) -> str:
    if math.isnan(lhs) or math.isnan(rhs):
        return VERDICT_INDETERMINATE
    if strict:
        return VERDICT_HOLDS if lhs < rhs else VERDICT_FAILS
    return VERDICT_HOLDS if lhs <= rhs else VERDICT_FAILS


_PROBE_GRID = np.geomspace(1.0, 20.0, 65)[1:]  # 64 log-spaced lags in (1, 20]


def verify_assumption(service: DistributionSpec, delay: DistributionSpec) -> AssumptionReport:
    """Probe the auxiliary tail assumption used past unit lag.

    True iff lag^2 * P(S - D > lag) is non-increasing across 64 log-spaced
    lags in (1, 20] within a 1e-6 tolerance; the report carries the worst
    adjacent-pair violation.
    """
    diffs = np.diff([x * x * prob_diff_exceeds(service, delay, float(x)) for x in _PROBE_GRID])
    i = int(np.argmax(diffs))
    worst = float(diffs[i])
    return AssumptionReport(ok=worst <= 1e-6, worst_violation=max(worst, 0.0),
                            worst_pair=(float(_PROBE_GRID[i]), float(_PROBE_GRID[i + 1])))


def _assumption_flag(service, delay, check_assumption: bool) -> tuple[bool, str]:
    if not check_assumption:
        return False, "tail assumption not evaluated"
    report = verify_assumption(service, delay)
    if report.ok:
        return True, ""
    return False, (
        f"lag^2 tail increases by {report.worst_violation:.3g} "
        f"between lags {report.worst_pair[0]:.4g} and {report.worst_pair[1]:.4g}"
    )


def _zero_lag_report(
    condition_id: str, service, delay, check_assumption: bool, lhs_of
) -> ConditionReport:
    """Report lhs_of(E[D + S + 1]) <= 1/sqrt(p) - sqrt(p), p = P(S_prev - D > 0).

    A failing moment evaluation in lhs_of makes the verdict indeterminate.
    """
    p = prob_diff_exceeds(service, delay, 0.0)
    mean_term = delay.mean + service.mean + 1.0
    assumption_ok, note = _assumption_flag(service, delay, check_assumption)
    try:
        lhs = lhs_of(mean_term)
    except Exception as exc:
        return ConditionReport(
            condition_id, math.nan, math.nan, VERDICT_INDETERMINATE,
            assumption_ok, f"moment evaluation failed: {exc}",
        )
    rhs = _rhs_from_tail(p)
    return ConditionReport(condition_id, lhs, rhs, _verdict(lhs, rhs), assumption_ok, note)


def check_general(
    service: DistributionSpec,
    delay: DistributionSpec,
    f,
    *,
    check_assumption: bool = True,
) -> ConditionReport:
    """General-reward sufficient condition for zero-lag optimality:

    E[D + S + 1] * sqrt(E[(f'(S))^2]) / E[f(S + S_prev)]
        <= 1/sqrt(p) - sqrt(p),     p = P(S_prev - D > 0).
    """
    return _zero_lag_report(
        "thm1_general", service, delay, check_assumption,
        lambda mean_term: (
            mean_term
            * math.sqrt(max(service.expect(lambda s: float(f.deriv(s)) ** 2), 0.0))
            / _expect_sum_two(service, lambda t: float(f.eval(t)))
        ),
    )


def check_exponential(
    service: DistributionSpec,
    delay: DistributionSpec,
    kappa: float,
    *,
    check_assumption: bool = True,
) -> ConditionReport:
    """Exponential-reward specialization:

    kappa * E[D + S + 1] * sqrt(M_S(-2*kappa)) / M_S(-kappa)^2 <= 1/sqrt(p) - sqrt(p).
    """
    _check_positive("kappa", kappa)
    return _zero_lag_report(
        "cor1_exponential", service, delay, check_assumption,
        lambda mean_term: (
            kappa * mean_term * math.sqrt(service.mgf(-2.0 * kappa)) / service.mgf(-kappa) ** 2
        ),
    )


def check_polynomial(
    service: DistributionSpec,
    delay: DistributionSpec,
    gamma: float,
    *,
    check_assumption: bool = True,
) -> ConditionReport:
    """Polynomial-reward specialization:

    gamma * E[D + S + 1] * sqrt(E[(S+1)^(-2*gamma-2)]) / E[(S + S_prev + 1)^(-gamma)]
        <= 1/sqrt(p) - sqrt(p).
    """
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    return _zero_lag_report(
        "cor2_polynomial", service, delay, check_assumption,
        lambda mean_term: (
            gamma
            * mean_term
            * math.sqrt(max(service.expect(lambda s: (s + 1.0) ** (-2.0 * gamma - 2.0)), 0.0))
            / _expect_sum_two(service, lambda t: (t + 1.0) ** (-gamma))
        ),
    )


def _prob_delay_exceeds_service(service, delay) -> tuple[float, str]:
    if isinstance(service, Deterministic) and isinstance(delay, Deterministic):
        if delay.value == service.value:
            return 1.0, "tie P(D = S) = 1 counted into P(D >= S)"
        return (1.0 if delay.value > service.value else 0.0), ""
    return 1.0 - prob_diff_exceeds(service, delay, 0.0), ""


def check_surrogate(
    service: DistributionSpec,
    delay: DistributionSpec,
    kappa: float,
) -> tuple[ConditionReport, ConditionReport]:
    """Both Theorem-2 conditions, under which zero lag maximizes the surrogate
    bound on G (not necessarily G itself; see the module docstring).

    Condition 1: M_S(-kappa) * M_D(kappa) >= 1 (reported as rhs, with lhs = 1).
    Condition 2: (1/kappa) ln(1/(M_D(kappa) M_S(-kappa))) + E[D] + E[W]|_0
                 < (1/kappa) P(D > S)  (strict).
    A divergent M_D(kappa) makes both reports indeterminate.
    """
    _check_positive("kappa", kappa)
    try:
        ms = service.mgf(-kappa)
        md = delay.mgf(kappa)
    except DivergentMGFError as exc:
        note = f"divergent MGF: {exc}"
        nan = math.nan
        return (
            ConditionReport("thm2_cond1", nan, nan, VERDICT_INDETERMINATE, False, note),
            ConditionReport("thm2_cond2", nan, nan, VERDICT_INDETERMINATE, False, note),
        )
    product = ms * md
    cond1 = ConditionReport(
        "thm2_cond1",
        1.0,
        product,
        _verdict(1.0, product),
        False,
        "rhs is the MGF product M_S(-kappa) * M_D(kappa); holds iff it reaches 1",
    )
    pds, tie_note = _prob_delay_exceeds_service(service, delay)
    rhs2 = pds / kappa
    if product == 0.0:
        # the true lhs exceeds ln(1 / 5e-324) / kappa > 744 / kappa, and rhs <= 1 / kappa
        return cond1, ConditionReport(
            "thm2_cond2", math.inf, rhs2, VERDICT_FAILS, False,
            "the MGF product M_S(-kappa) * M_D(kappa) underflowed to 0, so lhs is inf",
        )
    ew0 = float(_exact_waits(service, delay, [0.0])[0])
    lhs2 = math.log(1.0 / product) / kappa + delay.mean + ew0
    cond2 = ConditionReport(
        "thm2_cond2", lhs2, rhs2, _verdict(lhs2, rhs2, strict=True), False, tie_note
    )
    return cond1, cond2


@dataclass(frozen=True)
class RegionScan:
    """Verdict matrix over a (service mean, delay mean) grid."""

    ts_values: tuple[float, ...]
    td_values: tuple[float, ...]
    verdicts: tuple[tuple[str, ...], ...]  # [i][j] for (ts_values[i], td_values[j])
    mode: str
    kappa: float

    def verdict_at(self, i: int, j: int) -> str:
        return self.verdicts[i][j]

    def to_csv(self, path) -> None:
        write_table(path, {
            "t_s": np.repeat(self.ts_values, len(self.td_values)),
            "t_d": np.tile(self.td_values, len(self.ts_values)),
            "verdict": [v for row in self.verdicts for v in row],
        })


def region_scan(
    ts_values: Sequence[float],
    td_values: Sequence[float],
    kappa: float,
    mode: str = "thm2_cond1",
    families: tuple[str, str] = ("exponential", "exponential"),
) -> RegionScan:
    """Classify every (t_s, t_d) cell by one zero-lag optimality condition.

    The laws come from ``law_for_family`` at each cell's means. mode
    "thm2_cond1" tests the MGF product, the first condition under which zero
    lag maximizes the surrogate bound on G; mode "cor1" runs the
    exponential-reward specialization checker. Cells whose MGFs diverge
    are marked indeterminate. A bad mode, family or kappa raises a
    ParameterError naming ``mode``, ``service_family``, ``delay_family``
    or ``kappa``.
    """
    if mode not in ("thm2_cond1", "cor1"):
        raise ParameterError("mode", f"unknown region-scan mode {mode!r}")
    for name, family in zip(("service_family", "delay_family"), families, strict=True):
        if family not in FAMILIES:
            raise ParameterError(name, f"unknown family {family!r}; expected one of {FAMILIES}")
    _check_positive("kappa", kappa)
    ts = tuple(float(t) for t in ts_values)
    td = tuple(float(t) for t in td_values)
    services = [law_for_family(families[0], t_s) for t_s in ts]
    delays = [law_for_family(families[1], t_d) for t_d in td]

    def verdict(service: DistributionSpec, delay: DistributionSpec) -> str:
        try:
            if mode == "thm2_cond1":
                product = service.mgf(-kappa) * delay.mgf(kappa)
                return VERDICT_HOLDS if product >= 1.0 else VERDICT_FAILS
            return check_exponential(service, delay, kappa, check_assumption=False).verdict
        except DivergentMGFError:
            return VERDICT_INDETERMINATE

    verdicts = tuple(tuple(verdict(s, d) for d in delays) for s in services)
    return RegionScan(ts_values=ts, td_values=td, verdicts=verdicts, mode=mode, kappa=kappa)
