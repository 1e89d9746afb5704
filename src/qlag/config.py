"""JSON config literals with field-path validation errors.

Every parse error carries the dotted path of the offending field
(e.g. "service.mean") so the CLI can name it in both the human message
and the machine-readable error record.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Optional

from .distributions import Deterministic, DistributionSpec, Exponential, TruncatedNormal, Uniform
from .reward import ExponentialReward, PolynomialReward, RewardSpec
from .scenarios import ExperimentSpec
from .simulator import AbruptPiecewise, GradualLinear, ParamSchedule, Stationary, Window

__all__ = [
    "ConfigError",
    "parse_distribution",
    "parse_reward",
    "parse_schedule",
    "parse_window",
    "parse_experiment",
]


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _is_a(value: Any, kinds) -> bool:
    """isinstance(value, kinds), where a JSON bool is neither an int nor a float."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _typed(value: Any, field: str, kinds) -> Any:
    if not _is_a(value, kinds):
        raise ConfigError(field, f"expected {kinds}, got {type(value).__name__}")
    return value


def _field(path: str, key: str) -> str:
    """The dotted name of key under path; path "" names a top-level key."""
    return f"{path}.{key}" if path else key


def _require(obj: dict, key: str, path: str, kinds) -> Any:
    """obj[key] if it is one of kinds and not a bool."""
    field = _field(path, key)
    if key not in obj:
        raise ConfigError(field, "missing required field")
    return _typed(obj[key], field, kinds)


def _no_strays(obj: dict, path: str, allowed, owner: str) -> None:
    """Reject the first key of obj that is not in allowed, naming it."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(_field(path, key), f"unexpected field for {owner}")


def _number(obj: dict, key: str, path: str) -> float:
    return float(_require(obj, key, path, (int, float)))


def _integer(obj: dict, key: str, path: str) -> int:
    return int(_require(obj, key, path, int))


def _entries(obj: dict, key: str, path: str, kinds, noun: str) -> list:
    """obj[key] as a list whose entries are each one of kinds."""
    items = _require(obj, key, path, list)
    for i, item in enumerate(items):
        if not _is_a(item, kinds):
            raise ConfigError(f"{path}.{key}[{i}]", f"{key} must be {noun}")
    return items


def _segments(obj: dict, key: str, path: str) -> tuple:
    """obj[key] as abrupt-schedule segments [integer length, number t_s, number t_d]."""
    segments = []
    for i, seg in enumerate(_require(obj, key, path, list)):
        field = f"{path}.{key}[{i}]"
        if not isinstance(seg, (list, tuple)) or len(seg) != 3:
            raise ConfigError(field, "expected [length, t_s, t_d]")
        if not _is_a(seg[0], int):
            raise ConfigError(f"{field}[0]", "segment length must be an integer")
        t_s, t_d = (float(_typed(seg[j], f"{field}[{j}]", (int, float))) for j in (1, 2))
        segments.append((seg[0], t_s, t_d))
    return tuple(segments)


def _check_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


# Each literal family maps a kind to its constructor and the (field, reader)
# pairs that give the constructor's arguments in order.
_DISTRIBUTIONS = {
    "exponential": (Exponential, (("mean", _number),)),
    "uniform": (Uniform, (("lower", _number), ("upper", _number))),
    "truncnorm": (TruncatedNormal, (("mu", _number), ("sigma", _number),
                                    ("lower", _number), ("upper", _number))),
    "deterministic": (Deterministic, (("value", _number),)),
}
_REWARDS = {
    "exp": (ExponentialReward, (("kappa", _number),)),
    "poly": (PolynomialReward, (("gamma", _number),)),
}
_SCHEDULES = {
    "stationary": (Stationary, (("t_s", _number), ("t_d", _number))),
    "gradual": (GradualLinear, (("t_s_start", _number), ("t_s_end", _number),
                                ("t_d_start", _number), ("t_d_end", _number),
                                ("over_jobs", _integer))),
    "abrupt": (AbruptPiecewise, (("segments", _segments),)),
}
_WINDOWS = {
    "all": (Window.all, ()),
    "last_k": (Window.last_k, (("k", _integer),)),
    "sliding": (Window.sliding, (("width", _integer),)),
}


def _literal(obj: Any, path: str, kinds: dict) -> Any:
    """The {"kind": ..., ...} literal at path, built by its family's table; a
    field that is missing, mistyped or not read by the kind is named, and a
    value the constructor rejects names the literal."""
    obj = _check_mapping(obj, path)
    kind = _require(obj, "kind", path, str)
    if kind not in kinds:
        *head, last = kinds
        raise ConfigError(
            f"{path}.kind", f"unknown kind {kind!r}; expected {', '.join(head)} or {last}"
        )
    build, readers = kinds[kind]
    _no_strays(obj, path, {"kind", *(key for key, _ in readers)}, f"kind {kind!r}")
    args = [read(obj, key, path) for key, read in readers]
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_distribution(obj: Any, path: str = "distribution") -> DistributionSpec:
    return _literal(obj, path, _DISTRIBUTIONS)


def parse_reward(obj: Any, path: str = "reward") -> RewardSpec:
    return _literal(obj, path, _REWARDS)


def parse_schedule(obj: Any, path: str = "schedule") -> Optional[ParamSchedule]:
    return None if obj is None else _literal(obj, path, _SCHEDULES)


def parse_window(obj: Any, path: str = "window") -> Window:
    return Window.all() if obj == "all" else _literal(obj, path, _WINDOWS)


def parse_experiment(obj: Any, path: str = "case") -> ExperimentSpec:
    obj = _check_mapping(obj, path)
    _no_strays(obj, path, {f.name for f in fields(ExperimentSpec)}, "an experiment")
    case_id = _require(obj, "id", path, str)
    methods = _entries(obj, "methods", path, str, "strings")
    seeds = _entries(obj, "seeds", path, int, "integers")
    reporting = parse_window(obj.get("reporting", {"kind": "last_k", "k": 5000}),
                             f"{path}.reporting")
    args = dict(
        id=case_id,
        service=parse_distribution(_require(obj, "service", path, dict), f"{path}.service"),
        delay=parse_distribution(_require(obj, "delay", path, dict), f"{path}.delay"),
        reward=parse_reward(_require(obj, "reward", path, dict), f"{path}.reward"),
        methods=frozenset(methods),
        schedule=parse_schedule(obj.get("schedule"), f"{path}.schedule"),
        n=_integer(obj, "n", path),
        seeds=tuple(seeds),
        reporting=reporting,
    )
    try:
        return ExperimentSpec(**args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
