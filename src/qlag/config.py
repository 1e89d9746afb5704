"""JSON config literals with field-path validation errors.

Every parse error carries the dotted path of the offending field
(e.g. "service.mean") so the CLI can name it in both the human message
and the machine-readable error record.
"""

from __future__ import annotations

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


def _require(obj: dict, key: str, path: str, kinds) -> Any:
    """obj[key] if it is one of kinds and not a bool; path "" names a top-level key."""
    field = f"{path}.{key}" if path else key
    if key not in obj:
        raise ConfigError(field, "missing required field")
    value = obj[key]
    if not _is_a(value, kinds):
        raise ConfigError(field, f"expected {kinds}, got {type(value).__name__}")
    return value


def _number(obj: dict, key: str, path: str) -> float:
    return float(_require(obj, key, path, (int, float)))


def _integer(obj: dict, key: str, path: str) -> int:
    return int(_require(obj, key, path, int))


def _check_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def parse_distribution(obj: Any, path: str = "distribution") -> DistributionSpec:
    obj = _check_mapping(obj, path)
    kind = _require(obj, "kind", path, str)
    try:
        if kind == "exponential":
            return Exponential(_number(obj, "mean", path))
        if kind == "uniform":
            return Uniform(_number(obj, "lower", path), _number(obj, "upper", path))
        if kind == "truncnorm":
            return TruncatedNormal(
                _number(obj, "mu", path),
                _number(obj, "sigma", path),
                _number(obj, "lower", path),
                _number(obj, "upper", path),
            )
        if kind == "deterministic":
            return Deterministic(_number(obj, "value", path))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(
        f"{path}.kind",
        f"unknown kind {kind!r}; expected exponential, uniform, truncnorm or deterministic",
    )


def parse_reward(obj: Any, path: str = "reward") -> RewardSpec:
    obj = _check_mapping(obj, path)
    kind = _require(obj, "kind", path, str)
    try:
        if kind == "exp":
            return ExponentialReward(_number(obj, "kappa", path))
        if kind == "poly":
            return PolynomialReward(_number(obj, "gamma", path))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected exp or poly")


def parse_schedule(obj: Any, path: str = "schedule") -> Optional[ParamSchedule]:
    if obj is None:
        return None
    obj = _check_mapping(obj, path)
    kind = _require(obj, "kind", path, str)
    try:
        if kind == "stationary":
            return Stationary(_number(obj, "t_s", path), _number(obj, "t_d", path))
        if kind == "gradual":
            return GradualLinear(
                _number(obj, "t_s_start", path),
                _number(obj, "t_s_end", path),
                _number(obj, "t_d_start", path),
                _number(obj, "t_d_end", path),
                _integer(obj, "over_jobs", path),
            )
        if kind == "abrupt":
            raw = _require(obj, "segments", path, list)
            segments = []
            for i, seg in enumerate(raw):
                seg_path = f"{path}.segments[{i}]"
                if not isinstance(seg, (list, tuple)) or len(seg) != 3:
                    raise ConfigError(seg_path, "expected [length, t_s, t_d]")
                length, t_s, t_d = seg
                if not _is_a(length, int):
                    raise ConfigError(f"{seg_path}[0]", "segment length must be an integer")
                segments.append((length, float(t_s), float(t_d)))
            return AbruptPiecewise(tuple(segments))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(
        f"{path}.kind", f"unknown kind {kind!r}; expected stationary, gradual or abrupt"
    )


def parse_window(obj: Any, path: str = "window") -> Window:
    if obj == "all":
        return Window.all()
    obj = _check_mapping(obj, path)
    kind = _require(obj, "kind", path, str)
    try:
        if kind == "all":
            return Window.all()
        if kind == "last_k":
            return Window.last_k(_integer(obj, "k", path))
        if kind == "sliding":
            return Window.sliding(_integer(obj, "width", path))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected all, last_k or sliding")


def parse_experiment(obj: Any, path: str = "case") -> ExperimentSpec:
    obj = _check_mapping(obj, path)
    case_id = _require(obj, "id", path, str)
    methods = _require(obj, "methods", path, list)
    seeds = _require(obj, "seeds", path, list)
    for i, seed in enumerate(seeds):
        if not _is_a(seed, int):
            raise ConfigError(f"{path}.seeds[{i}]", "seeds must be integers")
    reporting = parse_window(obj.get("reporting", {"kind": "last_k", "k": 5000}),
                             f"{path}.reporting")
    try:
        return ExperimentSpec(
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
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
