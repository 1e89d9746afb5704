"""Command-line front end: parse configs, dispatch, write CSV/JSON artifacts.

Exit codes: 0 success, 2 config/validation error (the message names the
offending field), 3 when a check-conditions run produced only indeterminate
verdicts. Every error is also emitted as a one-line JSON record on stderr.
All randomness flows from the single --seed value through named substreams,
and floats are printed at 12 significant digits, so artifacts from a pinned
seed are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from ._fmt import atomic_write_text, fmt_float
from .bayes import BayesConfig, adaptive_log_to_csv, run_adaptive
from .conditions import (
    VERDICT_INDETERMINATE,
    check_exponential,
    check_general,
    check_polynomial,
    check_surrogate,
    region_scan,
)
from .config import (
    ConfigError,
    _integer,
    _is_a,
    _no_strays,
    _number,
    parse_distribution,
    parse_experiment,
    parse_reward,
    parse_schedule,
    parse_window,
)
from .gridsearch import MAX_GRID_POINTS, optimize
from .reward import ExponentialReward, PolynomialReward
from .scenarios import ExperimentSpec, mean_shift_run, run_suite, suite_to_csv
from .simulator import (
    EmptyWindowError,
    InvalidScheduleError,
    ParameterError,
    Window,
    estimate_reward,
    run_fixed_lag,
)

__all__ = ["main", "COMMAND_CONFIG_KEYS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INDETERMINATE = 3

# the BayesConfig fields, shared by the commands that run the adaptive learner
_LEARNER_KEYS = {
    "rule": "learner: gradient (renewal-reward ascent, default) | gamma (Gamma-state rule)",
    "alpha0": "gamma rule: prior shape (default 1)",
    "beta0": "gamma rule: prior rate (default 1)",
    "eps_idle": "gamma rule: shape credit for an idle-idle pair (default 3)",
    "eps_busy": "gamma rule: shape credit for a busy-busy pair (default 1)",
}

# every config key each command accepts, surfaced verbatim in --help
COMMAND_CONFIG_KEYS: dict[str, dict[str, str]] = {
    "simulate": {
        "service": "distribution literal for service times",
        "delay": "distribution literal for call-to-arrival delays",
        "lag": "fixed lag applied to every call (default 0)",
        "n": "number of jobs to simulate",
        "schedule": "optional stationary/gradual/abrupt mean schedule",
        "reward": "optional reward literal; adds a reward estimate to the summary",
        "window": "estimation window: \"all\", last_k or sliding (default all)",
    },
    "grid-search": {
        "service": "distribution literal for service times",
        "delay": "distribution literal for delays",
        "reward": "reward literal scored at each grid point",
        "lag_min": "grid start (default 0)",
        "lag_max": "grid end (default 3x mean service time)",
        "step": "grid step (default span/60)",
        "n": "jobs per simulated grid point (default 100000)",
        "objective": "simulated | exact | surrogate (default simulated)",
        "schedule": "optional mean schedule for simulated objectives",
        "burn_in": "jobs dropped before estimating (default 1000)",
    },
    "bayes": {
        "service": "distribution literal for service times",
        "delay": "distribution literal for delays",
        "reward": "reward literal for the tracked estimate",
        "n": "number of jobs",
        "schedule": "optional mean schedule",
        **_LEARNER_KEYS,
        "reporting": "reward window: last_k or sliding (default last_k 5000)",
    },
    "check-conditions": {
        "service": "distribution literal for service times",
        "delay": "distribution literal for delays",
        "reward": "reward literal the conditions are evaluated for",
        "checks": "subset of [general, exponential, polynomial, surrogate]",
    },
    "region-scan": {
        "service_family": "exponential | uniform | truncnorm",
        "delay_family": "exponential | uniform | truncnorm",
        "kappa": "exponential reward rate",
        "mode": "thm2_cond1 | cor1 (default thm2_cond1)",
        "ts": "service-mean grid: {min, max, count} or explicit list",
        "td": "delay-mean grid: {min, max, count} or explicit list",
    },
    "mean-shift": {
        "kind": "gradual | abrupt",
        "service": "distribution literal for service times",
        "delay": "distribution literal for delays",
        "reward": "reward literal",
        "schedule": "gradual or abrupt mean schedule driving the shift",
        "n": "number of jobs",
        "width": "sliding window width (default 2000)",
        **_LEARNER_KEYS,
    },
    "suite": {
        "cases": "list of experiment objects (id, service, delay, reward, methods, schedule, n, seeds, reporting)",
        "grid_n": "jobs per simulated grid point (default 100000)",
    },
}


class _CliError(Exception):
    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise _CliError(f"config file not found: {path}", field="config")
    except json.JSONDecodeError as exc:
        raise _CliError(f"config is not valid JSON: {exc}", field="config")
    if not isinstance(cfg, dict):
        raise _CliError("config root must be a JSON object", field="config")
    return cfg


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise _CliError(f"--set expects key=value, got {item!r}", field="set")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise _CliError(f"--set path {key!r} crosses a non-object", field=key)
        node[parts[-1]] = value
    return cfg


def _seed_of(args) -> int:
    return args.seed if args.seed is not None else 0


class _OutputDir:
    def __init__(self, path: str, force: bool):
        self.dir = Path(path)
        self.force = force
        self.dir.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[Path] = []

    def target(self, name: str) -> Path:
        path = self.dir / name
        if path.exists() and not self.force:
            raise _CliError(
                f"artifact {path} already exists; pass --force to overwrite", field="out"
            )
        self.artifacts.append(path)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        path = self.target(name)
        atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _window_from(cfg: dict, key: str, default: Window) -> Window:
    if key not in cfg or cfg[key] is None:
        return default
    return parse_window(cfg[key], key)


def _float_field(cfg: dict, key: str, default=None):
    """cfg[key] as a JSON number (an int or a float, not a bool), or default
    when absent."""
    return _number(cfg, key, "") if key in cfg else default


def _integer_field(cfg: dict, key: str, default: int) -> int:
    """cfg[key] as a JSON integer (not a bool or a float), or default when absent."""
    return _integer(cfg, key, "") if key in cfg else default


def _run_error(exc: ValueError, window: str, fallback: str) -> ConfigError:
    """The config error naming the field behind a ValueError a run raised:
    the window field for a window that does not fit, ``schedule`` for a
    schedule the laws cannot follow, the parameter a ParameterError names,
    and ``fallback`` for anything else."""
    if isinstance(exc, EmptyWindowError):
        field = window
    elif isinstance(exc, InvalidScheduleError):
        field = "schedule"
    elif isinstance(exc, ParameterError):
        field = exc.name
    else:
        field = fallback
    return ConfigError(field, str(exc))


def _bayes_config(cfg: dict) -> BayesConfig:
    # each BayesConfig check concerns one field, so validating the fields one
    # at a time names the offending one
    fields = {}
    for key in _LEARNER_KEYS:
        if key not in cfg:
            continue
        fields[key] = str(cfg[key]) if key == "rule" else _float_field(cfg, key)
        try:
            BayesConfig(**{key: fields[key]})
        except (TypeError, ValueError) as exc:
            raise ConfigError(key, str(exc)) from exc
    return BayesConfig(**fields)


def _reward_summary(reward, window: Window, key: str) -> dict:
    """The summary field of a reward estimate: the last window's value as
    reward_final_window under a sliding window, else the estimate under key."""
    if window.kind == "sliding":
        return {"reward_final_window": fmt_float(reward[-1])}
    return {key: fmt_float(reward)}


def _cmd_simulate(cfg: dict, out: _OutputDir, seed: int) -> int:
    service = parse_distribution(cfg.get("service"), "service")
    delay = parse_distribution(cfg.get("delay"), "delay")
    n = _integer(cfg, "n", "")
    lag = _float_field(cfg, "lag", 0.0)
    schedule = parse_schedule(cfg.get("schedule"))
    window = _window_from(cfg, "window", Window.all())
    f = parse_reward(cfg["reward"]) if cfg.get("reward") is not None else None
    try:
        traj = run_fixed_lag(service, delay, lag, n, schedule, seed)
        estimate = estimate_reward(traj, f, window) if f is not None else None
    except ValueError as exc:
        raise _run_error(exc, "window", "lag") from exc
    traj.to_csv(out.target("trajectory.csv"))
    summary = {
        "n": n,
        "lag": lag,
        "seed": seed,
        "mean_wait": fmt_float(float(traj.wait.mean())),
        "mean_iat": fmt_float(float(traj.iat[1:].mean())),
    }
    if estimate is not None:
        summary.update(_reward_summary(estimate, window, "reward_estimate"))
    out.write_json("summary.json", summary)
    return EXIT_OK


def _cmd_grid_search(cfg: dict, out: _OutputDir, seed: int) -> int:
    service = parse_distribution(cfg.get("service"), "service")
    delay = parse_distribution(cfg.get("delay"), "delay")
    f = parse_reward(cfg.get("reward"), "reward")
    schedule = parse_schedule(cfg.get("schedule"))
    try:
        result = optimize(
            service,
            delay,
            f,
            lag_min=_float_field(cfg, "lag_min", 0.0),
            lag_max=_float_field(cfg, "lag_max"),
            step=_float_field(cfg, "step"),
            n=_integer_field(cfg, "n", 100_000),
            seed=seed,
            objective=str(cfg.get("objective", "simulated")),
            schedule=schedule,
            burn_in=_integer_field(cfg, "burn_in", 1000),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise _run_error(exc, "burn_in", "objective") from exc
    result.to_csv(out.target("grid.csv"))
    out.write_json(
        "summary.json",
        {
            "objective": result.objective,
            "best_lag": fmt_float(result.best_lag),
            "best_reward": fmt_float(result.best_reward),
            "points": len(result.points),
            "seed": seed,
        },
    )
    return EXIT_OK


def _cmd_bayes(cfg: dict, out: _OutputDir, seed: int) -> int:
    service = parse_distribution(cfg.get("service"), "service")
    delay = parse_distribution(cfg.get("delay"), "delay")
    f = parse_reward(cfg.get("reward"), "reward")
    n = _integer(cfg, "n", "")
    reporting = _window_from(cfg, "reporting", Window.last_k(5000))
    schedule = parse_schedule(cfg.get("schedule"))
    bayes_cfg = _bayes_config(cfg)
    try:
        result = run_adaptive(
            service, delay, schedule, f, n=n, cfg=bayes_cfg, seed=seed, reporting=reporting
        )
    except ValueError as exc:
        raise _run_error(exc, "reporting", "n") from exc
    adaptive_log_to_csv(result, f, out.target("bayes_log.csv"))
    if bayes_cfg.rule == "gamma":
        post = result.posterior
        out.write_json(
            "posterior.json",
            {
                "alpha": post.alpha,
                "beta": post.beta,
                "updates_applied": post.updates_applied,
            },
        )
    summary = {
        "seed": seed,
        "n": n,
        "mean_lag_estimate": fmt_float(result.lag_estimate),
        **_reward_summary(result.reward, reporting, "reward"),
    }
    out.write_json("summary.json", summary)
    return EXIT_OK


_CHECK_NAMES = ("general", "exponential", "polynomial", "surrogate")


def _cmd_check_conditions(cfg: dict, out: _OutputDir, seed: int) -> int:
    service = parse_distribution(cfg.get("service"), "service")
    delay = parse_distribution(cfg.get("delay"), "delay")
    f = parse_reward(cfg.get("reward"), "reward")
    if "checks" in cfg:
        checks = cfg["checks"]
        if not isinstance(checks, list) or not checks:
            raise ConfigError("checks", "expected a nonempty list")
        for name in checks:
            if name not in _CHECK_NAMES:
                raise ConfigError("checks", f"unknown check {name!r}")
    elif isinstance(f, ExponentialReward):
        checks = ["general", "exponential", "surrogate"]
    else:
        checks = ["general", "polynomial"]

    reports = []
    for name in checks:
        if name == "general":
            reports.append(check_general(service, delay, f))
        elif name == "exponential":
            if not isinstance(f, ExponentialReward):
                raise ConfigError("checks", "exponential check needs an exp reward")
            reports.append(check_exponential(service, delay, f.kappa))
        elif name == "polynomial":
            if not isinstance(f, PolynomialReward):
                raise ConfigError("checks", "polynomial check needs a poly reward")
            reports.append(check_polynomial(service, delay, f.gamma))
        else:
            if not isinstance(f, ExponentialReward):
                raise ConfigError("checks", "surrogate check needs an exp reward")
            reports.extend(check_surrogate(service, delay, f.kappa))

    out.write_json("conditions.json", {"reports": [r.to_dict() for r in reports]})
    if all(r.verdict == VERDICT_INDETERMINATE for r in reports):
        return EXIT_INDETERMINATE
    return EXIT_OK


def _grid_values(cfg: dict, key: str) -> list[float]:
    """The mean grid under key: positive means whose family laws, which span
    [0, 2 * mean], stay finite."""
    raw = cfg.get(key)

    def numbers(items: list) -> list[float]:
        if not all(_is_a(v, (int, float)) for v in items):
            raise ConfigError(key, f"grid values must be numbers, got {items}")
        return [float(v) for v in items]

    if isinstance(raw, list) and raw:
        values = numbers(raw)
    elif isinstance(raw, dict):
        for sub in ("min", "max", "count"):
            if sub not in raw:
                raise ConfigError(f"{key}.{sub}", "missing required field")
        count = _integer(raw, "count", key)
        if count < 2:
            raise ConfigError(f"{key}.count", "need at least 2 grid values")
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"{key}.count", f"at most {MAX_GRID_POINTS} grid values, got {count}")
        lo, hi = numbers([raw["min"], raw["max"]])
        values = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    else:
        raise ConfigError(key, "expected a list of values or {min, max, count}")
    if not all(0 < 2.0 * v < math.inf for v in values):
        raise ConfigError(key, f"grid means must be finite and positive, got {values}")
    return values


def _cmd_region_scan(cfg: dict, out: _OutputDir, seed: int) -> int:
    for key in ("service_family", "delay_family", "kappa"):
        if key not in cfg:
            raise ConfigError(key, "missing required field")
    ts, td = _grid_values(cfg, "ts"), _grid_values(cfg, "td")
    kappa = _float_field(cfg, "kappa")
    try:
        scan = region_scan(
            ts,
            td,
            kappa,
            mode=str(cfg.get("mode", "thm2_cond1")),
            families=(str(cfg["service_family"]), str(cfg["delay_family"])),
        )
    except ParameterError as exc:
        raise ConfigError(exc.name, str(exc)) from exc
    scan.to_csv(out.target("region.csv"))
    return EXIT_OK


def _cmd_mean_shift(cfg: dict, out: _OutputDir, seed: int) -> int:
    for key in ("kind", "schedule", "n"):
        if key not in cfg:
            raise ConfigError(key, "missing required field")
    service = parse_distribution(cfg.get("service"), "service")
    delay = parse_distribution(cfg.get("delay"), "delay")
    reward = parse_reward(cfg.get("reward"), "reward")
    schedule = parse_schedule(cfg["schedule"], "schedule")
    n = _integer(cfg, "n", "")
    width = _integer_field(cfg, "width", 2000)
    bayes_cfg = _bayes_config(cfg)
    try:
        base = ExperimentSpec(
            id="mean-shift",
            service=service,
            delay=delay,
            reward=reward,
            methods=frozenset({"bayes"}),
            schedule=schedule,
            n=n,
            seeds=(seed,),
            reporting=Window.sliding(width),
        )
        result = mean_shift_run(str(cfg["kind"]), base, width=width, cfg=bayes_cfg)
    except ValueError as exc:
        raise _run_error(exc, "width", "kind") from exc
    result.to_csv(out.target("meanshift.csv"))
    return EXIT_OK


def _cmd_suite(cfg: dict, out: _OutputDir, seed: int) -> int:
    raw_cases = cfg.get("cases")
    if not isinstance(raw_cases, list) or not raw_cases:
        raise ConfigError("cases", "expected a nonempty list of experiment objects")
    specs = [parse_experiment(case, f"cases[{i}]") for i, case in enumerate(raw_cases)]
    try:
        rows = run_suite(specs, grid_n=_integer_field(cfg, "grid_n", 100_000))
    except ParameterError as exc:  # grid_n, or "specs" for a case that cannot run
        raise ConfigError("cases" if exc.name == "specs" else exc.name, str(exc)) from exc
    suite_to_csv(rows, out.target("suite.csv"))
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "grid-search": _cmd_grid_search,
    "bayes": _cmd_bayes,
    "check-conditions": _cmd_check_conditions,
    "region-scan": _cmd_region_scan,
    "mean-shift": _cmd_mean_shift,
    "suite": _cmd_suite,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlag",
        description="Lag-policy queue simulation, optimality checks, and adaptive learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _HANDLERS:
        keys = COMMAND_CONFIG_KEYS[command]
        epilog = "config keys:\n" + "\n".join(
            f"  {key:<16} {desc}" for key, desc in keys.items()
        )
        p = sub.add_parser(
            command,
            help=f"run the {command} command",
            epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="top-level seed (default 0)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted paths allowed, value parsed as JSON)",
        )
        p.add_argument("--force", action="store_true", help="overwrite existing artifacts")
    return parser


def _emit_error(message: str, field: str | None, out_dir: str | None) -> None:
    record = {"error": message, "field": field}
    print(json.dumps(record), file=sys.stderr)
    if out_dir is not None:
        path = Path(out_dir)
        if path.is_dir():
            try:
                atomic_write_text(path / "error.json", json.dumps(record, indent=2) + "\n")
            except OSError:
                pass


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out
    try:
        cfg = _load_config(args.config)
        cfg = _apply_overrides(cfg, args.set)
        _no_strays(cfg, "", COMMAND_CONFIG_KEYS[args.command], repr(args.command))
        out = _OutputDir(out_dir, args.force)
        return _HANDLERS[args.command](cfg, out, _seed_of(args))
    except ConfigError as exc:
        _emit_error(str(exc), exc.field, out_dir)
        return EXIT_CONFIG
    except _CliError as exc:
        _emit_error(str(exc), exc.field, out_dir)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
