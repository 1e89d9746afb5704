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
from functools import partial
from pathlib import Path

import numpy as np

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
from .distributions import DivergentMGFError
from .gridsearch import MAX_GRID_POINTS, optimize
from .reward import ExponentialReward, PolynomialReward
from .scenarios import ExperimentSpec, mean_shift_run, run_suite, suite_to_csv
from .simulator import (
    AbruptPiecewise,
    EmptyWindowError,
    GradualLinear,
    InvalidScheduleError,
    ParameterError,
    Stationary,
    Window,
    estimate_reward,
    run_fixed_lag,
)

__all__ = ["main", "COMMAND_CONFIG_KEYS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INDETERMINATE = 3


def _parsed(parse, null_unsets: bool = False, present: bool = False):
    """A reader of the value under key by parse(value, key): null_unsets reads
    a JSON null as unset, and present names a missing key."""
    def read(cfg, key):
        if present and key not in cfg:
            raise ConfigError(key, "missing required field")
        value = cfg.get(key)
        return None if null_unsets and value is None else parse(value, key)
    return read


# A reader takes (cfg, key) and returns the key's value, or None to leave the
# key unset, as a JSON null schedule, window or simulate reward does.
_num, _int = partial(_number, path=""), partial(_integer, path="")
_law, _reward, _schedule = (_parsed(p) for p in (parse_distribution, parse_reward, parse_schedule))
_window, _optional_reward = _parsed(parse_window, True), _parsed(parse_reward, True)
_text = _parsed(lambda value, _: str(value), present=True)
_required_schedule = _parsed(parse_schedule, present=True)


def _learner(cfg, key):
    """A BayesConfig field. Each BayesConfig check concerns one field, so
    validating the fields one at a time names the offending one."""
    value = str(cfg[key]) if key == "rule" else _number(cfg, key, "")
    try:
        BayesConfig(**{key: value})
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from exc
    return value


# check name -> (the reward type it needs, that reward's literal, its checker)
_CHECKS = {
    "general": (object, "", lambda s, d, f: [check_general(s, d, f)]),
    "exponential": (ExponentialReward, "an exp",
                    lambda s, d, f: [check_exponential(s, d, f.kappa)]),
    "polynomial": (PolynomialReward, "a poly",
                   lambda s, d, f: [check_polynomial(s, d, f.gamma)]),
    "surrogate": (ExponentialReward, "an exp", lambda s, d, f: check_surrogate(s, d, f.kappa)),
}


def _checks(cfg, key):
    checks = cfg[key]
    if not isinstance(checks, list) or not checks:
        raise ConfigError(key, "expected a nonempty list")
    for name in checks:
        if name not in _CHECKS:
            raise ConfigError(key, f"unknown check {name!r}")
    return checks


def _cases(cfg, key):
    cases = cfg.get(key)
    if not isinstance(cases, list) or not cases:
        raise ConfigError(key, "expected a nonempty list of experiment objects")
    return [parse_experiment(case, f"{key}[{i}]") for i, case in enumerate(cases)]


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


def _read(cfg: dict, keys: dict) -> dict:
    """The config's values by the command's table: every required key, and
    each optional key the config sets, less the keys read as unset."""
    values = {key: read(cfg, key) for key, (read, required, _) in keys.items()
              if required or key in cfg}
    return {key: value for key, value in values.items() if value is not None}


def _take(values: dict, keys) -> dict:
    """The entries of values under keys, removed from values."""
    return {key: values.pop(key) for key in keys if key in values}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "root must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError("set", f"--set expects key=value, got {item!r}")
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
                raise ConfigError(key, "--set path crosses a non-object")
        node[parts[-1]] = value
    return cfg


class _OutputDir:
    def __init__(self, path: str, force: bool):
        self.dir = Path(path)
        self.force = force
        self.dir.mkdir(parents=True, exist_ok=True)

    def target(self, name: str) -> Path:
        path = self.dir / name
        if path.exists() and not self.force:
            raise ConfigError(
                "out", f"artifact {path} already exists; pass --force to overwrite"
            )
        return path

    def write_json(self, name: str, payload: dict) -> None:
        path = self.target(name)
        atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_error(exc: ValueError, window: str, fallback: str) -> ConfigError:
    """The config error naming the field behind a ValueError a run raised:
    the window field for a window that does not fit, ``schedule`` for a
    schedule the laws cannot follow, ``reward`` for a reward rate at which the
    delay's E[exp(kappa D)] diverges, the parameter a ParameterError names,
    and ``fallback`` for anything else."""
    if isinstance(exc, EmptyWindowError):
        field = window
    elif isinstance(exc, InvalidScheduleError):
        field = "schedule"
    elif isinstance(exc, DivergentMGFError):
        field = "reward"
    elif isinstance(exc, ParameterError):
        field = exc.name
    else:
        field = fallback
    return ConfigError(field, str(exc))


def _reward_summary(reward, key: str) -> dict:
    """The summary field of a reward estimate: the last window's value as
    reward_final_window for a sliding window's series, else the estimate
    under key."""
    if isinstance(reward, np.ndarray):
        return {"reward_final_window": fmt_float(reward[-1])}
    return {key: fmt_float(reward)}


def _cmd_simulate(v: dict, out: _OutputDir, seed: int) -> int:
    lag, n, f = v.get("lag", 0.0), v["n"], v.get("reward")
    try:
        traj = run_fixed_lag(v["service"], v["delay"], lag, n, v.get("schedule"), seed)
        estimate = None if f is None else estimate_reward(traj, f, **_take(v, ("window",)))
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
        summary.update(_reward_summary(estimate, "reward_estimate"))
    out.write_json("summary.json", summary)
    return EXIT_OK


def _cmd_grid_search(v: dict, out: _OutputDir, seed: int) -> int:
    try:
        result = optimize(v.pop("service"), v.pop("delay"), v.pop("reward"), seed=seed, **v)
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


def _cmd_bayes(v: dict, out: _OutputDir, seed: int) -> int:
    learner = BayesConfig(**_take(v, _LEARNER_KEYS))
    f, n = v["reward"], v["n"]
    try:
        result = run_adaptive(v["service"], v["delay"], v.get("schedule"), f, n=n, cfg=learner,
                              seed=seed, **_take(v, ("reporting",)))
    except ValueError as exc:
        raise _run_error(exc, "reporting", "n") from exc
    adaptive_log_to_csv(result, f, out.target("bayes_log.csv"))
    if learner.rule == "gamma":
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
        **_reward_summary(result.reward, "reward"),
    }
    out.write_json("summary.json", summary)
    return EXIT_OK


def _cmd_check_conditions(v: dict, out: _OutputDir, seed: int) -> int:
    f = v["reward"]
    # by default, every check the reward type allows
    checks = v.get("checks", [name for name, (kind, _, _) in _CHECKS.items()
                              if isinstance(f, kind)])
    reports = []
    for name in checks:
        kind, literal, check = _CHECKS[name]
        if not isinstance(f, kind):
            raise ConfigError("checks", f"{name} check needs {literal} reward")
        reports.extend(check(v["service"], v["delay"], f))
    out.write_json("conditions.json", {"reports": [r.to_dict() for r in reports]})
    if all(r.verdict == VERDICT_INDETERMINATE for r in reports):
        return EXIT_INDETERMINATE
    return EXIT_OK


def _cmd_region_scan(v: dict, out: _OutputDir, seed: int) -> int:
    families = (v.pop("service_family"), v.pop("delay_family"))
    try:
        scan = region_scan(v.pop("ts"), v.pop("td"), families=families, **v)
    except ParameterError as exc:
        raise ConfigError(exc.name, str(exc)) from exc
    scan.to_csv(out.target("region.csv"))
    return EXIT_OK


def _cmd_mean_shift(v: dict, out: _OutputDir, seed: int) -> int:
    learner = BayesConfig(**_take(v, _LEARNER_KEYS))
    kind, schedule, width = v.get("kind"), v.get("schedule"), v.get("width", 2000)
    try:
        base = ExperimentSpec(
            id="mean-shift",
            service=v["service"],
            delay=v["delay"],
            reward=v["reward"],
            methods=frozenset({"bayes"}),
            schedule=schedule,
            n=v["n"],
            seeds=(seed,),
            reporting=Window.sliding(width),
        )
        # the schedule's type decides the kind; a kind given must match it
        if kind not in (None, "gradual", "abrupt"):
            raise ValueError(f"kind must be gradual or abrupt, got {kind!r}")
        if kind == "gradual" and not isinstance(schedule, (GradualLinear, Stationary)):
            raise ValueError("gradual runs need a GradualLinear (or Stationary) schedule")
        if kind == "abrupt" and not isinstance(schedule, AbruptPiecewise):
            raise ValueError("abrupt runs need an AbruptPiecewise schedule")
        result = mean_shift_run(base, cfg=learner)
    except ValueError as exc:
        raise _run_error(exc, "width", "kind") from exc
    result.to_csv(out.target("meanshift.csv"))
    return EXIT_OK


def _cmd_suite(v: dict, out: _OutputDir, seed: int) -> int:
    try:
        rows = run_suite(v.pop("cases"), **v)
    except ParameterError as exc:  # grid_n, or "specs" for a case that cannot run
        raise ConfigError("cases" if exc.name == "specs" else exc.name, str(exc)) from exc
    suite_to_csv(rows, out.target("suite.csv"))
    return EXIT_OK


REQUIRED, OPTIONAL = True, False

# the BayesConfig fields, shared by the commands that run the adaptive learner
_LEARNER_KEYS = {
    "rule": (_learner, OPTIONAL,
             "learner: gradient (renewal-reward ascent, default) | gamma (Gamma-state rule)"),
    "alpha0": (_learner, OPTIONAL, "gamma rule: prior shape (default 1)"),
    "beta0": (_learner, OPTIONAL, "gamma rule: prior rate (default 1)"),
    "eps_idle": (_learner, OPTIONAL, "gamma rule: shape credit for an idle-idle pair (default 3)"),
    "eps_busy": (_learner, OPTIONAL, "gamma rule: shape credit for a busy-busy pair (default 1)"),
}

# command -> (handler, config key -> (reader, required, help line)). A handler
# passes on only the optional keys a config sets, so the library's default
# holds for the others; the defaults in the help lines document it.
_COMMANDS: dict[str, tuple] = {
    "simulate": (_cmd_simulate, {
        "service": (_law, REQUIRED, "distribution literal for service times"),
        "delay": (_law, REQUIRED, "distribution literal for call-to-arrival delays"),
        "lag": (_num, OPTIONAL, "fixed lag applied to every call (default 0)"),
        "n": (_int, REQUIRED, "number of jobs to simulate"),
        "schedule": (_schedule, OPTIONAL, "optional stationary/gradual/abrupt mean schedule"),
        "reward": (_optional_reward, OPTIONAL,
                   "optional reward literal; adds a reward estimate to the summary"),
        "window": (_window, OPTIONAL, "estimation window: \"all\", last_k or sliding (default all)"),
    }),
    "grid-search": (_cmd_grid_search, {
        "service": (_law, REQUIRED, "distribution literal for service times"),
        "delay": (_law, REQUIRED, "distribution literal for delays"),
        "reward": (_reward, REQUIRED, "reward literal scored at each grid point"),
        "lag_min": (_num, OPTIONAL, "grid start (default 0)"),
        "lag_max": (_num, OPTIONAL, "grid end (default 3x mean service time)"),
        "step": (_num, OPTIONAL, "grid step (default span/60)"),
        "n": (_int, OPTIONAL, "jobs per simulated grid point (default 100000)"),
        "objective": (_text, OPTIONAL, "simulated | exact | surrogate (default simulated)"),
        "schedule": (_schedule, OPTIONAL, "optional mean schedule for simulated objectives"),
        "burn_in": (_int, OPTIONAL, "jobs dropped before estimating (default 1000)"),
    }),
    "bayes": (_cmd_bayes, {
        "service": (_law, REQUIRED, "distribution literal for service times"),
        "delay": (_law, REQUIRED, "distribution literal for delays"),
        "reward": (_reward, REQUIRED, "reward literal for the tracked estimate"),
        "n": (_int, REQUIRED, "number of jobs"),
        "schedule": (_schedule, OPTIONAL, "optional mean schedule"),
        **_LEARNER_KEYS,
        "reporting": (_window, OPTIONAL, "reward window: last_k or sliding (default last_k 5000)"),
    }),
    "check-conditions": (_cmd_check_conditions, {
        "service": (_law, REQUIRED, "distribution literal for service times"),
        "delay": (_law, REQUIRED, "distribution literal for delays"),
        "reward": (_reward, REQUIRED, "reward literal the conditions are evaluated for"),
        "checks": (_checks, OPTIONAL, "subset of [general, exponential, polynomial, surrogate]"),
    }),
    "region-scan": (_cmd_region_scan, {
        "service_family": (_text, REQUIRED, "exponential | uniform | truncnorm"),
        "delay_family": (_text, REQUIRED, "exponential | uniform | truncnorm"),
        "kappa": (_num, REQUIRED, "exponential reward rate"),
        "mode": (_text, OPTIONAL, "thm2_cond1 | cor1 (default thm2_cond1)"),
        "ts": (_grid_values, REQUIRED, "service-mean grid: {min, max, count} or explicit list"),
        "td": (_grid_values, REQUIRED, "delay-mean grid: {min, max, count} or explicit list"),
    }),
    "mean-shift": (_cmd_mean_shift, {
        "kind": (_text, OPTIONAL, "gradual | abrupt, checked against the schedule's type"),
        "service": (_law, REQUIRED, "distribution literal for service times"),
        "delay": (_law, REQUIRED, "distribution literal for delays"),
        "reward": (_reward, REQUIRED, "reward literal"),
        "schedule": (_required_schedule, REQUIRED,
                     "gradual or abrupt mean schedule driving the shift"),
        "n": (_int, REQUIRED, "number of jobs"),
        "width": (_int, OPTIONAL, "sliding window width (default 2000)"),
        **_LEARNER_KEYS,
    }),
    "suite": (_cmd_suite, {
        "cases": (_cases, REQUIRED, "list of experiment objects (id, service, delay, reward, "
                                    "methods, schedule, n, seeds, reporting)"),
        "grid_n": (_int, OPTIONAL, "jobs per simulated grid point (default 100000)"),
    }),
}

# every config key each command accepts, surfaced verbatim in --help
COMMAND_CONFIG_KEYS: dict[str, dict[str, str]] = {
    command: {key: help_line for key, (_, _, help_line) in keys.items()}
    for command, (_, keys) in _COMMANDS.items()
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlag",
        description="Lag-policy queue simulation, optimality checks, and adaptive learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in COMMAND_CONFIG_KEYS.items():
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
        p.add_argument("--seed", type=int, default=0, help="top-level seed (default 0)")
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
        handler, keys = _COMMANDS[args.command]
        _no_strays(cfg, "", keys, repr(args.command))
        out = _OutputDir(out_dir, args.force)
        return handler(_read(cfg, keys), out, args.seed)
    except ConfigError as exc:
        _emit_error(str(exc), exc.field, out_dir)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
