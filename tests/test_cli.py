"""CLI dispatch: artifacts, exit codes, determinism, help coverage."""

import json
import math

import pytest

from qlag import cli
from qlag.cli import COMMAND_CONFIG_KEYS, EXIT_CONFIG, EXIT_INDETERMINATE, EXIT_OK, main

EXP_EXP = {
    "service": {"kind": "exponential", "mean": 1.0},
    "delay": {"kind": "exponential", "mean": 0.33},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main(args)


class TestSimulate:
    def test_artifacts_and_exit(self, tmp_path):
        cfg = write_config(tmp_path, {**EXP_EXP, "n": 500, "lag": 0.2,
                                      "reward": {"kind": "exp", "kappa": 1.0}})
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out), "--seed", "4"]) == EXIT_OK
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 500 and summary["seed"] == 4
        assert "reward_estimate" in summary

    def test_sliding_window_reports_the_last_window(self, tmp_path):
        cfg = write_config(tmp_path, {**EXP_EXP, "n": 500, "reward": {"kind": "exp", "kappa": 1.0},
                                      "window": {"kind": "sliding", "width": 10}})
        sliding, last_k = tmp_path / "sliding", tmp_path / "last_k"
        assert run(["simulate", "--config", cfg, "--out", str(sliding), "--seed", "4"]) == EXIT_OK
        assert run(["simulate", "--config", cfg, "--out", str(last_k), "--seed", "4",
                    "--set", 'window={"kind": "last_k", "k": 10}']) == EXIT_OK
        summary = json.loads((sliding / "summary.json").read_text())
        assert "reward_estimate" not in summary
        reference = json.loads((last_k / "summary.json").read_text())["reward_estimate"]
        assert summary["reward_final_window"] == reference

    @pytest.mark.parametrize("command", ["simulate", "bayes"])
    def test_jobs_that_span_no_time_report_nan(self, tmp_path, command):
        zero = {"kind": "deterministic", "value": 0.0}
        cfg = write_config(tmp_path, {"service": zero, "delay": zero, "n": 100,
                                      "reward": {"kind": "exp", "kappa": 1.0}})
        window = "window" if command == "simulate" else "reporting"
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out),
                    "--set", f'{window}={{"kind": "last_k", "k": 50}}']) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reward_estimate" if command == "simulate" else "reward"] == "nan"

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, {**EXP_EXP, "n": 400})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run(["simulate", "--config", cfg, "--out", str(out1), "--seed", "7"])
        run(["simulate", "--config", cfg, "--out", str(out2), "--seed", "7"])
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"service": {"kind": "exponential"},
                                      "delay": EXP_EXP["delay"], "n": 100})
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["field"] == "service.mean"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {**EXP_EXP, "n": 100, "bogus": 1})
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_overwrite_protection(self, tmp_path):
        cfg = write_config(tmp_path, {**EXP_EXP, "n": 100})
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert run(["simulate", "--config", cfg, "--out", str(out), "--force"]) == EXIT_OK

    def test_set_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path, {**EXP_EXP, "n": 100})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", cfg, "--out", str(out1), "--seed", "1"])
        run(["simulate", "--config", cfg, "--out", str(out2), "--seed", "1",
             "--set", "lag=0.5"])
        assert (out1 / "trajectory.csv").read_text() != (out2 / "trajectory.csv").read_text()


class TestCheckConditions:
    def test_holding_surrogate_condition(self, tmp_path):
        cfg = write_config(tmp_path, {
            "service": {"kind": "exponential", "mean": 1.0},
            "delay": {"kind": "exponential", "mean": 0.6},
            "reward": {"kind": "exp", "kappa": 1.0},
        })
        out = tmp_path / "out"
        assert run(["check-conditions", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports = json.loads((out / "conditions.json").read_text())["reports"]
        by_id = {r["condition_id"]: r for r in reports}
        assert by_id["thm2_cond1"]["verdict"] == "holds"

    def test_divergent_mgf_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {
            **EXP_EXP,
            "reward": {"kind": "exp", "kappa": 4.0},  # kappa >= 1/t_d
            "checks": ["surrogate"],
        })
        out = tmp_path / "out"
        assert run(["check-conditions", "--config", cfg, "--out", str(out)]) == EXIT_INDETERMINATE

    def test_underflowed_mgf_product_fails_cond2(self, tmp_path):
        # M_S(-1) M_D(1) rounds to 0; the other checks' moments do too, and
        # they report indeterminate
        cfg = write_config(tmp_path, {
            "service": {"kind": "deterministic", "value": 1000.0},
            "delay": {"kind": "deterministic", "value": 0.1},
            "reward": {"kind": "exp", "kappa": 1},
        })
        out = tmp_path / "out"
        assert run(["check-conditions", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports = json.loads((out / "conditions.json").read_text())["reports"]
        by_id = {r["condition_id"]: r for r in reports}
        assert by_id["thm2_cond2"]["verdict"] == "fails"

    def test_polynomial_default_checks(self, tmp_path):
        cfg = write_config(tmp_path, {**EXP_EXP, "reward": {"kind": "poly", "gamma": 2.0}})
        out = tmp_path / "out"
        assert run(["check-conditions", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports = json.loads((out / "conditions.json").read_text())["reports"]
        assert {r["condition_id"] for r in reports} == {"thm1_general", "cor2_polynomial"}


def test_grid_search_command(tmp_path):
    cfg = write_config(tmp_path, {
        **EXP_EXP,
        "reward": {"kind": "exp", "kappa": 1.0},
        "objective": "surrogate",
        "lag_max": 1.0,
        "step": 0.25,
    })
    out = tmp_path / "out"
    assert run(["grid-search", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "lag,reward,std_error"
    assert len(lines) == 1 + 5 + 1  # header, five points, summary trailer
    summary = json.loads((out / "summary.json").read_text())
    assert summary["objective"] == "surrogate"


@pytest.mark.parametrize("objective", ["simulated", "exact", "surrogate"])
def test_grid_search_skips_a_lag_that_spans_no_time(tmp_path, objective):
    zero = {"kind": "deterministic", "value": 0.0}
    cfg = write_config(tmp_path, {"service": zero, "delay": zero, "objective": objective,
                                  "reward": {"kind": "exp", "kappa": 1.0}, "lag_max": 1.0})
    out = tmp_path / "out"
    assert run(["grid-search", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "grid.csv").read_text().splitlines()[1].startswith("0,nan,")
    summary = json.loads((out / "summary.json").read_text())
    assert float(summary["best_lag"]) == pytest.approx(1.0 / 60.0, rel=1e-12)
    assert float(summary["best_reward"]) == pytest.approx(60.0, rel=1e-12)


def test_bayes_command(tmp_path):
    cfg = write_config(tmp_path, {
        **EXP_EXP,
        "reward": {"kind": "exp", "kappa": 1.0},
        "rule": "gamma",
        "n": 2000,
        "reporting": {"kind": "last_k", "k": 500},
    })
    out = tmp_path / "out"
    assert run(["bayes", "--config", cfg, "--out", str(out), "--seed", "2"]) == EXIT_OK
    post = json.loads((out / "posterior.json").read_text())
    assert post["alpha"] > 1.0 and post["beta"] > 1.0 and post["updates_applied"] > 0
    log_lines = (out / "bayes_log.csv").read_text().splitlines()
    assert log_lines[0] == "index,lag_drawn,alpha,beta,state,reward_window"
    assert len(log_lines) == 2001


def test_bayes_command_default_rule(tmp_path):
    cfg = write_config(tmp_path, {
        **EXP_EXP,
        "reward": {"kind": "exp", "kappa": 1.0},
        "n": 2000,
        "reporting": {"kind": "last_k", "k": 500},
    })
    out = tmp_path / "out"
    assert run(["bayes", "--config", cfg, "--out", str(out), "--seed", "2"]) == EXIT_OK
    # posterior.json carries the Gamma state, which the gradient rule leaves alone
    assert sorted(p.name for p in out.iterdir()) == ["bayes_log.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert float(summary["mean_lag_estimate"]) > 0.0  # the learner's lag, not the prior's 1.0


_MEAN_SHIFT = {
    **EXP_EXP,
    "reward": {"kind": "exp", "kappa": 1.0},
    "kind": "abrupt",
    "schedule": {"kind": "abrupt", "segments": [[1000, 1.0, 0.33], [1000, 0.5, 0.1667]]},
    "n": 2000,
    "width": 500,
}


@pytest.mark.parametrize("command, base", [
    ("bayes", {**EXP_EXP, "reward": {"kind": "exp", "kappa": 1.0}, "n": 2000,
               "reporting": {"kind": "last_k", "k": 500}}),
    ("mean-shift", _MEAN_SHIFT),
])
@pytest.mark.parametrize("key, value", [
    ("eps_idle", -1), ("eps_busy", -1), ("alpha0", 0), ("beta0", "x"), ("rule", "thompson"),
])
def test_learner_config_errors_name_their_field(tmp_path, capsys, command, base, key, value):
    cfg = write_config(tmp_path, {**base, key: value})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == key
    assert record["error"].startswith(f"{key}: ")


def test_non_finite_learner_field_exits_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {**EXP_EXP, "reward": {"kind": "exp", "kappa": 1.0},
                                  "n": 2000, "rule": "gamma"})
    out = tmp_path / "out"
    assert run(["bayes", "--config", cfg, "--out", str(out),
                "--set", "alpha0=NaN"]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == "alpha0"
    assert not (out / "summary.json").exists()


_GRID = {**EXP_EXP, "reward": {"kind": "exp", "kappa": 1.0}, "n": 20_000}


@pytest.mark.parametrize("override, field", [
    ("burn_in=-5", "burn_in"),
    ("burn_in=20000", "burn_in"),
    ("lag_min=NaN", "lag_min"),
    ("lag_max=Infinity", "lag_max"),
    ("lag_max=-1", "lag_max"),
    ("step=NaN", "step"),
    ("step=0", "step"),
    ("n=500", "n"),
    ('n="many"', "n"),
    ("n=20000.5", "n"),
    ("burn_in=10.5", "burn_in"),
    ("burn_in=true", "burn_in"),
    ('objective="golden"', "objective"),
    ('reward={"kind": "exp", "kappa": NaN}', "reward"),
    ('service={"kind": "deterministic", "value": NaN}', "service"),
    ('lag_min="0"', "lag_min"),
    ("lag_max=true", "lag_max"),
])
def test_grid_search_errors_name_their_field(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, _GRID)
    assert run(["grid-search", "--config", cfg, "--out", str(tmp_path / "out"),
                "--set", override]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == field


_BAYES = {**EXP_EXP, "reward": {"kind": "exp", "kappa": 1.0}, "n": 2000}
_REGION = {"service_family": "exponential", "delay_family": "uniform", "kappa": 1.0,
           "ts": [0.5, 1.0], "td": {"min": 0.2, "max": 0.6, "count": 3}}
_CASE = {**EXP_EXP, "id": "A1", "reward": {"kind": "exp", "kappa": 1.0},
         "methods": ["bayes"], "n": 6000, "seeds": [1],
         "reporting": {"kind": "last_k", "k": 1000}}
_SUITE = {"cases": [_CASE]}


@pytest.mark.parametrize("command, base, override, field", [
    ("bayes", _BAYES, 'reporting={"kind": "last_k", "k": 5000}', "reporting"),
    ("bayes", _BAYES, "n=1", "n"),
    ("mean-shift", _MEAN_SHIFT, "width=5000", "width"),
    ("mean-shift", _MEAN_SHIFT, "width=0", "width"),
    ("mean-shift", _MEAN_SHIFT, "n=1", "n"),
    ("mean-shift", _MEAN_SHIFT, "n=3000", "schedule"),
    ("mean-shift", _MEAN_SHIFT, 'kind="gradual"', "kind"),
    ("simulate", {**_BAYES, "n": 50}, "lag=NaN", "lag"),
    ("simulate", {**_BAYES, "n": 50}, 'window={"kind": "last_k", "k": 500}', "window"),
    ("region-scan", _REGION, 'service_family="gamma"', "service_family"),
    ("region-scan", _REGION, 'delay_family="weibull"', "delay_family"),
    ("region-scan", _REGION, 'kappa="steep"', "kappa"),
    ("region-scan", _REGION, "kappa=NaN", "kappa"),
    ("region-scan", _REGION, "kappa=0", "kappa"),
    ("region-scan", _REGION, 'ts=[0.5, "x"]', "ts"),
    ("region-scan", _REGION, "ts=[0.5, NaN]", "ts"),
    ("region-scan", _REGION, 'td={"min": 0.2, "max": "x", "count": 3}', "td"),
    ("region-scan", _REGION, "td=[0.2, -1]", "td"),
    ("region-scan", _REGION, 'mode="bogus"', "mode"),
    # job counts are JSON integers: no float, no bool
    ("bayes", _BAYES, "n=3000.7", "n"),
    ("simulate", {**_BAYES, "n": 50}, "n=2.5", "n"),
    ("mean-shift", _MEAN_SHIFT, "n=true", "n"),
    ("mean-shift", _MEAN_SHIFT, "width=500.5", "width"),
    ("suite", _SUITE, 'grid_n="abc"', "grid_n"),
    ("suite", _SUITE, "grid_n=1e5", "grid_n"),
    # number fields are JSON numbers: no string, no bool
    ("simulate", {**_BAYES, "n": 50}, "lag=true", "lag"),
    ("simulate", {**_BAYES, "n": 50}, 'lag="0.5"', "lag"),
    ("region-scan", _REGION, "kappa=true", "kappa"),
    ("region-scan", _REGION, 'ts={"min": 0.2, "max": 3, "count": 3.7}', "ts.count"),
    ("region-scan", _REGION, 'td=[0.2, "0.5", true]', "td"),
    ("bayes", _BAYES, "alpha0=true", "alpha0"),
    ("bayes", _BAYES, 'eps_idle="3"', "eps_idle"),
    # a grid_n the simulated grid cannot use fails before any row runs
    ("suite", {"cases": [{**_CASE, "methods": ["grid", "bayes"]}]}, "grid_n=5000", "grid_n"),
    # a malformed schedule segment names the offending entry
    ("simulate", {**_BAYES, "n": 50},
     'schedule={"kind": "abrupt", "segments": [[100, "0.5", 0.3]]}', "schedule.segments[0][1]"),
    ("simulate", {**_BAYES, "n": 50},
     'schedule={"kind": "abrupt", "segments": [[100, 0.5, true]]}', "schedule.segments[0][2]"),
    ("mean-shift", _MEAN_SHIFT,
     'schedule={"kind": "abrupt", "segments": [[1000, 1.0, 0.33], [1000, null, 0.2]]}',
     "schedule.segments[1][1]"),
    # a literal or an experiment takes no key its kind does not read
    ("bayes", _BAYES, 'reward={"kind": "exp", "kappa": 1, "gamma": 3}', "reward.gamma"),
    ("simulate", {**_BAYES, "n": 50}, 'service={"kind": "exponential", "mean": 1, "rate": 2}',
     "service.rate"),
    ("simulate", {**_BAYES, "n": 50}, 'window={"kind": "last_k", "k": 10, "width": 10}',
     "window.width"),
    ("suite", _SUITE, "cases=" + json.dumps([{**_CASE, "typo_key": 3}]), "cases[0].typo_key"),
    ("suite", _SUITE,
     "cases=" + json.dumps([{**_CASE, "reporting": {"kind": "sliding", "k": 1000, "width": 1000}}]),
     "cases[0].reporting.k"),
    # suite methods are strings
    ("suite", _SUITE, "cases=" + json.dumps([{**_CASE, "methods": ["grid", ["bayes"]]}]),
     "cases[0].methods[1]"),
    # grids too large to build fail before they are allocated
    ("grid-search", _GRID, "step=1e-12", "step"),
    ("grid-search", {**_GRID, "lag_max": 1e300}, "step=1e-300", "step"),
    ("region-scan", _REGION, 'ts={"min": 1, "max": 2, "count": 100000000}', "ts.count"),
    # a kind the schedule's type contradicts
    ("mean-shift", _MEAN_SHIFT, 'schedule={"kind": "gradual", "t_s_start": 1.0, "t_s_end": 0.5, '
     '"t_d_start": 0.33, "t_d_end": 0.1667, "over_jobs": 2000}', "kind"),
    # E[exp(4 D)] diverges for an exponential delay of mean 0.33: kappa is at fault
    ("grid-search", {**_GRID, "objective": "surrogate"}, 'reward={"kind": "exp", "kappa": 4}',
     "reward"),
])
def test_run_errors_name_their_field(tmp_path, capsys, command, base, override, field):
    cfg = write_config(tmp_path, base)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out"),
                "--set", override]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == field


@pytest.mark.parametrize("case", [
    # the default 5000-job reporting window does not fit 2000 jobs
    {key: value for key, value in _CASE.items() if key != "reporting"}
    | {"id": "short", "n": 2000},
    {**_CASE, "id": "uncovered", "n": 20_000,
     "schedule": {"kind": "abrupt", "segments": [[100, 1.0, 0.33]]}},
], ids=["window", "schedule"])
def test_suite_run_errors_name_cases_and_the_case(tmp_path, capsys, case):
    cfg = write_config(tmp_path, {"cases": [_CASE, case]})
    out = tmp_path / "out"
    assert run(["suite", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == "cases"
    assert f"case {case['id']}" in record["error"]
    assert not (out / "suite.csv").exists()


@pytest.mark.parametrize("command, base, schedule", [
    ("simulate", {**_BAYES, "n": 50}, {"kind": "stationary", "t_s": math.nan, "t_d": 0.33}),
    ("simulate", {**_BAYES, "n": 50}, {"kind": "stationary", "t_s": 1.0, "t_d": math.inf}),
    ("bayes", _BAYES, {"kind": "gradual", "t_s_start": 1.0, "t_s_end": math.nan,
                       "t_d_start": 0.3, "t_d_end": 0.3, "over_jobs": 100}),
    ("mean-shift", _MEAN_SHIFT, {"kind": "abrupt",
                                 "segments": [[1000, 1.0, 0.33], [1000, 0.5, math.nan]]}),
])
def test_non_finite_schedule_mean_exits_config(tmp_path, capsys, command, base, schedule):
    cfg = write_config(tmp_path, {**base, "schedule": schedule})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == "schedule"
    assert not (out / "summary.json").exists()


def test_region_scan_command(tmp_path):
    cfg = write_config(tmp_path, {
        "service_family": "exponential",
        "delay_family": "exponential",
        "kappa": 1.0,
        "ts": {"min": 0.5, "max": 1.5, "count": 3},
        "td": [0.33, 0.6],
    })
    out = tmp_path / "out"
    assert run(["region-scan", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "region.csv").read_text().splitlines()
    assert lines[0] == "t_s,t_d,verdict"
    assert len(lines) == 1 + 3 * 2


def test_region_scan_truncnorm_family(tmp_path):
    cfg = write_config(tmp_path, {**_REGION, "service_family": "truncnorm",
                                  "delay_family": "truncnorm", "mode": "cor1"})
    out = tmp_path / "out"
    assert run(["region-scan", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len((out / "region.csv").read_text().splitlines()) == 1 + 2 * 3


def test_mean_shift_command(tmp_path):
    cfg = write_config(tmp_path, {
        **EXP_EXP,
        "reward": {"kind": "exp", "kappa": 1.0},
        "kind": "abrupt",
        "schedule": {"kind": "abrupt", "segments": [[2000, 1.0, 0.33], [2000, 0.5, 0.1667]]},
        "n": 4000,
        "width": 1000,
    })
    out = tmp_path / "out"
    assert run(["mean-shift", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_OK
    lines = (out / "meanshift.csv").read_text().splitlines()
    assert lines[0] == "index,G_be_window,G_ref"
    assert len(lines) == 1 + (4000 - 1000 + 1)


def test_suite_command(tmp_path):
    cfg = write_config(tmp_path, {
        "cases": [{
            "id": "A1",
            "service": {"kind": "exponential", "mean": 1.0},
            "delay": {"kind": "exponential", "mean": 0.33},
            "reward": {"kind": "exp", "kappa": 1.0},
            "methods": ["bayes", "surrogate"],
            "n": 6000,
            "seeds": [1],
            "reporting": {"kind": "last_k", "k": 1000},
        }],
    })
    out = tmp_path / "out"
    assert run(["suite", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "suite.csv").read_text().splitlines()
    assert lines[0] == "case,seed,kappa,G_sur,G_sim,G_be,G_tb"
    fields = lines[1].split(",")
    assert fields[0] == "A1" and fields[4] == ""  # no grid method -> no G_sim


def test_error_record_written_to_out_dir(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, {**EXP_EXP})  # missing n
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    record = json.loads((out / "error.json").read_text())
    assert record["field"] == "n"
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    assert run(["simulate", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    capsys.readouterr()


def test_help_enumerates_every_config_key(capsys):
    for command, keys in COMMAND_CONFIG_KEYS.items():
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for key in keys:
            assert key in text, f"{command} --help does not document {key!r}"


EXP1 = {"kind": "exp", "kappa": 1.0}

# a config each command runs on, small enough to run quickly
_BASES = {
    "simulate": {**EXP_EXP, "n": 500, "reward": EXP1},
    "grid-search": {**EXP_EXP, "reward": EXP1, "lag_max": 0.5, "step": 0.25},
    "bayes": {**EXP_EXP, "reward": EXP1, "n": 6000, "rule": "gamma"},
    "check-conditions": {**EXP_EXP, "reward": EXP1},
    "region-scan": _REGION,
    "mean-shift": {**_MEAN_SHIFT, "n": 4000, "rule": "gamma",
                   "schedule": {"kind": "abrupt", "segments": [[2000, 1.0, 0.33], [2000, 0.5, 0.2]]}},
    "suite": {"cases": [{**_CASE, "methods": ["grid", "bayes"]}]},
}

_LEARNER_DEFAULTS = {"rule": "gradient", "alpha0": 1, "beta0": 1, "eps_idle": 3, "eps_busy": 1}

# every optional key, set to the value the run takes when the key is left out
_DEFAULTS = {
    "simulate": {"lag": 0, "schedule": None, "reward": None, "window": "all"},
    "grid-search": {"lag_min": 0, "lag_max": 3.0, "step": 0.5 / 60, "n": 100_000,
                    "objective": "simulated", "schedule": None, "burn_in": 1000},
    "bayes": {"schedule": None, **_LEARNER_DEFAULTS,
              "reporting": {"kind": "last_k", "k": 5000}},
    "check-conditions": {"checks": ["general", "exponential", "surrogate"]},
    "region-scan": {"mode": "thm2_cond1"},
    "mean-shift": {"kind": "abrupt", "width": 2000, **_LEARNER_DEFAULTS},
    "suite": {"grid_n": 100_000},
}

# the message a config without the key exits with; "missing required field" otherwise
_MISSING = {
    "service": "expected an object, got NoneType",
    "delay": "expected an object, got NoneType",
    "reward": "expected an object, got NoneType",
    "ts": "expected a list of values or {min, max, count}",
    "td": "expected a list of values or {min, max, count}",
    "cases": "expected a nonempty list of experiment objects",
}


def _keys(required):
    return [(command, key) for command, (_, keys) in cli._COMMANDS.items()
            for key, (_, is_required, _) in keys.items() if is_required == required]


def test_tables_cover_every_key():
    assert set(_keys(True)) == {(c, k) for c, base in _BASES.items() for k in base
                                if k not in _DEFAULTS[c]}
    assert set(_keys(False)) == {(c, k) for c, keys in _DEFAULTS.items() for k in keys}


@pytest.mark.parametrize("command, key", _keys(True))
def test_missing_required_key_names_it(tmp_path, capsys, command, key):
    cfg = write_config(tmp_path, {k: v for k, v in _BASES[command].items() if k != key})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": f"{key}: {_MISSING.get(key, 'missing required field')}",
                      "field": key}


@pytest.mark.parametrize("command, key", _keys(False))
def test_optional_key_at_its_default_changes_nothing(tmp_path, command, key):
    base = {k: v for k, v in _BASES[command].items() if k != key}
    outs = tmp_path / "unset", tmp_path / "set"
    for out, cfg in zip(outs, (base, {**base, key: _DEFAULTS[command][key]})):
        path = write_config(tmp_path, cfg, f"{out.name}.json")
        assert run([command, "--config", path, "--out", str(out), "--seed", "7"]) == EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


_U02 = {"kind": "uniform", "lower": 0, "upper": 2}
_TN = {"kind": "truncnorm", "mu": 1, "sigma": 0.5, "lower": 0, "upper": 2}


def _point(value):
    return {"kind": "deterministic", "value": value}


@pytest.mark.parametrize("command, config", [
    ("check-conditions", {"service": EXP_EXP["service"], "delay": _U02,
                          "reward": {"kind": "exp", "kappa": 400}}),
    ("check-conditions", {"service": _point(1), "delay": _point(10),
                          "reward": {"kind": "exp", "kappa": 100}}),
    ("check-conditions", {"service": EXP_EXP["service"], "delay": _TN,
                          "reward": {"kind": "exp", "kappa": 500}}),
    ("region-scan", {"service_family": "exponential", "delay_family": "uniform",
                     "kappa": 400, "ts": [1], "td": [1]}),
    ("grid-search", {"service": EXP_EXP["service"], "delay": _U02,
                     "reward": {"kind": "exp", "kappa": 400}, "objective": "surrogate"}),
    ("grid-search", {"service": {"kind": "uniform", "lower": 0, "upper": 1e-300},
                     "delay": EXP_EXP["service"], "reward": {"kind": "exp", "kappa": 1e-300},
                     "objective": "exact"}),
    ("suite", {"cases": [{**_CASE, "delay": _U02, "reward": {"kind": "exp", "kappa": 400},
                          "methods": ["surrogate"]}]}),
], ids=["exp-uniform", "points", "exp-truncnorm", "region", "surrogate-grid", "tiny-uniform",
        "suite"])
def test_mgf_beyond_the_float_range_never_crashes(tmp_path, capsys, command, config):
    # an MGF that overflows is a divergent one: an indeterminate verdict or a
    # named field, never a traceback
    cfg = write_config(tmp_path, config)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) in (
        EXIT_OK, EXIT_CONFIG, EXIT_INDETERMINATE)
    capsys.readouterr()
