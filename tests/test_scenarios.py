"""Suite runs, case matrix, and mean-shift tracking."""

import numpy as np
import pytest

from qlag import (
    AbruptPiecewise,
    Exponential,
    ExponentialReward,
    ExperimentSpec,
    GradualLinear,
    ParameterError,
    Stationary,
    TruncatedNormal,
    Uniform,
    Window,
    default_cases,
    mean_shift_run,
    optimize,
    run_adaptive,
    run_suite,
    suite_to_csv,
    surrogate_reward,
)
from qlag import scenarios

F1 = ExponentialReward(1.0)


def _spec(service, delay, methods, n=20_000, seeds=(1,), schedule=None, case_id="t",
          reporting=Window.last_k(5000)):
    return ExperimentSpec(
        id=case_id,
        service=service,
        delay=delay,
        reward=F1,
        methods=frozenset(methods),
        schedule=schedule,
        n=n,
        seeds=tuple(seeds),
        reporting=reporting,
    )


class TestExperimentSpec:
    def test_default_cases_layout(self):
        cases = default_cases()
        assert [c.id for c in cases] == [
            "A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2", "E1", "E2", "F1", "F2",
        ]
        for c in cases:
            if c.id.startswith(("E", "F")):
                assert "surrogate" not in c.methods
            else:
                assert "surrogate" in c.methods

    def test_default_case_means(self):
        cases = {c.id: c for c in default_cases()}
        assert cases["A1"].service.mean == 1.0 and cases["A1"].delay.mean == 0.33
        assert cases["C2"].service == Uniform(0.0, 1.0)
        assert cases["F1"].service.mean == pytest.approx(1.0, abs=1e-12)
        assert cases["E2"].delay.mean == pytest.approx(0.1667, abs=1e-12)

    def test_truncnorm_surrogate_case_fills_its_columns(self):
        # every law's MGF is closed form, so a truncated normal takes the surrogate too
        tn = TruncatedNormal(0.33, 0.165, 0.0, 0.66)
        spec = _spec(Exponential(1.0), tn, {"bayes", "surrogate"}, n=6000)
        row = run_suite([spec])[0]
        learned = run_adaptive(spec.service, tn, None, F1, n=6000, seed=1,
                               reporting=spec.reporting)
        assert row.g_sur == optimize(spec.service, tn, F1, objective="surrogate").best_reward
        assert row.g_tb == surrogate_reward(spec.service, tn, 1.0, learned.lag_estimate)
        assert np.isfinite(row.g_sur) and np.isfinite(row.g_tb)

    def test_surrogate_requires_finite_delay_mgf(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                id="x",
                service=Exponential(1.0),
                delay=Exponential(0.33),
                reward=ExponentialReward(4.0),  # kappa >= 1/t_d
                methods=frozenset({"surrogate"}),
                schedule=None,
                n=100,
                seeds=(1,),
                reporting=Window.last_k(10),
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            _spec(Exponential(1.0), Exponential(0.33), {"gradient"})
        # a suite row has no column for either of these
        for method in ("exact", "conditions"):
            with pytest.raises(ValueError, match="unknown methods"):
                _spec(Exponential(1.0), Exponential(0.33), {"bayes", method})


class TestRunSuite:
    def test_case_a_row_complete_and_ordered(self):
        spec = _spec(Exponential(1.0), Exponential(0.33),
                     {"grid", "bayes", "surrogate"}, case_id="A1")
        rows = run_suite([spec], grid_n=20_000)
        assert len(rows) == 1
        row = rows[0]
        assert row.case == "A1" and row.seed == 1 and row.kappa == 1.0
        assert None not in (row.g_sur, row.g_sim, row.g_be, row.g_tb)
        # the surrogate optimum caps both the learned and the evaluated-at-lag rewards
        assert row.g_be <= row.g_sur
        assert row.g_tb <= row.g_sur

    def test_g_tb_is_surrogate_at_learned_lag(self):
        spec = _spec(Exponential(1.0), Exponential(0.33), {"bayes", "surrogate"})
        row = run_suite([spec])[0]
        learned = run_adaptive(spec.service, spec.delay, None, F1, n=spec.n, seed=1,
                               reporting=spec.reporting)
        assert learned.lag_estimate > 0.0  # not the zero lag the learner starts from
        assert row.g_tb == surrogate_reward(spec.service, spec.delay, 1.0, learned.lag_estimate)

    def test_truncnorm_rows_have_no_surrogate_columns(self):
        spec = _spec(
            TruncatedNormal(1.0, 0.5, 0.0, 2.0),
            TruncatedNormal(0.33, 0.165, 0.0, 0.66),
            {"grid", "bayes"},
            case_id="F1",
        )
        rows = run_suite([spec], grid_n=20_000)
        row = rows[0]
        assert row.g_sur is None and row.g_tb is None
        assert row.g_sim is not None and row.g_be is not None

    def test_one_row_per_spec_seed(self):
        spec = _spec(Exponential(1.0), Exponential(0.33), {"bayes"}, seeds=(1, 2, 3))
        rows = run_suite([spec])
        assert [(r.case, r.seed) for r in rows] == [("t", 1), ("t", 2), ("t", 3)]

    def test_reproducible(self):
        spec = _spec(Exponential(1.0), Exponential(0.33), {"grid", "bayes", "surrogate"})
        a = run_suite([spec], grid_n=20_000)
        b = run_suite([spec], grid_n=20_000)
        assert a == b

    def test_csv_dash_semantics(self, tmp_path):
        specs = [
            _spec(Exponential(1.0), Exponential(0.33), {"grid", "bayes", "surrogate"},
                  case_id="A1"),
            _spec(Exponential(1.0), TruncatedNormal(0.33, 0.165, 0.0, 0.66),
                  {"grid", "bayes"}, case_id="E1"),
        ]
        rows = run_suite(specs, grid_n=20_000)
        path = tmp_path / "suite.csv"
        suite_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "case,seed,kappa,G_sur,G_sim,G_be,G_tb"
        a_fields = lines[1].split(",")
        e_fields = lines[2].split(",")
        assert all(a_fields)  # every column populated
        assert e_fields[3] == "" and e_fields[6] == ""  # G_sur and G_tb dashes

    def test_small_grid_n_fails_before_any_row(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_suite_row", lambda *args: pytest.fail("a row ran"))
        specs = [_spec(Exponential(1.0), Exponential(0.33), {"bayes"}),
                 _spec(Exponential(1.0), Exponential(0.33), {"grid"})]
        with pytest.raises(ParameterError) as err:
            run_suite(specs, grid_n=9_999)
        assert err.value.name == "grid_n"

    def test_row_error_names_its_case_and_seed(self):
        short = _spec(Exponential(1.0), Exponential(0.33), {"bayes"}, n=2000, seeds=(4,),
                      case_id="B7")  # the 5000-job reporting window does not fit
        with pytest.raises(ParameterError, match="case B7, seed 4: reporting window") as err:
            run_suite([short])
        assert err.value.name == "specs"

    def test_bayes_close_to_simulated_grid_for_exp_service(self):
        # exponential-service geometry keeps the zero-lag neighborhood near
        # optimal, so the learned reward lands close to the grid optimum
        spec = _spec(Exponential(1.0), Exponential(0.33), {"grid", "bayes"},
                     n=50_000, seeds=(1, 2, 3))
        rows = run_suite([spec], grid_n=100_000)
        for row in rows:
            assert abs(row.g_be - row.g_sim) / row.g_sim < 0.10


def test_paper_scale_calibration_recovers_five_percent_closeness():
    # at a gentle reward decay (kappa = 0.01) the zero-lag policy is nearly
    # optimal for every family, and the learner lands within 5% of the exact
    # grid optimum even for the concentrated service laws; see the acceptance
    # suite for the configured kappa = 1 behavior
    f = ExponentialReward(0.01)
    s, d = Uniform(0.0, 2.0), Uniform(0.0, 0.66)
    opt = optimize(s, d, f, objective="exact").best_reward
    rewards = [
        run_adaptive(s, d, None, f, n=50_000, seed=k).reward for k in (1, 2, 3)
    ]
    assert abs(np.mean(rewards) - opt) / opt < 0.05


class TestMeanShift:
    def test_abrupt_series_and_reference(self):
        sched = AbruptPiecewise(((5000, 1.0, 0.33), (5000, 0.5, 0.1667)))
        base = _spec(Exponential(1.0), Exponential(0.33), {"bayes"},
                     n=10_000, schedule=sched, reporting=Window.sliding(1000))
        res = mean_shift_run(base)
        assert len(res.index) == 10_000 - 1000 + 1
        assert res.index[0] == 1000 and res.index[-1] == 10_000
        # the reference is piecewise constant at the two segment optima
        assert len(np.unique(res.g_ref)) == 2

    def test_gradual_reference_interpolates(self):
        sched = GradualLinear(1.0, 0.5, 0.33, 0.1667, 10_000)
        base = _spec(Exponential(1.0), Exponential(0.33), {"bayes"},
                     n=10_000, schedule=sched, reporting=Window.sliding(1000))
        res = mean_shift_run(base)
        assert np.all(np.isfinite(res.g_ref))
        # service/delay speed up over the ramp, so the optimum reward rises
        assert res.g_ref[-1] > res.g_ref[0]

    def test_stationary_schedule_degenerates_to_constant_reference(self):
        base = _spec(Exponential(1.0), Exponential(0.33), {"bayes"},
                     n=6000, schedule=Stationary(1.0, 0.33), reporting=Window.sliding(1000))
        res = mean_shift_run(base)
        assert np.allclose(res.g_ref, res.g_ref[0])

    def test_requires_a_schedule(self):
        # the schedule's type picks the reference, so a run needs one
        base = _spec(Exponential(1.0), Exponential(0.33), {"bayes"}, n=4000)
        with pytest.raises(ParameterError) as info:
            mean_shift_run(base)
        assert info.value.name == "schedule"

    def test_requires_a_sliding_window(self):
        # the reported series is the learner's reward over base.reporting
        base = _spec(Exponential(1.0), Exponential(0.33), {"bayes"}, n=4000,
                     schedule=Stationary(1.0, 0.33))
        with pytest.raises(ParameterError) as info:
            mean_shift_run(base)
        assert info.value.name == "reporting"

    def test_requires_bayes_method(self):
        base = _spec(Exponential(1.0), Exponential(0.33), {"grid"}, n=4000,
                     schedule=GradualLinear(1.0, 0.5, 0.33, 0.1667, 4000))
        with pytest.raises(ValueError):
            mean_shift_run(base)

    def test_csv_format(self, tmp_path):
        base = _spec(Exponential(1.0), Exponential(0.33), {"bayes"},
                     n=3000, schedule=Stationary(1.0, 0.33), reporting=Window.sliding(1000))
        res = mean_shift_run(base)
        path = tmp_path / "shift.csv"
        res.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,G_be_window,G_ref"
        assert len(lines) == len(res.index) + 1
