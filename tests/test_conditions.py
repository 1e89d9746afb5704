"""Zero-lag optimality conditions: frozen values, dual paths, region scans."""

import math

import numpy as np
import pytest

from qlag import (
    Deterministic,
    Exponential,
    ExponentialReward,
    PolynomialReward,
    TruncatedNormal,
    Uniform,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INDETERMINATE,
    check_exponential,
    check_general,
    check_polynomial,
    check_surrogate,
    delta_star,
    optimize,
    region_scan,
    reward_exact,
    verify_assumption,
)
from qlag.distributions import law_for_family
from qlag.simulator import ParameterError

EXP_S = Exponential(1.0)
EXP_D = Exponential(0.33)
P0 = 100.0 / 133.0


class TestGeneral:
    def test_exp_exp_kappa_one_frozen_values(self):
        # lhs = 2.33 * sqrt(1/3) / 0.25, rhs = 1/sqrt(p) - sqrt(p)
        report = check_general(EXP_S, EXP_D, ExponentialReward(1.0))
        assert report.lhs == pytest.approx(2.33 * math.sqrt(1.0 / 3.0) / 0.25, abs=1e-9)
        assert report.lhs == pytest.approx(5.381, abs=5e-4)
        assert report.rhs == pytest.approx(1.0 / math.sqrt(P0) - math.sqrt(P0), abs=1e-12)
        assert report.rhs == pytest.approx(0.2862, abs=1e-4)
        assert report.verdict == VERDICT_FAILS

    def test_dominating_delay_gives_infinite_rhs_and_holds(self):
        report = check_general(Deterministic(1.0), Deterministic(5.0), ExponentialReward(1.0))
        assert math.isinf(report.rhs)
        assert report.verdict == VERDICT_HOLDS

    def test_vanishing_kappa_holds_when_p_below_one(self):
        report = check_general(EXP_S, EXP_D, ExponentialReward(1e-9))
        assert report.lhs < 1e-8
        assert report.verdict == VERDICT_HOLDS


class TestSpecializations:
    @pytest.mark.parametrize("kappa", [0.01, 0.3, 1.0])
    def test_exponential_matches_general(self, kappa):
        general = check_general(EXP_S, EXP_D, ExponentialReward(kappa), check_assumption=False)
        special = check_exponential(EXP_S, EXP_D, kappa, check_assumption=False)
        assert special.lhs == pytest.approx(general.lhs, abs=1e-9)
        assert special.rhs == pytest.approx(general.rhs, abs=1e-9)
        assert special.verdict == general.verdict

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_polynomial_matches_general(self, gamma):
        general = check_general(EXP_S, EXP_D, PolynomialReward(gamma), check_assumption=False)
        special = check_polynomial(EXP_S, EXP_D, gamma, check_assumption=False)
        assert special.lhs == pytest.approx(general.lhs, abs=1e-9)
        assert special.rhs == pytest.approx(general.rhs, abs=1e-9)
        assert special.verdict == general.verdict

    def test_specialization_on_uniform_and_truncnorm_services(self):
        pairs = [
            (Uniform(0.0, 2.0), Uniform(0.0, 0.66)),
            (TruncatedNormal(1.0, 0.5, 0.0, 2.0), EXP_D),
        ]
        for s, d in pairs:
            general = check_general(s, d, ExponentialReward(0.7), check_assumption=False)
            special = check_exponential(s, d, 0.7, check_assumption=False)
            assert special.lhs == pytest.approx(general.lhs, abs=1e-9)

    def test_trivial_holds_cases(self):
        assert check_exponential(Deterministic(1.0), Deterministic(5.0), 1.0).verdict == VERDICT_HOLDS
        assert check_polynomial(Deterministic(1.0), Deterministic(5.0), 2.0).verdict == VERDICT_HOLDS
        assert check_polynomial(EXP_S, EXP_D, 1e-9).verdict == VERDICT_HOLDS


def test_general_checker_accepts_duck_typed_reward():
    # any non-increasing reward exposing eval/deriv plugs into the general
    # checker; here a Gaussian-decay shape with no shipped counterpart
    class GaussDecay:
        def eval(self, t):
            return np.exp(-0.5 * np.square(t))

        def deriv(self, t):
            return -t * np.exp(-0.5 * np.square(t))

    report = check_general(EXP_S, EXP_D, GaussDecay(), check_assumption=False)
    assert report.verdict in (VERDICT_HOLDS, VERDICT_FAILS)
    assert np.isfinite(report.lhs) and np.isfinite(report.rhs)


def test_reward_exact_accepts_duck_typed_reward():
    from qlag import monte_carlo_reward, reward_exact

    class GaussDecay:
        def eval(self, t):
            return np.exp(-0.5 * np.square(t))

    s, d = Uniform(0.0, 2.0), Uniform(0.0, 0.66)
    est = monte_carlo_reward(s, d, GaussDecay(), 0.1, 1_000_000, seed=3)
    numeric = reward_exact(s, d, GaussDecay(), 0.1)
    assert numeric == pytest.approx(est.value, abs=3.5 * est.std_error)


class TestSurrogateConditions:
    def test_product_above_one_holds(self):
        cond1, _ = check_surrogate(EXP_S, Exponential(0.6), 1.0)
        assert cond1.rhs == pytest.approx(1.25, abs=1e-12)
        assert cond1.verdict == VERDICT_HOLDS

    def test_exp_exp_033_both_fail_with_frozen_values(self):
        cond1, cond2 = check_surrogate(EXP_S, EXP_D, 1.0)
        assert cond1.rhs == pytest.approx(0.5 / 0.67, abs=1e-12)
        assert cond1.verdict == VERDICT_FAILS
        assert cond2.lhs == pytest.approx(math.log(1.34) + 0.33 + P0, abs=1e-9)
        assert cond2.lhs == pytest.approx(1.3746, abs=1e-4)
        assert cond2.rhs == pytest.approx(1.0 - P0, abs=1e-12)
        assert cond2.verdict == VERDICT_FAILS

    def test_divergent_mgf_indeterminate(self):
        cond1, cond2 = check_surrogate(EXP_S, EXP_D, 4.0)
        assert cond1.verdict == VERDICT_INDETERMINATE
        assert cond2.verdict == VERDICT_INDETERMINATE

    def test_cond2_holds_for_small_kappa(self):
        # product < 1 (cond1 fails) yet the short surrogate range wins
        cond1, cond2 = check_surrogate(Exponential(1.0), Exponential(0.45), 0.1)
        assert cond1.verdict == VERDICT_FAILS
        assert cond2.verdict == VERDICT_HOLDS

    def test_deterministic_tie_flagged(self):
        _, cond2 = check_surrogate(Deterministic(1.0), Deterministic(1.0), 1.0)
        assert "tie" in cond2.notes

    def test_underflowed_mgf_product_fails_cond2(self):
        # M_S(-1) M_D(1) = e^-999.9 rounds to 0: the true lhs exceeds 744 and
        # the rhs is at most 1 / kappa, so cond2 fails
        cond1, cond2 = check_surrogate(Deterministic(1000.0), Deterministic(0.1), 1.0)
        assert cond1.rhs == 0.0 and cond1.verdict == VERDICT_FAILS
        assert cond2.lhs == math.inf and cond2.rhs == 0.0
        assert cond2.verdict == VERDICT_FAILS
        assert "underflowed" in cond2.notes

    def test_delta_star_of_an_underflowed_product_names_kappa(self):
        with pytest.raises(ParameterError) as info:
            delta_star(Deterministic(1000.0), Deterministic(0.1), 1.0)
        assert info.value.name == "kappa"


class TestVerifyAssumption:
    def test_exp_exp_fails_below_two(self):
        # lag^2 * exp(-lag) increases on (1, 2): the monotonicity probe, whose
        # grid starts just above 1, must report the violation there
        report = verify_assumption(EXP_S, EXP_D)
        assert not report.ok
        assert report.worst_pair[0] < 2.0

    def test_deterministic_tail_is_flat_zero(self):
        report = verify_assumption(Deterministic(1.0), Deterministic(0.5))
        assert report.ok and report.worst_violation == 0.0

    def test_uniform_pair_fails_just_above_one(self):
        # for S ~ U(0, 2), D ~ U(0, 0.66), d/dx [x^2 P(S - D > x)] at x = 1 is
        # 2 * 0.335 - 0.5 > 0: the lag^2 tail still rises just above 1
        report = verify_assumption(Uniform(0.0, 2.0), Uniform(0.0, 0.66))
        assert not report.ok
        assert report.worst_pair[0] < 1.2

    def test_reports_feed_condition_checks(self):
        # default grid starts just above 1, where the exp/exp tail bump lives
        report = check_general(EXP_S, EXP_D, ExponentialReward(1.0))
        assert report.assumption_checked is False
        # a short-tailed service peaks its lag^2-tail below 1, so the
        # default grid sees a clean decrease
        report2 = check_general(Exponential(0.4), Exponential(0.2), ExponentialReward(1.0))
        assert report2.assumption_checked is True


class TestSoundnessAgainstGridSearch:
    def test_holds_verdict_confirmed_by_exact_grid(self):
        # delay-dominated system with a gentle reward: condition holds and
        # the exact-objective sweep puts the optimum at zero lag
        s, d, kappa = Exponential(1.0), Exponential(5.0), 0.05
        report = check_exponential(s, d, kappa, check_assumption=False)
        assert report.verdict == VERDICT_HOLDS
        grid = optimize(s, d, ExponentialReward(kappa), objective="exact",
                        lag_max=3.0, step=0.05)
        assert grid.best_lag == 0.0

    def test_thm2_cond1_confirmed_by_surrogate_grid(self):
        cond1, _ = check_surrogate(EXP_S, Exponential(0.6), 1.0)
        assert cond1.verdict == VERDICT_HOLDS
        grid = optimize(EXP_S, Exponential(0.6), ExponentialReward(1.0),
                        objective="surrogate", lag_max=3.0, step=0.05)
        assert grid.best_lag == 0.0

    def test_thm2_cond2_confirmed_by_surrogate_grid(self):
        s, d, kappa = Exponential(1.0), Exponential(0.45), 0.1
        _, cond2 = check_surrogate(s, d, kappa)
        assert cond2.verdict == VERDICT_HOLDS
        grid = optimize(s, d, ExponentialReward(kappa), objective="surrogate",
                        lag_max=3.0, step=0.05)
        assert grid.best_lag == 0.0


class TestRegionScan:
    def test_known_cells(self):
        scan = region_scan([1.0], [0.6, 0.33], 1.0, mode="thm2_cond1")
        assert scan.verdict_at(0, 0) == VERDICT_HOLDS   # product 1.25
        assert scan.verdict_at(0, 1) == VERDICT_FAILS   # product 0.7463

    def test_boundary_cell_holds(self):
        # t_d = t_s / (1 + kappa t_s) lands exactly on the contour
        scan = region_scan([1.0], [0.5], 1.0, mode="thm2_cond1")
        assert scan.verdict_at(0, 0) == VERDICT_HOLDS

    def test_closed_form_boundary_matches_cellwise(self):
        ts = np.linspace(0.1, 2.0, 12)
        td = np.linspace(0.05, 1.2, 12)
        scan = region_scan(ts, td, 1.0, mode="thm2_cond1")
        for i, t_s in enumerate(ts):
            for j, t_d in enumerate(td):
                if t_d >= 1.0:
                    expect = VERDICT_INDETERMINATE  # M_D(kappa) diverges
                elif t_d * (1.0 + t_s) >= t_s:
                    expect = VERDICT_HOLDS
                else:
                    expect = VERDICT_FAILS
                assert scan.verdict_at(i, j) == expect

    def test_cor1_mode_matches_checker(self):
        ts = [0.5, 1.0]
        td = [0.4, 2.0]
        scan = region_scan(ts, td, 0.2, mode="cor1")
        for i, t_s in enumerate(ts):
            for j, t_d in enumerate(td):
                expect = check_exponential(
                    Exponential(t_s), Exponential(t_d), 0.2, check_assumption=False
                ).verdict
                assert scan.verdict_at(i, j) == expect

    def test_uniform_family_cells(self):
        scan = region_scan([1.0], [0.33], 2.0, mode="thm2_cond1",
                           families=("uniform", "uniform"))
        s, d = Uniform(0.0, 2.0), Uniform(0.0, 0.66)
        expect = VERDICT_HOLDS if s.mgf(-2.0) * d.mgf(2.0) >= 1.0 else VERDICT_FAILS
        assert scan.verdict_at(0, 0) == expect

    def test_csv_round_trip(self, tmp_path):
        scan = region_scan([1.0], [0.6, 0.33], 1.0)
        path = tmp_path / "region.csv"
        scan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,t_d,verdict"
        assert lines[1] == "1,0.6,holds"
        assert lines[2] == "1,0.33,fails"

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            region_scan([1.0], [0.5], 1.0, mode="bogus")
        with pytest.raises(ValueError):
            region_scan([1.0], [0.5], 1.0, families=("gamma", "exponential"))

    def test_truncnorm_family_cells(self):
        scan = region_scan([1.0, 0.5], [0.33], 1.0, families=("truncnorm", "truncnorm"))
        for i, t_s in enumerate((1.0, 0.5)):
            s, d = law_for_family("truncnorm", t_s), law_for_family("truncnorm", 0.33)
            expect = VERDICT_HOLDS if s.mgf(-1.0) * d.mgf(1.0) >= 1.0 else VERDICT_FAILS
            assert scan.verdict_at(i, 0) == expect

    @pytest.mark.parametrize("kwargs, name", [
        ({"kappa": math.nan}, "kappa"),
        ({"kappa": math.inf}, "kappa"),
        ({"kappa": 0.0}, "kappa"),
        ({"mode": "bogus"}, "mode"),
        ({"families": ("gamma", "exponential")}, "service_family"),
        ({"families": ("uniform", "weibull")}, "delay_family"),
    ])
    def test_bad_arguments_name_their_parameter(self, kwargs, name):
        with pytest.raises(ParameterError) as info:
            region_scan([1.0], [0.5], **{"kappa": 1.0, **kwargs})
        assert info.value.name == name


def test_theorem2_certifies_the_surrogate_optimum_not_g():
    # both Theorem-2 conditions hold at (t_s, t_d, kappa) = (1, 0.8, 1), and the
    # surrogate bound peaks at zero lag; the exact G still peaks off zero, so the
    # verdicts speak about the surrogate's maximiser only
    service, delay, f = Exponential(1.0), Exponential(0.8), ExponentialReward(1.0)
    cond1, cond2 = check_surrogate(service, delay, 1.0)
    assert cond1.verdict == cond2.verdict == VERDICT_HOLDS
    assert cond2.lhs == pytest.approx(0.4392648236814, rel=1e-12)
    assert cond2.rhs == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert optimize(service, delay, f, objective="surrogate").best_lag == 0.0
    assert reward_exact(service, delay, f, 0.075) == pytest.approx(0.266932720859, rel=1e-9)
    assert reward_exact(service, delay, f, 0.0) == pytest.approx(0.266393442623, rel=1e-9)
    assert optimize(service, delay, f, objective="exact").best_lag == pytest.approx(0.05)
