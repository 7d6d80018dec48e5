"""Tests for repro.analysis.bouncing (Section 5.3)."""

import math

import numpy as np
import pytest

from repro import constants
from repro.analysis.bouncing import (
    BouncingAttackModel,
    MarkovBounceModel,
    attack_duration_probability,
    continuation_probability_per_epoch,
    expected_attack_duration,
    is_feasible_split,
    log10_attack_duration_probability,
    p0_feasibility_window,
)
from repro.leak.stake import Behavior, continuous_ejection_epoch
from repro.spec.config import SpecConfig


class TestFeasibilityWindow:
    def test_equation14_bounds(self):
        lower, upper = p0_feasibility_window(0.2)
        assert lower == pytest.approx((2 - 0.6) / (3 * 0.8))
        assert upper == pytest.approx(2 / (3 * 0.8))

    def test_window_narrows_as_beta_decreases(self):
        lower_small, upper_small = p0_feasibility_window(0.05)
        lower_large, upper_large = p0_feasibility_window(0.3)
        assert (upper_small - lower_small) < (upper_large - lower_large)

    def test_small_beta_requires_p0_close_to_two_thirds(self):
        lower, _ = p0_feasibility_window(0.01)
        assert lower == pytest.approx(2 / 3, abs=0.01)

    def test_is_feasible_split(self):
        assert is_feasible_split(0.66, 0.2)
        assert not is_feasible_split(0.5, 0.05)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            p0_feasibility_window(1.0)


class TestDurationProbability:
    def test_per_epoch_probability(self):
        assert continuation_probability_per_epoch(1 / 3, 8) == pytest.approx(
            1 - (2 / 3) ** 8
        )

    def test_paper_estimate_at_7000_epochs(self):
        log10 = log10_attack_duration_probability(1 / 3, 7000)
        # Paper: 1.01e-121.
        assert log10 == pytest.approx(-121.0, abs=0.5)

    def test_probability_decreases_with_horizon(self):
        assert attack_duration_probability(0.3, 10) > attack_duration_probability(0.3, 100)

    def test_probability_increases_with_beta(self):
        assert attack_duration_probability(0.33, 50) > attack_duration_probability(0.1, 50)

    def test_zero_byzantine_cannot_continue(self):
        assert attack_duration_probability(0.0, 1) == 0.0
        assert attack_duration_probability(0.0, 0) == 1.0

    def test_expected_duration(self):
        per_epoch = continuation_probability_per_epoch(0.2, 8)
        assert expected_attack_duration(0.2) == pytest.approx(per_epoch / (1 - per_epoch))

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            attack_duration_probability(0.3, -1)


class TestMarkovBounceModel:
    def test_transition_matrix_rows_sum_to_one(self):
        matrix = MarkovBounceModel(p0=0.3).transition_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_stationary_distribution(self):
        model = MarkovBounceModel(p0=0.3)
        assert np.allclose(model.stationary_distribution(), [0.3, 0.7])

    def test_occupancy_converges_immediately(self):
        model = MarkovBounceModel(p0=0.4)
        assert np.allclose(model.occupancy_after(1), [0.4, 0.6])
        assert np.allclose(model.occupancy_after(10), [0.4, 0.6])

    def test_occupancy_zero_epochs_is_start_state(self):
        model = MarkovBounceModel(p0=0.4)
        assert np.allclose(model.occupancy_after(0, start_on_a=True), [1.0, 0.0])

    def test_two_epoch_paths_sum_to_one(self):
        model = MarkovBounceModel(p0=0.35)
        assert sum(model.two_epoch_path_probabilities().values()) == pytest.approx(1.0)

    def test_two_epoch_score_increments_match_equation15(self):
        model = MarkovBounceModel(p0=0.5)
        increments = model.two_epoch_score_increments()
        assert increments[8] == pytest.approx(0.25)
        assert increments[3] == pytest.approx(0.5)
        assert increments[-2] == pytest.approx(0.25)


class TestBouncingAttackModel:
    def test_exceed_probability_is_half_at_one_third(self):
        model = BouncingAttackModel(beta0=1 / 3, p0=0.5)
        for t in (1000.0, 3000.0, 5000.0):
            assert model.exceed_threshold_probability(t) == pytest.approx(0.5, abs=1e-3)

    def test_exceed_probability_increases_with_beta0(self):
        t = 4000.0
        small = BouncingAttackModel(beta0=0.3).exceed_threshold_probability(t)
        large = BouncingAttackModel(beta0=0.333).exceed_threshold_probability(t)
        assert large >= small

    def test_exceed_probability_rises_before_byzantine_ejection(self):
        model = BouncingAttackModel(beta0=0.33)
        early = model.exceed_threshold_probability(2000.0)
        late = model.exceed_threshold_probability(7200.0)
        assert late > early

    def test_probability_zero_after_byzantine_ejection(self):
        model = BouncingAttackModel(beta0=0.33)
        assert model.exceed_threshold_probability(7700.0) == 0.0

    def test_both_branches_doubles_and_caps(self):
        model = BouncingAttackModel(beta0=1 / 3)
        single = model.exceed_threshold_probability(3000.0)
        double = model.exceed_threshold_probability(3000.0, both_branches=True)
        assert double == pytest.approx(min(1.0, 2 * single))

    def test_series_matches_pointwise(self):
        model = BouncingAttackModel(beta0=0.33)
        series = model.exceed_probability_series([1000, 2000])
        assert series[0] == pytest.approx(model.exceed_threshold_probability(1000.0))
        assert series[1] == pytest.approx(model.exceed_threshold_probability(2000.0))

    def test_byzantine_ejection_epoch_close_to_paper(self):
        model = BouncingAttackModel(beta0=0.33)
        assert abs(
            model.byzantine_ejection_epoch()
            - constants.PAPER_BOUNCING_BYZANTINE_EJECTION_EPOCH
        ) / 7653 < 0.01

    def test_byzantine_ejection_reads_the_config(self):
        minimal = SpecConfig.minimal()
        model = BouncingAttackModel(beta0=1 / 3, config=minimal)
        assert model.byzantine_ejection_epoch() == continuous_ejection_epoch(
            Behavior.SEMI_ACTIVE, config=minimal
        )
        # 2**12 times the leak speed: the mainnet ejection over 64.
        mainnet = BouncingAttackModel(beta0=1 / 3).byzantine_ejection_epoch()
        assert model.byzantine_ejection_epoch() == pytest.approx(mainnet / 64)
        assert model.distribution.config is minimal

    def test_monte_carlo_reads_the_config(self):
        # At epoch 100 the minimal leak (quotient 2**14) has already pushed
        # some honest stake under the Byzantine bound; mainnet's has not.
        minimal = BouncingAttackModel(beta0=0.3, config=SpecConfig.minimal())
        mainnet = BouncingAttackModel(beta0=0.3)
        assert minimal.simulate_exceed_probability(t=100, n_samples=2000, seed=7) > 0.0
        assert mainnet.simulate_exceed_probability(t=100, n_samples=2000, seed=7) == 0.0

    def test_zero_time_probability_zero(self):
        assert BouncingAttackModel(beta0=0.33).exceed_threshold_probability(0.0) == 0.0

    def test_feasibility_helpers(self):
        model = BouncingAttackModel(beta0=0.33, p0=0.6)
        lower, upper = model.feasible_p0_window()
        assert lower < 0.6 < upper
        assert model.is_setup_feasible()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BouncingAttackModel(beta0=0.7)
        with pytest.raises(ValueError):
            BouncingAttackModel(beta0=0.3, p0=0.0)

    def test_monte_carlo_agrees_with_closed_form_at_one_third(self):
        model = BouncingAttackModel(beta0=1 / 3, p0=0.5)
        estimate = model.simulate_exceed_probability(t=1500, n_samples=4000, seed=7)
        assert estimate == pytest.approx(0.5, abs=0.05)
