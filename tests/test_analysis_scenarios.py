"""Tests for repro.analysis.partition_scenarios (the Table-1 scenario drivers)."""

import pytest

from repro.analysis.partition_scenarios import (
    NonSlashableFinalizer,
    run_all_honest_scenario,
    run_all_scenarios,
    run_bouncing_scenario,
    run_non_slashable_byzantine_scenario,
    run_slashable_byzantine_scenario,
    run_threshold_exceeding_scenario,
)
from repro.analysis.finalization_time import ByzantineStrategy, conflicting_finalization_time
from repro.leak.groups import BranchView
from repro.leak.stake import Behavior, continuous_ejection_epoch
from repro.spec.config import SpecConfig


def view(epoch: int, ratio: float = 0.0, finalized: bool = False) -> BranchView:
    return BranchView(
        branch_name="branch-1",
        epoch=epoch,
        previous_active_ratio=ratio,
        in_leak=True,
        finalized=finalized,
    )


class TestAllHonestScenario:
    def test_short_partition_is_safe(self):
        outcome = run_all_honest_scenario(p0=0.5, max_epochs=200)
        assert outcome.conflicting_finalization_epoch is None

    def test_long_partition_breaks_safety(self):
        outcome = run_all_honest_scenario(p0=0.5, max_epochs=5000)
        assert outcome.conflicting_finalization_epoch is not None
        # Discrete simulation lands within 2% of the paper's 4686 bound.
        assert abs(outcome.conflicting_finalization_epoch - 4686) / 4686 < 0.02
        assert outcome.outcome == "2 finalized branches"
        # The closed form caps at the mainnet config's own ejection epoch.
        derived = continuous_ejection_epoch(Behavior.INACTIVE) + 1
        assert outcome.analytical_epoch == pytest.approx(derived)
        assert abs(outcome.conflicting_finalization_epoch - derived) < 1

    def test_uneven_split_slowest_branch_decides(self):
        outcome = run_all_honest_scenario(p0=0.6, max_epochs=5000)
        branches = outcome.simulation.branches
        finalizations = [b.finalization_epoch for b in branches.values()]
        assert outcome.conflicting_finalization_epoch == max(finalizations)


class TestSlashableScenario:
    def test_byzantine_accelerate_conflicting_finalization(self):
        attacked = run_slashable_byzantine_scenario(beta0=0.3, p0=0.5, max_epochs=5000)
        honest = run_all_honest_scenario(p0=0.5, max_epochs=5000)
        assert attacked.conflicting_finalization_epoch is not None
        assert (
            attacked.conflicting_finalization_epoch
            < honest.conflicting_finalization_epoch
        )

    def test_close_to_analytical_prediction(self):
        outcome = run_slashable_byzantine_scenario(beta0=0.2, p0=0.5, max_epochs=5000)
        assert outcome.conflicting_finalization_epoch == pytest.approx(
            outcome.analytical_epoch, rel=0.02
        )

    def test_byzantine_proportion_stays_reported(self):
        outcome = run_slashable_byzantine_scenario(beta0=0.2, p0=0.5, max_epochs=1000)
        assert 0.19 < outcome.max_byzantine_proportion < 0.45


class TestNonSlashableScenario:
    def test_finalizes_but_slower_than_slashing(self):
        non_slashing = run_non_slashable_byzantine_scenario(beta0=0.3, p0=0.5, max_epochs=6000)
        slashing = run_slashable_byzantine_scenario(beta0=0.3, p0=0.5, max_epochs=6000)
        assert non_slashing.conflicting_finalization_epoch is not None
        assert (
            non_slashing.conflicting_finalization_epoch
            >= slashing.conflicting_finalization_epoch
        )

    def test_finalizer_strategy_bursts_after_threshold(self):
        strategy = NonSlashableFinalizer(supermajority=2 / 3)
        pattern = strategy.pattern_for("branch-1", parity=0)
        # Below the threshold the agent alternates.
        assert pattern(0, view(0, ratio=0.5)) is True
        assert pattern(1, view(1, ratio=0.5)) is False
        # Once the ratio reaches 2/3 it stays active to finalize.
        assert pattern(2, view(2, ratio=0.7)) is True
        assert pattern(3, view(3, ratio=0.6)) is True  # burst continues

    def test_finalizer_strategy_never_active_on_both_branches_same_epoch(self):
        strategy = NonSlashableFinalizer(supermajority=2 / 3)
        pattern_1 = strategy.pattern_for("branch-1", parity=0)
        pattern_2 = strategy.pattern_for("branch-2", parity=1)
        for epoch in range(0, 12):
            ratio = 0.7 if epoch >= 4 else 0.5
            active_1 = pattern_1(epoch, view(epoch, ratio=ratio))
            active_2 = pattern_2(epoch, view(epoch, ratio=ratio))
            assert not (active_1 and active_2)


class TestThresholdScenario:
    def test_beta_exceeds_one_third_above_critical(self):
        outcome = run_threshold_exceeding_scenario(beta0=0.25, p0=0.5, max_epochs=6000)
        assert outcome.threshold_exceeded
        assert outcome.max_byzantine_proportion > 1 / 3
        assert outcome.outcome == "beta > 1/3"

    def test_beta_stays_below_one_third_below_critical(self):
        outcome = run_threshold_exceeding_scenario(beta0=0.2, p0=0.5, max_epochs=6000)
        assert not outcome.threshold_exceeded
        assert outcome.max_byzantine_proportion < 1 / 3


class TestBouncingScenario:
    def test_reports_probabilities(self):
        outcome = run_bouncing_scenario(beta0=0.33, p0=0.5, horizon_epochs=4000)
        assert outcome.scenario_id == "5.3"
        assert "exceed_probability_at_horizon" in outcome.details
        assert 0.0 <= outcome.details["exceed_probability_at_horizon"] <= 1.0
        assert outcome.details["log10_duration_probability"] < -50

    def test_feasibility_window_included(self):
        outcome = run_bouncing_scenario(beta0=0.33, p0=0.5)
        assert outcome.details["feasible_p0_lower"] < outcome.details["feasible_p0_upper"]


class TestRunAllScenarios:
    def test_five_scenarios_with_expected_outcomes(self):
        outcomes = run_all_scenarios(beta0=0.33, threshold_beta0=0.25, max_epochs=5000)
        assert [o.scenario_id for o in outcomes] == ["5.1", "5.2.1", "5.2.2", "5.2.3", "5.3"]
        assert outcomes[0].outcome == "2 finalized branches"
        assert outcomes[1].outcome == "2 finalized branches"
        assert outcomes[2].outcome == "2 finalized branches"
        assert outcomes[3].outcome == "beta > 1/3"
        assert outcomes[4].outcome == "beta > 1/3 probably"


class TestScenarioAnalyticsFollowTheirConfig:
    """Under ``SpecConfig.minimal()`` (quotient 2**14) each scenario reports
    the closed form at that config, next to its own simulation."""

    MINIMAL = SpecConfig.minimal()

    def _check(self, outcome, strategy, tolerance):
        closed_form = conflicting_finalization_time(
            strategy, outcome.p0, outcome.beta0, config=self.MINIMAL
        ).finalization_epoch
        assert outcome.analytical_epoch == closed_form
        assert abs(outcome.conflicting_finalization_epoch - closed_form) <= tolerance

    def test_honest(self):
        outcome = run_all_honest_scenario(p0=0.5, max_epochs=300, config=self.MINIMAL)
        assert outcome.conflicting_finalization_epoch == 74
        assert outcome.analytical_epoch == pytest.approx(73.82, abs=0.01)
        self._check(outcome, ByzantineStrategy.NONE, 1)

    @pytest.mark.parametrize(
        "beta0, simulated, closed_form", [(0.1, 64, 64.52), (0.2, 49, 49.55), (0.33, 9, 8.83)]
    )
    def test_slashable(self, beta0, simulated, closed_form):
        outcome = run_slashable_byzantine_scenario(
            beta0=beta0, p0=0.5, max_epochs=300, config=self.MINIMAL
        )
        assert outcome.conflicting_finalization_epoch == simulated
        assert outcome.analytical_epoch == pytest.approx(closed_form, abs=0.01)
        self._check(outcome, ByzantineStrategy.SLASHING, 1)

    @pytest.mark.parametrize(
        "beta0, simulated, closed_form", [(0.1, 69, 66.61), (0.2, 56, 52.75), (0.33, 13, 9.68)]
    )
    def test_non_slashable(self, beta0, simulated, closed_form):
        # Semi-active scores move +4/-1 on alternate epochs while Eq. 10
        # averages them to 1.5 per epoch; at a ~60-epoch horizon that shows
        # as a few epochs, hence the wider bound.
        outcome = run_non_slashable_byzantine_scenario(
            beta0=beta0, p0=0.5, max_epochs=300, config=self.MINIMAL
        )
        assert outcome.conflicting_finalization_epoch == simulated
        assert outcome.analytical_epoch == pytest.approx(closed_form, abs=0.01)
        self._check(outcome, ByzantineStrategy.NON_SLASHING, 4)
