"""Tests for repro.analysis.finalization_time (Equations 6, 9, 10; Tables 2-3)."""

import math

import pytest

from repro.analysis.finalization_time import (
    ByzantineStrategy,
    conflicting_finalization_time,
    epochs_to_conflicting_finalization,
    speedup_over_honest_baseline,
    threshold_epoch_honest_only,
    threshold_epoch_non_slashing,
    threshold_epoch_slashing,
)
from repro.constants import PAPER_INACTIVE_EJECTION_EPOCH as PAPER_EJECTION
from repro.leak.ratios import (
    active_ratio_with_semi_active_byzantine,
    active_ratio_with_slashing_byzantine,
)


class TestEquation6:
    def test_even_split_capped_at_ejection(self):
        assert threshold_epoch_honest_only(0.5, PAPER_EJECTION) == pytest.approx(4685.0)

    def test_closed_form_for_p06(self):
        expected = math.sqrt(2 ** 25 * (math.log(2 * 0.4) - math.log(0.6)))
        assert threshold_epoch_honest_only(0.6) == pytest.approx(expected)

    def test_supermajority_split_needs_zero_epochs(self):
        assert threshold_epoch_honest_only(0.7) == 0.0

    def test_smaller_p0_is_slower(self):
        # Below the ejection cap, fewer active validators means a later crossing.
        assert threshold_epoch_honest_only(0.62) < threshold_epoch_honest_only(0.58)
        assert threshold_epoch_honest_only(0.58) < threshold_epoch_honest_only(0.55)

    def test_zero_p0_hits_the_cap(self):
        assert threshold_epoch_honest_only(0.0, PAPER_EJECTION) == pytest.approx(4685.0)

    def test_invalid_p0(self):
        with pytest.raises(ValueError):
            threshold_epoch_honest_only(1.5)


class TestEmptyBranch:
    """A branch with no active stake recovers only at the ejection cap; a
    branch holding all of it needs no epoch (every strategy, beta0 = 0)."""

    STRATEGIES = (
        ByzantineStrategy.NONE,
        ByzantineStrategy.SLASHING,
        ByzantineStrategy.NON_SLASHING,
    )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("p0", [0.0, 1.0])
    def test_branch_epochs_at_the_extremes(self, strategy, p0):
        result = conflicting_finalization_time(strategy, p0=p0, beta0=0.0, ejection_cap=100.0)
        empty, full = (
            (result.branch_1_epoch, result.branch_2_epoch)
            if p0 == 0.0
            else (result.branch_2_epoch, result.branch_1_epoch)
        )
        assert empty == 100.0
        assert full == 0.0
        assert result.threshold_epoch == 100.0

    def test_slashing_form_at_zero_beta_is_equation6(self):
        assert threshold_epoch_slashing(0.0, 0.0) == threshold_epoch_honest_only(0.0)
        assert threshold_epoch_slashing(0.55, 0.0) == threshold_epoch_honest_only(0.55)


class TestEquation9Table2:
    PAPER = {0.0: 4685, 0.1: 4066, 0.15: 3622, 0.2: 3107, 0.33: 502}

    @pytest.mark.parametrize("beta0,expected", sorted(PAPER.items()))
    def test_table2_rows_exact(self, beta0, expected):
        assert (
            epochs_to_conflicting_finalization(
                ByzantineStrategy.SLASHING, 0.5, beta0, PAPER_EJECTION
            )
            == expected
        )

    def test_crossing_time_solves_equation8(self):
        t = threshold_epoch_slashing(0.5, 0.2)
        assert active_ratio_with_slashing_byzantine(t, 0.5, 0.2) == pytest.approx(2 / 3, abs=1e-9)

    def test_beta_close_to_third_is_fast(self):
        # The closer beta0 is to 1/3, the faster the crossing (approaches 0).
        assert threshold_epoch_slashing(0.5, 0.333) < 200
        assert threshold_epoch_slashing(0.5, 0.3333) < 60
        assert threshold_epoch_slashing(0.5, 0.33333) < 20

    def test_monotone_in_beta0(self):
        values = [threshold_epoch_slashing(0.5, b) for b in (0.05, 0.1, 0.2, 0.3)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_supermajority_from_start_returns_zero(self):
        assert threshold_epoch_slashing(0.5, 1 / 3) == pytest.approx(0.0, abs=2.0)


class TestEquation10Table3:
    PAPER = {0.0: 4685, 0.33: 556}
    PAPER_APPROXIMATE = {0.1: 4221, 0.15: 3819, 0.2: 3328}

    @pytest.mark.parametrize("beta0,expected", sorted(PAPER.items()))
    def test_table3_exact_rows(self, beta0, expected):
        assert (
            epochs_to_conflicting_finalization(
                ByzantineStrategy.NON_SLASHING, 0.5, beta0, PAPER_EJECTION
            )
            == expected
        )

    @pytest.mark.parametrize("beta0,expected", sorted(PAPER_APPROXIMATE.items()))
    def test_table3_rows_within_one_percent(self, beta0, expected):
        measured = epochs_to_conflicting_finalization(
            ByzantineStrategy.NON_SLASHING, 0.5, beta0
        )
        assert abs(measured - expected) / expected < 0.01

    def test_crossing_time_solves_equation10(self):
        t = threshold_epoch_non_slashing(0.5, 0.2)
        assert active_ratio_with_semi_active_byzantine(t, 0.5, 0.2) == pytest.approx(
            2 / 3, abs=1e-7
        )

    def test_paper_value_555_65(self):
        assert threshold_epoch_non_slashing(0.5, 0.33) == pytest.approx(555.65, abs=0.5)

    def test_non_slashing_never_faster_than_slashing(self):
        for beta0 in (0.05, 0.1, 0.2, 0.3, 0.33):
            assert threshold_epoch_non_slashing(0.5, beta0) >= threshold_epoch_slashing(
                0.5, beta0
            )


class TestConflictingFinalization:
    def test_slower_branch_dominates(self):
        result = conflicting_finalization_time(ByzantineStrategy.SLASHING, p0=0.3, beta0=0.1)
        assert result.threshold_epoch == max(result.branch_1_epoch, result.branch_2_epoch)
        assert result.branch_1_epoch != result.branch_2_epoch

    def test_finalization_is_one_epoch_after_threshold(self):
        result = conflicting_finalization_time(
            ByzantineStrategy.NONE, p0=0.5, ejection_cap=PAPER_EJECTION
        )
        assert result.finalization_epoch == result.threshold_epoch + 1
        assert result.finalization_epoch == pytest.approx(4686.0)

    def test_honest_strategy_requires_zero_beta(self):
        with pytest.raises(ValueError):
            conflicting_finalization_time(ByzantineStrategy.NONE, p0=0.5, beta0=0.1)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            conflicting_finalization_time("bribing", p0=0.5)

    def test_speedup_factors_match_paper_quotes(self):
        # Paper: ~10x faster with slashing, ~8x faster without, at beta0=0.33.
        slashing = speedup_over_honest_baseline(ByzantineStrategy.SLASHING, 0.33)
        non_slashing = speedup_over_honest_baseline(ByzantineStrategy.NON_SLASHING, 0.33)
        assert 8.5 <= slashing <= 10.5
        assert 7.5 <= non_slashing <= 9.0
