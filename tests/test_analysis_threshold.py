"""Tests for repro.analysis.threshold (Section 5.2.3, Figure 7)."""

import pytest

from repro.analysis.threshold import (
    analyse_pair,
    beta_max,
    compute_threshold_region,
    critical_beta0,
    crossing_epoch,
    exceeds_threshold,
)
from repro.constants import PAPER_INACTIVE_EJECTION_EPOCH as PAPER_EJECTION


class TestBetaMax:
    def test_critical_beta0_matches_paper(self):
        assert critical_beta0(0.5) == pytest.approx(0.2421, abs=5e-4)

    def test_exceeds_threshold_around_critical_point(self):
        critical = critical_beta0(0.5)
        assert exceeds_threshold(0.5, critical + 0.005)
        assert not exceeds_threshold(0.5, critical - 0.005)

    def test_beta_max_at_zero_byzantine(self):
        assert beta_max(0.5, 0.0) == 0.0

    def test_beta_max_is_at_least_initial_proportion(self):
        for beta0 in (0.1, 0.2, 0.3):
            assert beta_max(0.5, beta0) >= beta0


class TestCrossingEpoch:
    def test_crossing_epoch_none_when_infeasible(self):
        assert crossing_epoch(0.5, 0.1) is None

    def test_crossing_epoch_zero_when_already_above(self):
        assert crossing_epoch(0.5, 0.34, threshold=1 / 3) == 0.0

    def test_crossing_for_feasible_beta_happens_at_ejection(self):
        # Before the ejection the honest inactive stake, although eroded, still
        # dilutes the Byzantine share; the crossing comes from the ejection jump.
        epoch = crossing_epoch(0.5, 0.3, ejection_epoch=PAPER_EJECTION)
        assert epoch == pytest.approx(4685.0)

    def test_crossing_epoch_at_ejection_for_marginal_beta(self):
        critical = critical_beta0(0.5, PAPER_EJECTION)
        epoch = crossing_epoch(0.5, critical + 1e-4, ejection_epoch=PAPER_EJECTION)
        assert epoch == pytest.approx(4685.0)

    def test_analyse_pair_bundle(self):
        crossing = analyse_pair(0.5, 0.3)
        assert crossing.exceeds_threshold
        assert crossing.beta_max > 1 / 3
        assert crossing.crossing_epoch is not None


class TestThresholdRegion:
    def test_region_shapes(self):
        region = compute_threshold_region(
            p0_values=[0.2, 0.5, 0.8], beta0_values=[0.1, 0.25, 0.3]
        )
        assert region.feasible_branch_1.shape == (3, 3)
        assert region.feasible_branch_2.shape == (3, 3)

    def test_feasibility_monotone_in_beta0(self):
        region = compute_threshold_region(
            p0_values=[0.5], beta0_values=[0.1, 0.2, 0.25, 0.3]
        )
        row = region.feasible_branch_1[0]
        # Once feasible, it stays feasible for larger beta0.
        assert list(row) == sorted(row)

    def test_min_beta0_on_both_branches_near_paper_value(self):
        region = compute_threshold_region(
            p0_values=[0.5], beta0_values=[x / 1000 for x in range(200, 330)]
        )
        assert region.min_beta0_both_branches() == pytest.approx(0.2421, abs=2e-3)

    def test_both_branch_feasibility_is_intersection(self):
        region = compute_threshold_region(
            p0_values=[0.3, 0.5, 0.7], beta0_values=[0.25, 0.3]
        )
        both = region.feasible_on_both()
        assert both.shape == region.feasible_branch_1.shape
        assert (both <= region.feasible_branch_1).all()
        assert (both <= region.feasible_branch_2).all()

    def test_uneven_split_favours_one_branch(self):
        # With p0 = 0.7 the branch with only 30% honest-active validators
        # lets the Byzantine proportion grow much more easily.
        assert beta_max(0.3, 0.2) > beta_max(0.7, 0.2)
