"""Tests for repro.leak.ratios (Equations 5, 8, 10, 11, 13)."""

import math

import pytest

from repro import constants
from repro.leak.ratios import (
    active_ratio_honest_only,
    active_ratio_with_semi_active_byzantine,
    active_ratio_with_slashing_byzantine,
    byzantine_proportion,
    max_byzantine_proportion,
    min_beta0_to_exceed_threshold,
)


class TestEquation5:
    def test_initial_value_is_p0(self):
        assert active_ratio_honest_only(0.0, 0.4) == pytest.approx(0.4)

    def test_monotonically_increasing(self):
        values = [active_ratio_honest_only(t, 0.3) for t in range(0, 5000, 100)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_tends_to_one(self):
        assert active_ratio_honest_only(30000.0, 0.2) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_exchange(self):
        # The two branches of an even split have identical ratios.
        assert active_ratio_honest_only(1000.0, 0.5) == pytest.approx(
            active_ratio_honest_only(1000.0, 1 - 0.5)
        )

    def test_p0_at_supermajority_already(self):
        assert active_ratio_honest_only(0.0, 0.7) == pytest.approx(0.7)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            active_ratio_honest_only(-1.0, 0.5)
        with pytest.raises(ValueError):
            active_ratio_honest_only(1.0, 1.5)


class TestEquation8:
    def test_initial_value(self):
        # At t=0 the ratio is p0(1-b)+b.
        assert active_ratio_with_slashing_byzantine(0.0, 0.5, 0.2) == pytest.approx(0.6)

    def test_reduces_to_equation5_without_byzantine(self):
        for t in (0.0, 500.0, 3000.0):
            assert active_ratio_with_slashing_byzantine(t, 0.4, 0.0) == pytest.approx(
                active_ratio_honest_only(t, 0.4)
            )

    def test_byzantine_help_accelerates(self):
        t = 2000.0
        assert active_ratio_with_slashing_byzantine(t, 0.5, 0.2) > active_ratio_honest_only(t, 0.5)

    def test_monotone_in_beta0(self):
        t = 1500.0
        values = [active_ratio_with_slashing_byzantine(t, 0.5, b) for b in (0.0, 0.1, 0.2, 0.3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_beta_one_third_with_even_split_is_supermajority_at_zero(self):
        assert active_ratio_with_slashing_byzantine(0.0, 0.5, 1 / 3) == pytest.approx(2 / 3)


class TestEquation10:
    def test_initial_value(self):
        assert active_ratio_with_semi_active_byzantine(0.0, 0.5, 0.2) == pytest.approx(0.6)

    def test_slower_than_slashing_strategy(self):
        t = 2000.0
        assert active_ratio_with_semi_active_byzantine(
            t, 0.5, 0.2
        ) < active_ratio_with_slashing_byzantine(t, 0.5, 0.2)

    def test_faster_than_honest_only(self):
        t = 2000.0
        assert active_ratio_with_semi_active_byzantine(t, 0.5, 0.2) > active_ratio_honest_only(
            t, 0.5
        )

    def test_reduces_to_equation5_without_byzantine(self):
        for t in (0.0, 1000.0):
            assert active_ratio_with_semi_active_byzantine(t, 0.3, 0.0) == pytest.approx(
                active_ratio_honest_only(t, 0.3)
            )


class TestEquation11:
    def test_initial_value_is_beta0(self):
        assert byzantine_proportion(0.0, 0.5, 0.25) == pytest.approx(0.25)

    def test_grows_over_time(self):
        values = [byzantine_proportion(t, 0.5, 0.25) for t in range(0, 4600, 200)]
        assert values[-1] > values[0]

    def test_zero_byzantine_stays_zero(self):
        assert byzantine_proportion(3000.0, 0.5, 0.0) == 0.0


class TestEquation13:
    def test_paper_critical_point(self):
        # beta0 = 1 / (1 + 4 exp(-3*4685^2/2^28)) = 0.2421 at p0 = 0.5.
        critical = min_beta0_to_exceed_threshold(0.5)
        assert critical == pytest.approx(0.2421, abs=5e-4)

    def test_beta_max_formula(self):
        decay = math.exp(-3 * 4685 ** 2 / 2 ** 28)
        expected = 0.25 * decay / (0.5 * 0.75 + 0.25 * decay)
        assert max_byzantine_proportion(
            0.5, 0.25, constants.PAPER_INACTIVE_EJECTION_EPOCH
        ) == pytest.approx(expected)

    def test_beta_max_exceeds_third_above_critical(self):
        critical = min_beta0_to_exceed_threshold(0.5)
        assert max_byzantine_proportion(0.5, critical + 0.01) > 1 / 3
        assert max_byzantine_proportion(0.5, critical - 0.01) < 1 / 3

    def test_beta_max_monotone_in_beta0(self):
        values = [max_byzantine_proportion(0.5, b) for b in (0.1, 0.2, 0.3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_smaller_p0_needs_smaller_beta0(self):
        # With fewer honest active validators on the branch the Byzantine
        # share at ejection is larger, so the critical beta0 decreases.
        assert min_beta0_to_exceed_threshold(0.3) < min_beta0_to_exceed_threshold(0.5)

    def test_beta_max_larger_than_initial(self):
        assert max_byzantine_proportion(0.5, 0.25) > 0.25
