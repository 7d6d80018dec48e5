"""Tests for repro.analysis.distributions (Equations 18-22)."""

import math

import numpy as np
import pytest
from scipy import integrate

from repro.analysis.distributions import BouncingStakeDistribution
from repro.leak.stake import semi_active_stake
from repro.spec.config import SpecConfig


@pytest.fixture
def distribution():
    return BouncingStakeDistribution(p0=0.5)


class TestConstruction:
    def test_defaults(self, distribution):
        assert distribution.s0 == 32.0
        assert distribution.ejection_balance == pytest.approx(16.75)
        assert distribution.diffusion == pytest.approx(6.25)
        assert distribution.drift == pytest.approx(1.5)

    def test_invalid_p0(self):
        with pytest.raises(ValueError):
            BouncingStakeDistribution(p0=0.0)

    def test_invalid_bounds(self):
        # The bounds come from the config, which rejects an ejection
        # balance above the cap.
        with pytest.raises(ValueError):
            BouncingStakeDistribution(p0=0.5, config=SpecConfig(ejection_balance=40.0))

    def test_config_supplies_the_leak_constants(self):
        minimal = SpecConfig.minimal()
        lenient = SpecConfig(inactivity_score_bias=2, ejection_balance=20.0)
        assert BouncingStakeDistribution(p0=0.5, config=minimal).quotient == 2.0 ** 14
        custom = BouncingStakeDistribution(p0=0.5, config=lenient)
        assert custom.ejection_balance == 20.0
        # V = (bias - recovery) / 2 and D = (bias + recovery)^2 p0 (1 - p0).
        assert custom.drift == 0.5
        assert custom.diffusion == 9 * 0.25


class TestUncappedLaw:
    def test_cdf_monotone_in_stake(self, distribution):
        t = 2000.0
        values = [distribution.cdf(s, t) for s in (5.0, 15.0, 25.0, 31.0, 40.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cdf_limits(self, distribution):
        t = 2000.0
        assert distribution.cdf(1e-9, t) == pytest.approx(0.0, abs=1e-6)
        assert distribution.cdf(1e6, t) == pytest.approx(1.0, abs=1e-6)

    def test_median_is_semi_active_trajectory(self, distribution):
        # The median stake equals the deterministic semi-active trajectory
        # (the paper's observation about the log-normal mean).
        for t in (500.0, 2000.0, 4000.0):
            median = distribution.mean_stake(t)
            assert median == pytest.approx(semi_active_stake(t), rel=1e-9)
            assert distribution.cdf(median, t) == pytest.approx(0.5, abs=1e-9)

    def test_pdf_integrates_to_cdf_difference(self, distribution):
        t = 3000.0
        grid = np.linspace(10.0, 30.0, 4001)
        integral = np.trapezoid([distribution.pdf(float(s), t) for s in grid], grid)
        assert integral == pytest.approx(
            distribution.cdf(30.0, t) - distribution.cdf(10.0, t), abs=1e-4
        )

    def test_pdf_zero_for_nonpositive_stake(self, distribution):
        assert distribution.pdf(0.0, 100.0) == 0.0
        assert distribution.pdf(-1.0, 100.0) == 0.0

    def test_rejects_nonpositive_time(self, distribution):
        with pytest.raises(ValueError):
            distribution.cdf(10.0, 0.0)
        with pytest.raises(ValueError):
            distribution.pdf(10.0, -1.0)

    def test_quantile_inverts_cdf(self, distribution):
        t = 2500.0
        for q in (0.1, 0.5, 0.9):
            s = distribution.quantile(q, t)
            assert distribution.cdf(s, t) == pytest.approx(q, abs=1e-6)


class TestCappedLaw:
    def test_point_masses_between_zero_and_one(self, distribution):
        t = 4024.0
        assert 0.0 <= distribution.ejection_mass(t) <= 1.0
        assert 0.0 <= distribution.cap_mass(t) <= 1.0

    def test_total_mass_is_one(self, distribution):
        for t in (1000.0, 4024.0, 7000.0):
            assert distribution.total_mass(t) == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("t", [1.0, 1000.0, 4024.0, 7000.0])
    @pytest.mark.parametrize("grid_points", [801, 2001])
    def test_total_mass_equals_the_scipy_trapezoid(self, distribution, t, grid_points):
        grid = np.linspace(distribution.ejection_balance, distribution.cap, grid_points)
        continuous = integrate.trapezoid([distribution.capped_pdf(float(x), t) for x in grid], grid)
        expected = distribution.ejection_mass(t) + distribution.cap_mass(t) + float(continuous)
        assert distribution.total_mass(t, grid_points) == expected

    def test_capped_pdf_zero_outside_support(self, distribution):
        t = 4024.0
        assert distribution.capped_pdf(10.0, t) == 0.0
        assert distribution.capped_pdf(33.0, t) == 0.0
        assert distribution.capped_pdf(20.0, t) > 0.0

    def test_capped_cdf_limits(self, distribution):
        t = 4024.0
        assert distribution.capped_cdf(0.0, t) == pytest.approx(distribution.ejection_mass(t))
        assert distribution.capped_cdf(32.0, t) == pytest.approx(1.0)
        assert distribution.capped_cdf(-1.0, t) == 0.0

    def test_capped_cdf_monotone(self, distribution):
        t = 4024.0
        grid = np.linspace(0.0, 32.0, 200)
        values = [distribution.capped_cdf(float(x), t) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_ejection_mass_grows_over_time(self, distribution):
        assert distribution.ejection_mass(7000.0) > distribution.ejection_mass(3000.0)

    def test_cap_mass_shrinks_over_time(self, distribution):
        # Right after the attack starts some validators have not leaked yet
        # (mass at the 32-ETH cap); that mass vanishes as the leak progresses.
        assert distribution.cap_mass(10.0) > 0.01
        assert distribution.cap_mass(1000.0) < distribution.cap_mass(10.0)
        assert distribution.cap_mass(1000.0) == pytest.approx(0.0, abs=1e-6)

    def test_density_series_shapes(self, distribution):
        grid, density = distribution.density_series(4024.0, grid_points=101)
        assert len(grid) == len(density) == 101
        assert grid[0] == pytest.approx(16.75)
        assert grid[-1] == pytest.approx(32.0)
