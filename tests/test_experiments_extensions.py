"""Tests for the extension experiments (Monte-Carlo validation, generalized
mechanisms, recovery tail) and their registry entries."""

import pytest

from repro.analysis.finalization_time import threshold_epoch_honest_only
from repro.experiments import (
    fig10_montecarlo,
    generalized_mechanism,
    recovery_tail,
    registry,
)
from repro.spec.config import SpecConfig


class TestFigure10MonteCarlo:
    def test_lower_beta_gives_lower_probability(self):
        result = fig10_montecarlo.run(
            beta0_values=(1 / 3, 0.31), horizon=1500, n_trials=20, n_honest=80, seed=2
        )
        rows = {row["beta0"]: row for row in result.horizon_rows()}
        assert (
            rows[0.31]["empirical_either_branch"]
            <= rows[1 / 3]["empirical_either_branch"]
        )

    def test_gap_metric(self):
        result = fig10_montecarlo.run(
            beta0_values=(1 / 3,), horizon=1000, n_trials=20, n_honest=80, seed=3
        )
        assert 0.0 <= result.max_gap_to_both_branches_form() <= 1.0

    def test_record_every_produces_full_curve(self):
        result = fig10_montecarlo.run(
            beta0_values=(1 / 3,),
            horizon=1200,
            n_trials=20,
            n_honest=80,
            seed=4,
            record_every=150,
        )
        assert list(result.record_epochs) == [150 * k for k in range(1, 9)]
        curve = result.empirical_series[1 / 3]
        assert set(curve) == set(result.record_epochs)
        assert all(0.0 <= value <= 1.0 for value in curve.values())
        # rows() exports one row per (beta0, epoch) — the full curve.
        assert len(result.rows()) == 8
        assert "exceed-probability curves" in result.format_text()

    def test_plan_record_epochs_includes_horizon(self):
        assert fig10_montecarlo.plan_record_epochs(1000, None) == [1000]
        assert fig10_montecarlo.plan_record_epochs(1000, 400) == [400, 800, 1000]
        with pytest.raises(ValueError):
            fig10_montecarlo.plan_record_epochs(1000, 0)


class TestGeneralizedMechanismExperiment:
    def test_default_run_contains_ethereum(self):
        result = generalized_mechanism.run()
        names = [row["mechanism"] for row in result.rows()]
        assert any("ethereum" in name for name in names)
        assert "Generalized penalty mechanisms" in result.format_text()

    def test_custom_mechanism_dict(self):
        result = generalized_mechanism.run(
            mechanisms={"custom": SpecConfig(inactivity_penalty_quotient=2 ** 22)}
        )
        assert len(result.rows()) == 1
        assert result.rows()[0]["penalty_quotient"] == float(2 ** 22)

    def test_stricter_quorum_needs_longer_leak(self):
        ethereum = generalized_mechanism.DEFAULT_MECHANISMS["ethereum (2**26)"]
        strict = generalized_mechanism.DEFAULT_MECHANISMS["strict quorum (3/4)"]
        # A branch whose active honest share is 0.7 holds a 2/3 quorum
        # already, but must leak for ~2904 epochs to regain a 3/4 one.
        assert threshold_epoch_honest_only(0.7, config=ethereum) == 0.0
        assert threshold_epoch_honest_only(
            0.7, config=strict
        ) > threshold_epoch_honest_only(0.7, config=ethereum)
        assert threshold_epoch_honest_only(0.7, config=strict) == pytest.approx(
            2903.9, abs=0.1
        )
        # The honest-only Safety bound is the weaker branch's ejection for
        # any quorum of at least 1/2, so it is equal for both by design.
        result = generalized_mechanism.run()
        rows = {row["mechanism"]: row for row in result.rows()}
        assert (
            rows["strict quorum (3/4)"]["safety_bound_epochs"]
            == rows["ethereum (2**26)"]["safety_bound_epochs"]
        )


class TestRecoveryTailExperiment:
    def test_rows_and_text(self):
        result = recovery_tail.run(p0_values=(0.6, 0.62))
        assert len(result.rows()) == 2
        assert "recovery tail" in result.format_text().lower()

    def test_longer_leak_longer_tail(self):
        result = recovery_tail.run(p0_values=(0.6, 0.65))
        rows = {row["p0"]: row for row in result.rows()}
        # p0 = 0.6 leaks longer than p0 = 0.65, so its tail is longer too.
        assert rows[0.6]["leak_duration_epochs"] > rows[0.65]["leak_duration_epochs"]
        assert rows[0.6]["recovery_tail_epochs"] >= rows[0.65]["recovery_tail_epochs"]

    def test_exit_stake_above_ejection(self):
        result = recovery_tail.run(p0_values=(0.6,))
        assert result.rows()[0]["stake_at_leak_exit"] > 16.75


class TestRegistryExtensions:
    def test_new_ids_registered(self):
        ids = registry.list_ids()
        for expected in ("fig10-montecarlo", "generalized-mechanism", "recovery-tail"):
            assert expected in ids

    def test_registry_dispatch(self):
        result = registry.run("recovery-tail")
        assert hasattr(result, "rows")
        result = registry.run("generalized-mechanism")
        assert hasattr(result, "format_text")
