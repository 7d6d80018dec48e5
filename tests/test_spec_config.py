"""Tests for repro.spec.config."""

import pytest

from repro import constants
from repro.spec.config import DEFAULT_CONFIG, SpecConfig


class TestSpecConfigDefaults:
    def test_mainnet_matches_paper_constants(self):
        cfg = SpecConfig.mainnet()
        assert cfg.slots_per_epoch == 32
        assert cfg.seconds_per_slot == 12
        assert cfg.max_effective_balance == 32.0
        assert cfg.ejection_balance == pytest.approx(16.75)
        assert cfg.inactivity_penalty_quotient == 2 ** 26
        assert cfg.inactivity_score_bias == 4
        assert cfg.min_epochs_to_inactivity_penalty == 4

    def test_seconds_per_epoch(self):
        cfg = SpecConfig.mainnet()
        assert cfg.seconds_per_epoch == 12 * 32 == constants.SECONDS_PER_EPOCH

    def test_supermajority_fraction(self):
        assert SpecConfig.mainnet().supermajority_fraction == pytest.approx(2 / 3)

    def test_default_config_is_mainnet(self):
        assert DEFAULT_CONFIG == SpecConfig.mainnet()

    def test_minimal_preserves_rule_structure(self):
        cfg = SpecConfig.minimal()
        assert cfg.inactivity_score_bias == 4
        assert cfg.slots_per_epoch == 4
        assert cfg.inactivity_penalty_quotient < SpecConfig.mainnet().inactivity_penalty_quotient


class TestSpecConfigHelpers:
    def test_epoch_of_slot(self):
        cfg = SpecConfig.mainnet()
        assert cfg.epoch_of_slot(0) == 0
        assert cfg.epoch_of_slot(31) == 0
        assert cfg.epoch_of_slot(32) == 1

    def test_start_slot_of_epoch(self):
        cfg = SpecConfig.mainnet()
        assert cfg.start_slot_of_epoch(2) == 64

    def test_with_overrides(self):
        cfg = SpecConfig.mainnet().with_overrides(slots_per_epoch=8)
        assert cfg.slots_per_epoch == 8
        # original untouched (frozen dataclass)
        assert SpecConfig.mainnet().slots_per_epoch == 32

    def test_to_dict_round_trips_key_fields(self):
        cfg = SpecConfig.mainnet()
        data = cfg.to_dict()
        assert data["slots_per_epoch"] == 32
        assert data["inactivity_penalty_quotient"] == 2 ** 26


class TestSpecConfigValidation:
    def test_rejects_nonpositive_slots_per_epoch(self):
        with pytest.raises(ValueError):
            SpecConfig(slots_per_epoch=0)

    def test_rejects_bad_ejection_balance(self):
        with pytest.raises(ValueError):
            SpecConfig(ejection_balance=40.0)
        with pytest.raises(ValueError):
            SpecConfig(ejection_balance=0.0)

    def test_rejects_nonpositive_quotient(self):
        with pytest.raises(ValueError):
            SpecConfig(inactivity_penalty_quotient=0)

    def test_rejects_zero_leak_delay(self):
        with pytest.raises(ValueError):
            SpecConfig(min_epochs_to_inactivity_penalty=0)

    def test_rejects_nonpositive_score_bias(self):
        with pytest.raises(ValueError):
            SpecConfig(inactivity_score_bias=0)
        with pytest.raises(ValueError):
            SpecConfig(inactivity_score_bias=-4)

    def test_rejects_negative_score_recovery(self):
        with pytest.raises(ValueError):
            SpecConfig(inactivity_score_recovery=-1)
        assert SpecConfig(inactivity_score_recovery=0).inactivity_score_recovery == 0

    def test_supermajority_must_lie_in_half_open_unit_interval(self):
        half = SpecConfig(supermajority_numerator=1, supermajority_denominator=2)
        assert half.supermajority_fraction == 0.5
        for numerator, denominator in ((1, 3), (0, 3), (3, 3), (4, 3), (1, 0)):
            with pytest.raises(ValueError):
                SpecConfig(
                    supermajority_numerator=numerator, supermajority_denominator=denominator
                )
