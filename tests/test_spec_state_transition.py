"""Tests for repro.spec.state_transition (epoch processing)."""

import pytest

from repro.spec.checkpoint import Checkpoint, FFGVote, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.finality import FFGVotePool
from repro.spec.state import BeaconState
from repro.spec.state_transition import advance_epoch, process_epoch
from repro.spec.types import Root
from repro.spec.validator import make_registry


def cp(epoch: int, label: str = "") -> Checkpoint:
    return Checkpoint(epoch=epoch, root=Root.from_label(label or f"c{epoch}"))


@pytest.fixture
def state():
    return BeaconState.genesis(make_registry(9, byzantine_fraction=1 / 3), SpecConfig.mainnet())


def fill_pool(pool: FFGVotePool, validators, source, target):
    for validator in validators:
        pool.add_vote(validator, FFGVote(source=source, target=target))


class TestProcessEpoch:
    def test_healthy_epoch_justifies_and_rewards(self, state):
        pool = FFGVotePool()
        fill_pool(pool, range(9), GENESIS_CHECKPOINT, cp(1))
        state.current_epoch = 1
        state.validators[0].stake = 31.0  # below the cap, so the reward is visible
        report = process_epoch(state, pool, active_indices=range(9))
        assert report.justification.justified_any
        assert not report.in_leak
        assert report.active_stake_ratio == pytest.approx(1.0)
        assert report.rewards.total_rewards > 0

    def test_two_healthy_epochs_finalize(self, state):
        pool = FFGVotePool()
        fill_pool(pool, range(9), GENESIS_CHECKPOINT, cp(1))
        state.current_epoch = 1
        process_epoch(state, pool, active_indices=range(9))
        fill_pool(pool, range(9), cp(1), cp(2))
        state.current_epoch = 2
        report = process_epoch(state, pool, active_indices=range(9))
        assert report.justification.finalized_any
        assert state.finalized_checkpoint.epoch == 1

    def test_leak_epoch_penalizes_inactive(self, state):
        pool = FFGVotePool()
        state.current_epoch = 6  # past the 4-epoch grace period
        for validator in state.validators:
            validator.inactivity_score = 10
        report = process_epoch(state, pool, active_indices={0, 1, 2, 3, 4, 5})
        assert report.in_leak
        assert report.inactivity.total_penalty > 0
        assert report.rewards.total_rewards == 0.0
        assert set(report.inactivity.inactive_indices) == {6, 7, 8}

    def test_slashable_indices_get_slashed(self, state):
        pool = FFGVotePool()
        state.current_epoch = 1
        report = process_epoch(state, pool, active_indices=range(9), slashable_indices=[8])
        assert report.slashing.slashed_indices == [8]
        assert state.validators[8].slashed

    def test_byzantine_proportion_reported(self, state):
        pool = FFGVotePool()
        state.current_epoch = 1
        report = process_epoch(state, pool, active_indices=range(9))
        assert report.byzantine_proportion == pytest.approx(1 / 3, abs=0.01)

    def test_active_ratio_half(self, state):
        pool = FFGVotePool()
        state.current_epoch = 1
        report = process_epoch(state, pool, active_indices=range(4))
        assert report.active_stake_ratio == pytest.approx(4 / 9, rel=0.05)

    def test_explicit_epoch_argument(self, state):
        pool = FFGVotePool()
        report = process_epoch(state, pool, active_indices=range(9), epoch=7)
        assert report.epoch == 7
        assert state.current_epoch == 7


class TestAdvanceEpoch:
    def test_advance_epoch(self, state):
        assert advance_epoch(state) == 1
        assert advance_epoch(state) == 2
        assert state.current_epoch == 2


class TestEpochReports:
    """The reports ``process_epoch`` returns carry the per-epoch series."""

    def test_healthy_reports_record_first_finalization(self, state):
        pool = FFGVotePool()
        reports = []
        for epoch in range(1, 4):
            source = GENESIS_CHECKPOINT if epoch == 1 else cp(epoch - 1)
            fill_pool(pool, range(9), source, cp(epoch))
            state.current_epoch = epoch
            reports.append(process_epoch(state, pool, active_indices=range(9)))
        assert [report.epoch for report in reports] == [1, 2, 3]
        finalized = [report.epoch for report in reports if report.justification.finalized_any]
        assert finalized[0] == 2
        assert not any(report.in_leak for report in reports)
        assert all(report.active_stake_ratio == pytest.approx(1.0) for report in reports)
        # Three of the nine equal-stake validators are Byzantine-labelled.
        assert all(report.byzantine_proportion == pytest.approx(1 / 3) for report in reports)

    def test_leak_reports_track_inactive_stake(self, state):
        pool = FFGVotePool()
        for validator in state.validators:
            validator.inactivity_score = 10
        ratios = []
        for epoch in range(6, 9):
            state.current_epoch = epoch
            report = process_epoch(state, pool, active_indices=range(6))
            assert report.in_leak
            assert not report.justification.justified_any
            ratios.append(report.active_stake_ratio)
        # The inactive third leaks stake, so the active share only grows.
        assert ratios[0] > 6 / 9 - 1e-9
        assert ratios == sorted(ratios) and ratios[-1] > ratios[0]
