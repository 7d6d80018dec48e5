"""Integration tests: attack mechanisms demonstrated on the slot-level simulator.

These runs use the scaled-down ``minimal`` configuration so that leak
dynamics unfold within a handful of epochs, while exercising the exact
protocol code paths (fork choice, FFG, inactivity penalties, slashing
detection, partitioned transport, adversarial withholding).
"""

import pytest

from repro.sim.scenarios import (
    build_honest_simulation,
    build_offline_fraction_simulation,
    build_partitioned_simulation,
)
from repro.spec.config import SpecConfig


def validator_states(result):
    """Every validator's final state: the state of the view it belongs to."""
    return {
        index: result.view_states[name]
        for name, members in result.view_groups.items()
        for index in members
    }


class TestBaselineLiveness:
    def test_finalized_chain_grows_every_epoch_after_warmup(self):
        engine = build_honest_simulation(n_validators=12)
        result = engine.run(8)
        # After the two-epoch FFG pipeline warm-up, finality tracks the head.
        assert result.max_finalized_epoch() >= 8 - 2
        assert not result.safety_violated()

    def test_availability_chain_grows_despite_partition(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        engine.run(5)
        for index in engine.honest_indices():
            node = engine.nodes[index]
            # The candidate chain keeps growing on both sides (Availability)
            # even though finalization is stuck.
            assert node.store.tree.highest_slot() >= 4 * 4  # 4 epochs of 4 slots


class TestLeakMechanism:
    def test_leak_starts_after_four_epochs_without_finality(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        result = engine.run(8)
        leak_epochs = result.leak_epochs()
        assert leak_epochs
        assert min(leak_epochs) >= 4

    def test_inactive_side_leaks_stake_on_the_other_sides_chain(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        result = engine.run(10)
        side_1 = engine.honest_indices()[0]
        state = engine.nodes[side_1].state
        members_1 = engine.schedule.members_of("branch-1")
        stakes_own = [v.stake for v in state.validators if v.index in members_1]
        stakes_other = [v.stake for v in state.validators if v.index not in members_1]
        assert min(stakes_own) > max(stakes_other)

    def test_leak_ends_once_finality_returns(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5, gst_epoch=6)
        result = engine.run(12)
        assert result.max_finalized_epoch() > 0
        final_snapshot = result.snapshots[-1]
        assert not final_snapshot.any_in_leak


class TestConflictingFinalizationWithScaledLeak:
    def test_long_partition_finalizes_two_branches(self):
        # Aggressively scaled-down leak so both sides regain a supermajority
        # within the test horizon: quotient 2**7 drains inactive validators
        # in a few epochs.
        config = SpecConfig.minimal().with_overrides(inactivity_penalty_quotient=2 ** 7)
        engine = build_partitioned_simulation(n_validators=12, p0=0.5, config=config)
        result = engine.run(14)
        assert result.safety_violated()
        assert result.first_safety_violation_epoch() is not None

    def test_byzantine_double_voters_accelerate_conflicting_finalization(self):
        config = SpecConfig.minimal().with_overrides(inactivity_penalty_quotient=2 ** 7)
        honest_engine = build_partitioned_simulation(n_validators=12, p0=0.5, config=config)
        honest_result = honest_engine.run(14)
        attacked_engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="double-voting",
            config=config,
        )
        attacked_result = attacked_engine.run(14)
        assert attacked_result.safety_violated()
        honest_epoch = honest_result.first_safety_violation_epoch()
        attacked_epoch = attacked_result.first_safety_violation_epoch()
        assert attacked_epoch is not None and honest_epoch is not None
        assert attacked_epoch <= honest_epoch


class TestSlashingAfterHeal:
    def test_evidence_included_after_gst_and_attackers_ejected(self):
        engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="double-voting",
            gst_epoch=3,
        )
        result = engine.run(9)
        assert result.slashed_indices == set(result.byzantine_indices)
        # Slashed validators are ejected from the active set on honest views.
        state = validator_states(result)[result.honest_indices[0]]
        for index in result.byzantine_indices:
            assert state.validators[index].slashed
            assert not state.validators[index].is_active(result.epochs_run + 1)
            assert state.validators[index].stake < 32.0


class TestAlternatingAttack:
    def test_semi_active_byzantine_never_slashed(self):
        # The paper's scenario: during the leak neither branch can justify on
        # its own (honest-active + Byzantine < 2/3 on both sides), so the
        # alternating votes always share the same (genesis) source and are
        # neither double votes nor surround votes.
        engine = build_partitioned_simulation(
            n_validators=16,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="alternating",
            gst_epoch=4,
        )
        result = engine.run(10)
        assert not result.slashed_indices

    def test_byzantine_proportion_grows_during_leak(self):
        config = SpecConfig.minimal().with_overrides(inactivity_penalty_quotient=2 ** 8)
        engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="alternating",
            config=config,
        )
        result = engine.run(12)
        series = result.byzantine_proportion_series()
        assert series[-1] > series[0]
