"""Tests for repro.spec.committees."""

import hashlib

import pytest

from repro.spec.committees import (
    DutyScheduler,
    EpochDuties,
    _deterministic_shuffle,
    _seed_int,
)
from repro.spec.config import SpecConfig
from repro.spec.validator import make_registry


@pytest.fixture
def scheduler():
    return DutyScheduler(config=SpecConfig.minimal(), seed="test-seed")


@pytest.fixture
def registry():
    return make_registry(12, SpecConfig.minimal())


class TestDutyScheduler:
    def test_every_active_validator_attests_once(self, scheduler, registry):
        duties = scheduler.duties_for_epoch(0, registry)
        assigned = [i for committee in duties.attestation_committees for i in committee]
        assert sorted(assigned) == [v.index for v in registry]

    def test_one_proposer_per_slot(self, scheduler, registry):
        duties = scheduler.duties_for_epoch(0, registry)
        assert len(duties.proposers) == SpecConfig.minimal().slots_per_epoch
        assert all(p in {v.index for v in registry} for p in duties.proposers)

    def test_deterministic_given_seed(self, registry):
        a = DutyScheduler(SpecConfig.minimal(), seed="s").duties_for_epoch(3, registry)
        b = DutyScheduler(SpecConfig.minimal(), seed="s").duties_for_epoch(3, registry)
        assert a.proposers == b.proposers
        assert a.attestation_committees == b.attestation_committees

    def test_different_seeds_differ(self, registry):
        a = DutyScheduler(SpecConfig.minimal(), seed="s1").duties_for_epoch(0, registry)
        b = DutyScheduler(SpecConfig.minimal(), seed="s2").duties_for_epoch(0, registry)
        assert a.proposers != b.proposers or a.attestation_committees != b.attestation_committees

    def test_different_epochs_reshuffle(self, scheduler, registry):
        a = scheduler.duties_for_epoch(0, registry)
        b = scheduler.duties_for_epoch(1, registry)
        assert a.proposers != b.proposers or a.attestation_committees != b.attestation_committees

    def test_exited_validators_excluded(self, scheduler, registry):
        registry[0].exit(1)
        duties = scheduler.duties_for_epoch(5, registry)
        assigned = {i for committee in duties.attestation_committees for i in committee}
        assert 0 not in assigned
        assert 0 not in set(duties.proposers)

    def test_no_active_validators_raises(self, scheduler, registry):
        for validator in registry:
            validator.exit(0)
        with pytest.raises(ValueError):
            scheduler.duties_for_epoch(3, registry)

    def test_cache_and_clear(self, scheduler, registry):
        first = scheduler.duties_for_epoch(0, registry)
        assert scheduler.duties_for_epoch(0, registry) is first
        scheduler.clear_cache()
        assert scheduler.duties_for_epoch(0, registry) is not first


class TestEpochDuties:
    def test_proposer_for_absolute_slot(self, scheduler, registry):
        cfg = SpecConfig.minimal()
        duties = scheduler.duties_for_epoch(2, registry)
        slot = cfg.start_slot_of_epoch(2) + 1
        assert duties.proposer_for_slot(slot, cfg.slots_per_epoch) == duties.proposers[1]

    def test_committee_for_absolute_slot(self, scheduler, registry):
        cfg = SpecConfig.minimal()
        duties = scheduler.duties_for_epoch(1, registry)
        slot = cfg.start_slot_of_epoch(1) + 2
        assert duties.committee_for_slot(slot, cfg.slots_per_epoch) == duties.attestation_committees[2]

    def test_attestation_slot_of(self, scheduler, registry):
        cfg = SpecConfig.minimal()
        duties = scheduler.duties_for_epoch(0, registry)
        for validator in registry:
            offset = duties.attestation_slot_of(validator.index, cfg.slots_per_epoch)
            assert offset is not None
            assert validator.index in duties.attestation_committees[offset]

    def test_attestation_slot_of_unknown_validator(self, scheduler, registry):
        duties = scheduler.duties_for_epoch(0, registry)
        assert duties.attestation_slot_of(999, SpecConfig.minimal().slots_per_epoch) is None


class TestBouncingWindow:
    def test_proposer_in_first_slots_detects_byzantine_proposer(self, registry):
        scheduler = DutyScheduler(SpecConfig.minimal(), seed="window")
        duties = scheduler.duties_for_epoch(0, registry)
        first_proposer = duties.proposers[0]
        assert scheduler.proposer_in_first_slots(0, registry, [first_proposer], window=1)

    def test_proposer_in_first_slots_false_when_absent(self, registry):
        scheduler = DutyScheduler(SpecConfig.minimal(), seed="window")
        duties = scheduler.duties_for_epoch(0, registry)
        not_first = [i for i in range(12) if i not in duties.proposers[:2]]
        assert not scheduler.proposer_in_first_slots(0, registry, not_first[:1], window=2) or (
            not_first[0] in duties.proposers[:2]
        )


# ----------------------------------------------------------------------
# The shuffle against its sort-by-hash definition
# ----------------------------------------------------------------------
def reference_shuffle(items, seed_value):
    """The definition: a stable sort by each item's leading hash word."""

    def key(item):
        digest = hashlib.sha256(f"{seed_value}|{item}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    return sorted(items, key=key)


def reference_duties(scheduler, epoch, validators):
    """Duties built from the reference shuffle with the round-robin loop."""
    active = [v.index for v in validators if v.is_active(epoch) and v.stake > 0]
    slots = scheduler.config.slots_per_epoch
    shuffled = reference_shuffle(active, _seed_int(scheduler.seed, epoch, "shuffle"))
    proposer_seed = _seed_int(scheduler.seed, epoch, "proposer")
    proposers = [
        shuffled[_seed_int(str(proposer_seed), offset, "slot") % len(shuffled)]
        for offset in range(slots)
    ]
    committees = [[] for _ in range(slots)]
    for position, validator_index in enumerate(shuffled):
        committees[position % slots].append(validator_index)
    return EpochDuties(
        epoch=epoch,
        proposers=tuple(proposers),
        attestation_committees=tuple(tuple(c) for c in committees),
    )


class TestShuffleMatchesReference:
    @pytest.mark.parametrize("seed_value", [0, 1, 7, 2**63 - 1, 2**64 - 1, 123456789012345])
    def test_contiguous_indices(self, seed_value):
        items = list(range(500))
        assert _deterministic_shuffle(items, seed_value) == reference_shuffle(items, seed_value)

    @pytest.mark.parametrize("seed_value", [3, 99, 2**40 + 5])
    def test_non_contiguous_indices(self, seed_value):
        # Gaps, a large index and a descending input order.
        items = [9999, 4, 17, 18, 250, 3, 1 << 20, 42] + list(range(1000, 1200, 7))
        assert _deterministic_shuffle(items, seed_value) == reference_shuffle(items, seed_value)

    def test_empty_and_single(self):
        assert _deterministic_shuffle([], 5) == []
        assert _deterministic_shuffle([12], 5) == [12]

    def test_ten_thousand_validators(self):
        items = list(range(10_000))
        seed_value = _seed_int("balancing-10k", 0, "shuffle")
        assert _deterministic_shuffle(items, seed_value) == reference_shuffle(items, seed_value)


class TestDutiesMatchReference:
    @pytest.mark.parametrize("seed", ["test-seed", "s1", "7/balancing-0"])
    @pytest.mark.parametrize("epoch", [0, 3])
    def test_minimal_registry(self, registry, seed, epoch):
        scheduler = DutyScheduler(SpecConfig.minimal(), seed=seed)
        assert scheduler.duties_for_epoch(epoch, registry) == reference_duties(
            scheduler, epoch, registry
        )

    def test_with_exited_validators(self, registry):
        registry[0].exit(1)
        registry[5].exit(2)
        scheduler = DutyScheduler(SpecConfig.minimal(), seed="exits")
        assert scheduler.duties_for_epoch(4, registry) == reference_duties(
            scheduler, 4, registry
        )

    def test_ten_thousand_validators(self):
        registry = make_registry(10_000, SpecConfig.minimal(), byzantine_fraction=0.2)
        scheduler = DutyScheduler(SpecConfig.minimal(), seed="1/balancing-0")
        assert scheduler.duties_for_epoch(0, registry) == reference_duties(
            scheduler, 0, registry
        )
