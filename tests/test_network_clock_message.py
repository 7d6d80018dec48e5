"""Tests for repro.network.clock and repro.network.message."""

import numpy as np
import pytest

from repro.core.attestation_batch import AttestationBatch
from repro.network.clock import SlotClock
from repro.network.message import Delivery, Message, MessageKind
from repro.spec.block import BeaconBlock
from repro.spec.checkpoint import Checkpoint, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.types import GENESIS_ROOT, Root


@pytest.fixture
def clock():
    return SlotClock(config=SpecConfig.mainnet())


class TestSlotClock:
    def test_slot_at_genesis(self, clock):
        assert clock.slot_at(0.0) == 0
        assert clock.slot_at(11.9) == 0
        assert clock.slot_at(12.0) == 1

    def test_epoch_at(self, clock):
        assert clock.epoch_at(0.0) == 0
        assert clock.epoch_at(32 * 12.0) == 1

    def test_start_of_slot_and_epoch(self, clock):
        assert clock.start_of_slot(3) == pytest.approx(36.0)
        assert clock.start_of_epoch(2) == pytest.approx(2 * 32 * 12.0)

    def test_attestation_deadline_inside_slot(self, clock):
        deadline = clock.attestation_deadline(5)
        assert clock.start_of_slot(5) < deadline < clock.start_of_slot(6)

    def test_is_epoch_start(self, clock):
        assert clock.is_epoch_start(0)
        assert clock.is_epoch_start(32)
        assert not clock.is_epoch_start(33)

    def test_time_before_genesis_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.slot_at(-1.0)

    def test_negative_slot_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.start_of_slot(-1)

    def test_genesis_offset(self):
        clock = SlotClock(config=SpecConfig.mainnet(), genesis_time=100.0)
        assert clock.slot_at(100.0) == 0
        assert clock.start_of_slot(1) == pytest.approx(112.0)


class TestMessage:
    def _attestation(self) -> AttestationBatch:
        return AttestationBatch(
            slot=1,
            head_root=Root.from_label("h"),
            source=GENESIS_CHECKPOINT,
            target=Checkpoint(epoch=0, root=GENESIS_ROOT),
            validators=np.array([1]),
        )

    def test_block_wrapper(self):
        block = BeaconBlock.genesis()
        message = Message.block(block, sender=0, sent_at=1.0)
        assert message.kind is MessageKind.BLOCK
        assert message.payload is block
        assert message.sender == 0

    def test_attestation_wrapper(self):
        batch = self._attestation()
        message = Message.attestation_batch(batch, sender=1, sent_at=2.0)
        assert message.kind is MessageKind.ATTESTATION_BATCH
        assert message.payload is batch

    def test_wire_carries_blocks_and_vote_batches_only(self):
        # Slashing evidence travels inside blocks, never as its own message.
        assert set(MessageKind) == {MessageKind.BLOCK, MessageKind.ATTESTATION_BATCH}

    def test_message_ids_unique(self):
        a = Message.block(BeaconBlock.genesis(), 0, 0.0)
        b = Message.block(BeaconBlock.genesis(), 0, 0.0)
        assert a.message_id != b.message_id

    def test_delivery_ordering(self):
        early = Delivery(Message.block(BeaconBlock.genesis(), 0, 0.0), recipient=1, deliver_at=1.0)
        late = Delivery(Message.block(BeaconBlock.genesis(), 0, 0.0), recipient=1, deliver_at=2.0)
        assert early < late
        assert sorted([late, early])[0] is early
