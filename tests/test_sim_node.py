"""Tests for repro.sim.node."""

import pytest

from repro.network.message import Message
from repro.sim.node import Node
from repro.spec.attestation import attestations_from_batch
from repro.spec.block import BeaconBlock
from repro.spec.config import SpecConfig
from repro.spec.types import GENESIS_ROOT
from repro.spec.validator import make_registry


@pytest.fixture
def config():
    return SpecConfig.minimal()


@pytest.fixture
def node(config):
    return Node(validator_index=0, registry=make_registry(8, config), config=config)


def block_at(slot: int, parent=GENESIS_ROOT, proposer: int = 1, tag: str = "") -> BeaconBlock:
    return BeaconBlock.create(slot=slot, proposer_index=proposer, parent_root=parent, branch_tag=tag)


def vote(node: Node, slot: int, validator: int, head=None) -> Message:
    """``validator``'s vote from ``node``'s view, as a one-row batch message."""
    batch = node.attestation_batch_for(slot=slot, validators=[validator], head=head)
    return Message.attestation_batch(batch, sender=validator, sent_at=float(slot))


class TestMessageIngestion:
    def test_receive_block(self, node):
        block = block_at(1)
        node.receive(Message.block(block, sender=1, sent_at=0.0))
        assert block.root in node.store.tree

    def test_out_of_order_blocks_are_queued_then_applied(self, node):
        first = block_at(1)
        second = block_at(2, parent=first.root)
        node.receive(Message.block(second, sender=1, sent_at=0.0))
        assert second.root not in node.store.tree
        node.receive(Message.block(first, sender=1, sent_at=0.0))
        assert first.root in node.store.tree
        assert second.root in node.store.tree

    def test_receive_attestation_updates_store_and_pool(self, node):
        block = block_at(1)
        node.receive(Message.block(block, sender=1, sent_at=0.0))
        message = vote(node, slot=1, validator=0, head=block.root)
        node.receive(message)
        assert node.store.latest_messages[0].root == block.root
        assert node.attestations_by_epoch[message.payload.target_epoch]

    def test_attestation_for_unknown_block_queued(self, node):
        block = block_at(1)
        other = Node(validator_index=1, registry=make_registry(8, SpecConfig.minimal()), config=node.config)
        other.receive(Message.block(block, sender=1, sent_at=0.0))
        node.receive(vote(other, slot=1, validator=1, head=block.root))
        assert node.pending.attestations
        node.receive(Message.block(block, sender=1, sent_at=2.0))
        assert not node.pending.attestations
        assert node.store.latest_messages[1].root == block.root

    def test_block_attestations_count_as_seen(self, node):
        parent = block_at(1)
        node.receive(Message.block(parent, sender=1, sent_at=0.0))
        (attestation,) = attestations_from_batch(vote(node, 1, 0, head=parent.root).payload)
        child = BeaconBlock.create(
            slot=2, proposer_index=2, parent_root=parent.root, attestations=(attestation,)
        )
        node.receive(Message.block(child, sender=2, sent_at=1.0))
        assert node.attestations_by_epoch[attestation.target_epoch]

    def test_slashing_evidence_in_block_recorded(self, node):
        block = BeaconBlock.create(
            slot=1, proposer_index=1, parent_root=GENESIS_ROOT, slashing_evidence=(5,)
        )
        node.receive(Message.block(block, sender=1, sent_at=0.0))
        epoch = node.config.epoch_of_slot(1)
        assert 5 in node.slashings_observed[epoch]


class TestChainViews:
    def test_head_follows_blocks(self, node):
        first = block_at(1)
        second = block_at(2, parent=first.root)
        node.receive(Message.block(first, sender=1, sent_at=0.0))
        node.receive(Message.block(second, sender=1, sent_at=1.0))
        assert node.head() == second.root

    def test_branch_heads_on_fork(self, node):
        a = block_at(1, tag="a")
        b = block_at(1, tag="b", proposer=2)
        node.receive(Message.block(a, sender=1, sent_at=0.0))
        node.receive(Message.block(b, sender=2, sent_at=0.0))
        assert set(node.branch_heads()) == {a.root, b.root}

    def test_attestation_for_uses_own_head_and_checkpoints(self, node):
        block = block_at(1)
        node.receive(Message.block(block, sender=1, sent_at=0.0))
        (attestation,) = attestations_from_batch(
            node.attestation_batch_for(slot=1, validators=[0])
        )
        assert attestation.validator_index == 0
        assert attestation.head_root == block.root
        assert attestation.source == node.state.current_justified_checkpoint

    def test_build_block_includes_known_attestations_and_evidence(self, node):
        block = block_at(1)
        node.receive(Message.block(block, sender=1, sent_at=0.0))
        message = vote(node, slot=1, validator=3, head=block.root)
        node.receive(message)
        (attestation,) = attestations_from_batch(message.payload)
        built = node.build_block(slot=2)
        assert attestation in built.attestations
        assert built.parent_root == block.root
        # The included attestations are not re-included in the next block.
        assert node.attestations_for_inclusion == []


class TestPendingDrainOrdering:
    """Blocks/attestations arriving before their ancestors, across hops."""

    def test_three_block_chain_delivered_in_reverse(self, node):
        first = block_at(1)
        second = block_at(2, parent=first.root)
        third = block_at(3, parent=second.root)
        node.receive(Message.block(third, sender=1, sent_at=0.0))
        node.receive(Message.block(second, sender=1, sent_at=0.0))
        assert len(node.pending.blocks) == 2
        assert second.root not in node.store.tree
        # The missing root arrives last: one drain applies both hops.
        node.receive(Message.block(first, sender=1, sent_at=0.0))
        assert node.pending.blocks == []
        for block in (first, second, third):
            assert block.root in node.store.tree

    def test_attestation_pending_across_two_block_hops(self, node):
        first = block_at(1)
        second = block_at(2, parent=first.root)
        other = Node(
            validator_index=1, registry=make_registry(8, node.config), config=node.config
        )
        other.receive(Message.block(first, sender=1, sent_at=0.0))
        other.receive(Message.block(second, sender=1, sent_at=0.0))
        node.receive(vote(other, slot=2, validator=1, head=second.root))
        node.receive(Message.block(second, sender=1, sent_at=0.0))
        assert node.pending.attestations and node.pending.blocks
        node.receive(Message.block(first, sender=1, sent_at=0.0))
        # The drain applies first -> second -> the attestation, in one call.
        assert node.pending.attestations == [] and node.pending.blocks == []
        assert node.store.latest_messages[1].root == second.root

    def test_batch_pending_until_head_arrives(self, node):
        block = block_at(1)
        other = Node(
            validator_index=1, registry=make_registry(8, node.config), config=node.config
        )
        other.receive(Message.block(block, sender=1, sent_at=0.0))
        batch = other.attestation_batch_for(slot=1, validators=[2, 3, 4])
        node.receive(Message.attestation_batch(batch, sender=2, sent_at=0.0))
        assert node.pending.attestations == [batch]
        node.receive(Message.block(block, sender=1, sent_at=1.0))
        assert node.pending.attestations == []
        for validator in (2, 3, 4):
            assert node.store.latest_messages[validator].root == block.root
        assert node.active_indices_for_epoch(0) == {2, 3, 4}

    def test_block_carried_attestation_with_unknown_head_pends(self, node):
        # A drained block may carry attestations voting for a block this
        # node still lacks; they must queue instead of half-ingesting.
        known = block_at(1)
        foreign = block_at(2, parent=known.root, tag="foreign")
        voter = Node(
            validator_index=5, registry=make_registry(8, node.config), config=node.config
        )
        voter.receive(Message.block(known, sender=1, sent_at=0.0))
        voter.receive(Message.block(foreign, sender=3, sent_at=0.0))
        (attestation,) = attestations_from_batch(
            voter.attestation_batch_for(slot=2, validators=[5], head=foreign.root)
        )
        carrier = BeaconBlock.create(
            slot=3,
            proposer_index=2,
            parent_root=known.root,
            attestations=(attestation,),
        )
        node.receive(Message.block(carrier, sender=2, sent_at=0.0))  # parent unknown
        assert node.pending.blocks == [carrier]
        node.receive(Message.block(known, sender=1, sent_at=0.0))  # drains carrier
        assert node.pending.blocks == []
        # The carried attestation's head is still unknown: it pends.
        (pending,) = node.pending.attestations
        assert attestations_from_batch(pending) == [attestation]
        assert 5 not in node.store.latest_messages
        node.receive(Message.block(foreign, sender=3, sent_at=1.0))
        assert node.pending.attestations == []
        assert node.store.latest_messages[5].root == foreign.root

    def test_interleaved_batches_and_blocks_drain_in_dependency_order(self, node):
        first = block_at(1)
        second = block_at(2, parent=first.root)
        other = Node(
            validator_index=1, registry=make_registry(8, node.config), config=node.config
        )
        other.receive(Message.block(first, sender=1, sent_at=0.0))
        batch_on_first = other.attestation_batch_for(slot=1, validators=[2, 3])
        other.receive(Message.block(second, sender=1, sent_at=0.0))
        batch_on_second = other.attestation_batch_for(slot=2, validators=[4, 5])
        node.receive(Message.attestation_batch(batch_on_second, sender=4, sent_at=0.0))
        node.receive(Message.block(second, sender=1, sent_at=0.0))
        node.receive(Message.attestation_batch(batch_on_first, sender=2, sent_at=0.0))
        assert len(node.pending.attestations) == 2 and len(node.pending.blocks) == 1
        node.receive(Message.block(first, sender=1, sent_at=0.0))
        assert node.pending.attestations == [] and node.pending.blocks == []
        assert node.store.latest_messages[2].root == first.root
        assert node.store.latest_messages[4].root == second.root


class TestEpochProcessing:
    def test_active_indices_require_correct_target(self, node, config):
        block = block_at(1)
        node.receive(Message.block(block, sender=1, sent_at=0.0))
        node.receive(vote(node, slot=1, validator=0, head=block.root))
        active = node.active_indices_for_epoch(0)
        assert 0 in active

    def test_process_epoch_end_progresses_state(self, node, config):
        # Build a block and have everyone attest correctly for epoch 0.
        block = block_at(1)
        node.receive(Message.block(block, sender=1, sent_at=0.0))
        for validator in range(8):
            node.receive(vote(node, slot=1, validator=validator, head=block.root))
        report = node.process_epoch_end(0)
        assert report.epoch == 0
        assert report.rewards.epoch == 0
        assert not report.in_leak
        assert node.state.current_epoch == 0

    def test_finalized_accessors(self, node):
        assert node.finalized_epochs() == {0}
        assert 0 in node.finalized_checkpoints()
