"""The view node's branch-weight cache must never serve a stale weight.

``Node.branch_weight`` and ``Node.head`` answer from one list of subtree
totals per (store version, weight version), the key the head cache uses
(the store caches the list under the node's weight version).
Every mutation that can move a weight must miss that cache, and the
cached floats must equal the recursive definition of a subtree weight
bit for bit.
"""

import pytest

from repro.core.attestation_batch import AttestationBatch
from repro.network.message import Message
from repro.sim.node import Node
from repro.spec.block import BeaconBlock
from repro.spec.blocktree import UnknownBlockError
from repro.spec.checkpoint import Checkpoint, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.types import GENESIS_ROOT
from repro.spec.validator import make_registry

N = 16


def recursive_subtree_weight(store, root, weights):
    """The reference: a subtree's weight as the recursive sum."""
    total = weights.get(root, 0.0)
    for child in store.tree.children_of(root):
        total += recursive_subtree_weight(store, child, weights)
    return total


def assert_matches_fresh_recompute(node):
    weights = node.store._vote_weights_from_stakes(node._fc_stakes)
    for block in node.store.tree.blocks():
        expected = recursive_subtree_weight(node.store, block.root, weights)
        assert node.branch_weight(block.root) == expected


def make_node():
    config = SpecConfig.minimal()
    registry = make_registry(N, config)
    # Fractional stakes: sums in another order would differ in the last bits.
    for validator in registry:
        validator.stake = 31.0 + 0.1 * validator.index + 1.0 / (validator.index + 3)
    return Node(0, registry, config=config, members=range(N))


def block(slot, parent, tag=""):
    return BeaconBlock.create(
        slot=slot, proposer_index=slot, parent_root=parent, branch_tag=tag
    )


def deliver_block(node, new_block):
    node.receive(Message.block(new_block, sender=0, sent_at=0.0))


def deliver_votes(node, head, validators, epoch=0):
    batch = AttestationBatch(
        slot=1,
        head_root=head,
        source=GENESIS_CHECKPOINT,
        target=Checkpoint(epoch=epoch, root=head),
        validators=validators,
    )
    node.receive(Message.attestation_batch(batch, sender=validators[0], sent_at=0.0))


@pytest.fixture
def forked():
    """A node holding a two-branch fork with votes on both sides."""
    node = make_node()
    left, right = block(1, GENESIS_ROOT, "left"), block(1, GENESIS_ROOT, "right")
    deliver_block(node, left)
    deliver_block(node, right)
    deliver_votes(node, left.root, [0, 1, 2, 3, 4])
    deliver_votes(node, right.root, [5, 6, 7])
    return node, left, right


class TestCacheFollowsEveryMutation:
    def test_on_block(self, forked):
        node, left, _ = forked
        assert_matches_fresh_recompute(node)
        child = block(2, left.root)
        with pytest.raises(UnknownBlockError):
            node.branch_weight(child.root)
        deliver_block(node, child)
        assert node.branch_weight(child.root) == 0.0
        assert_matches_fresh_recompute(node)

    def test_on_attestation_batch(self, forked):
        node, left, right = forked
        before = node.branch_weight(right.root)
        deliver_votes(node, right.root, [8, 9, 10, 11])
        assert node.branch_weight(right.root) > before
        assert_matches_fresh_recompute(node)
        # Votes moving between branches change both sides.
        left_before = node.branch_weight(left.root)
        deliver_votes(node, right.root, [0, 1], epoch=1)
        assert node.branch_weight(left.root) < left_before
        assert_matches_fresh_recompute(node)

    def test_justified_checkpoint_update(self, forked):
        node, left, _ = forked
        node.branch_weight(left.root)
        version = node.store.version
        node.store.update_checkpoints(Checkpoint(epoch=1, root=left.root), GENESIS_CHECKPOINT)
        assert node.store.version == version + 1
        assert_matches_fresh_recompute(node)

    def test_process_epoch_end_weight_refresh(self, forked):
        node, left, _ = forked
        before = node.branch_weight(left.root)
        # A slashed voter stops weighing at the next refresh.
        node.state.validators[0].slashed = True
        node.process_epoch_end(0)
        assert node.branch_weight(left.root) < before
        assert_matches_fresh_recompute(node)

    def test_queries_between_mutations_compute_once(self, forked, monkeypatch):
        node, left, right = forked
        calls = []
        original = node.store._vote_weights_from_stakes
        monkeypatch.setattr(
            node.store,
            "_vote_weights_from_stakes",
            lambda stakes: calls.append(1) or original(stakes),
        )
        for _ in range(3):
            node.branch_weight(left.root)
            node.branch_weight(right.root)
        assert len(calls) == 1
        # The head reads the same tally as the weights at this version.
        assert node.head() == left.root
        assert len(calls) == 1
        deliver_votes(node, right.root, [12])
        node.branch_weight(left.root)
        assert len(calls) == 2
        # And in the other order: a head miss tallies, the weights reuse it.
        deliver_votes(node, right.root, [13])
        node.head()
        node.branch_weight(right.root)
        assert len(calls) == 3

    def test_unknown_root_raises(self, forked):
        node, _, _ = forked
        with pytest.raises(UnknownBlockError):
            node.branch_weight(block(5, GENESIS_ROOT, "never-delivered").root)


class TestSplitClone:
    def test_both_sides_keep_their_own_weights_at_equal_versions(self, forked):
        parent, left, right = forked
        parent.branch_weight(left.root)  # fill the parent's cache
        child = parent.split_clone(tuple(range(8, N)), 8)
        parent.restrict_members(tuple(range(8)))
        assert child.store.version == parent.store.version

        parent_block, child_block = block(2, left.root), block(2, right.root)
        deliver_block(parent, parent_block)
        deliver_block(child, child_block)
        deliver_votes(parent, parent_block.root, [8, 9, 10, 11, 12])
        deliver_votes(child, child_block.root, [8, 9, 10, 11, 12])
        assert parent.store.version == child.store.version

        assert parent.branch_weight(left.root) > child.branch_weight(left.root)
        assert child.branch_weight(right.root) > parent.branch_weight(right.root)
        assert_matches_fresh_recompute(parent)
        assert_matches_fresh_recompute(child)
        with pytest.raises(UnknownBlockError):
            parent.branch_weight(child_block.root)
        with pytest.raises(UnknownBlockError):
            child.branch_weight(parent_block.root)
