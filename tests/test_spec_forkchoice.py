"""Tests for repro.spec.forkchoice (LMD-GHOST)."""

import pytest

from repro.spec.attestation import Attestation
from repro.spec.block import BeaconBlock
from repro.spec.checkpoint import Checkpoint, FFGVote, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.forkchoice import Store, branch_heads, fork_exists
from repro.spec.state import BeaconState
from repro.spec.types import GENESIS_ROOT, Root
from repro.spec.validator import make_registry


@pytest.fixture
def config():
    return SpecConfig.mainnet()


@pytest.fixture
def state(config):
    return BeaconState.genesis(make_registry(10, config), config)


@pytest.fixture
def store(config):
    return Store(config=config)


def make_attestation(validator: int, head: Root, epoch: int = 0, slot: int = 1) -> Attestation:
    return Attestation(
        validator_index=validator,
        slot=slot,
        head_root=head,
        ffg=FFGVote(
            source=GENESIS_CHECKPOINT,
            target=Checkpoint(epoch=epoch, root=head),
        ),
    )


def add_fork(store: Store):
    """Create two competing blocks at slot 1 and return (block_a, block_b)."""
    a = BeaconBlock.create(slot=1, proposer_index=0, parent_root=GENESIS_ROOT, branch_tag="a")
    b = BeaconBlock.create(slot=1, proposer_index=1, parent_root=GENESIS_ROOT, branch_tag="b")
    store.on_block(a)
    store.on_block(b)
    return a, b


class TestStoreIngestion:
    def test_on_block_inserts(self, store):
        block = BeaconBlock.create(slot=1, proposer_index=0, parent_root=GENESIS_ROOT)
        assert store.on_block(block)
        assert block.root in store.tree

    def test_on_attestation_records_latest_message(self, store):
        block = BeaconBlock.create(slot=1, proposer_index=0, parent_root=GENESIS_ROOT)
        store.on_block(block)
        store.on_attestation(make_attestation(3, block.root))
        assert store.latest_messages[3].root == block.root

    def test_attestation_for_unknown_block_is_dropped(self, store):
        store.on_attestation(make_attestation(3, Root.from_label("unknown")))
        assert 3 not in store.latest_messages

    def test_newer_attestation_overrides(self, store):
        a, b = add_fork(store)
        store.on_attestation(make_attestation(3, a.root, epoch=0))
        store.on_attestation(make_attestation(3, b.root, epoch=1))
        assert store.latest_messages[3].root == b.root

    def test_older_attestation_does_not_override(self, store):
        a, b = add_fork(store)
        store.on_attestation(make_attestation(3, b.root, epoch=2))
        old = make_attestation(3, a.root, epoch=1)
        store.on_attestation(old)
        assert store.latest_messages[3].root == b.root

    def test_update_checkpoints_keeps_newest(self, store):
        newer = Checkpoint(epoch=3, root=Root.from_label("x"))
        store.update_checkpoints(newer, GENESIS_CHECKPOINT)
        assert store.justified_checkpoint == newer
        store.update_checkpoints(Checkpoint(epoch=1, root=Root.from_label("y")), GENESIS_CHECKPOINT)
        assert store.justified_checkpoint == newer


class TestGetHead:
    def test_head_is_genesis_when_empty(self, store, state):
        assert store.get_head(state) == GENESIS_ROOT

    def test_head_follows_single_chain(self, store, state):
        parent = GENESIS_ROOT
        last = None
        for slot in range(1, 4):
            block = BeaconBlock.create(slot=slot, proposer_index=0, parent_root=parent)
            store.on_block(block)
            parent = block.root
            last = block
        assert store.get_head(state) == last.root

    def test_head_follows_majority_votes(self, store, state):
        a, b = add_fork(store)
        for validator in range(6):
            store.on_attestation(make_attestation(validator, a.root))
        for validator in range(6, 10):
            store.on_attestation(make_attestation(validator, b.root))
        assert store.get_head(state) == a.root

    def test_head_flips_when_votes_move(self, store, state):
        a, b = add_fork(store)
        for validator in range(6):
            store.on_attestation(make_attestation(validator, a.root, epoch=0))
        for validator in range(10):
            store.on_attestation(make_attestation(validator, b.root, epoch=1))
        assert store.get_head(state) == b.root

    def test_votes_weighted_by_stake(self, store, state):
        a, b = add_fork(store)
        # One whale on branch b outweighs three small validators on a.
        state.validators[9].stake = 320.0
        for validator in range(3):
            store.on_attestation(make_attestation(validator, a.root))
        store.on_attestation(make_attestation(9, b.root))
        assert store.get_head(state) == b.root

    def test_exited_validator_votes_ignored(self, store, state):
        a, b = add_fork(store)
        for validator in range(3):
            store.on_attestation(make_attestation(validator, a.root))
        store.on_attestation(make_attestation(9, b.root))
        state.validators[9].stake = 320.0
        state.validators[9].exit(0)
        assert store.get_head(state) == a.root

    def test_slashed_validator_votes_ignored(self, store, state):
        a, b = add_fork(store)
        for validator in range(3):
            store.on_attestation(make_attestation(validator, a.root))
        state.validators[9].stake = 320.0
        state.validators[9].slashed = True
        store.on_attestation(make_attestation(9, b.root))
        assert store.get_head(state) == a.root

    def test_ghost_descends_into_heaviest_subtree(self, store, state):
        a, b = add_fork(store)
        # Extend branch a with a child; votes on the child should pull the head there.
        child = BeaconBlock.create(slot=2, proposer_index=2, parent_root=a.root)
        store.on_block(child)
        for validator in range(4):
            store.on_attestation(make_attestation(validator, child.root))
        for validator in range(4, 7):
            store.on_attestation(make_attestation(validator, b.root))
        assert store.get_head(state) == child.root

    def test_candidate_chain_starts_at_genesis(self, store, state):
        a, _ = add_fork(store)
        for validator in range(5):
            store.on_attestation(make_attestation(validator, a.root))
        chain = store.candidate_chain(state)
        assert chain[0].is_genesis()
        assert chain[-1].root == store.get_head(state)


class TestSubtreeWeights:
    @staticmethod
    def recursive(store, root, weights):
        total = weights.get(root, 0.0)
        for child in store.tree.children_of(root):
            total += TestSubtreeWeights.recursive(store, child, weights)
        return total

    def test_equals_recursive_sum_bit_for_bit(self, store):
        a, b = add_fork(store)
        blocks = [a, b]
        for slot in range(2, 6):
            for parent in blocks[-2:]:
                child = BeaconBlock.create(
                    slot=slot, proposer_index=slot, parent_root=parent.root, branch_tag=str(slot)
                )
                store.on_block(child)
                blocks.append(child)
        weights = {blk.root: 0.1 * (i + 1) + 1.0 / (i + 3) for i, blk in enumerate(blocks)}
        roots = store.tree.roots
        totals = store.tree.subtree_totals([weights.get(root, 0.0) for root in roots])
        assert set(roots) == {blk.root for blk in store.tree.blocks()}
        for root, total in zip(roots, totals):
            assert total == self.recursive(store, root, weights)


class TestCheckpointHelpers:
    def test_checkpoint_for_epoch_maps_to_boundary_block(self, store, config, state):
        # Build a chain across one epoch boundary.
        parent = GENESIS_ROOT
        boundary_block = None
        for slot in range(1, config.slots_per_epoch + 2):
            block = BeaconBlock.create(slot=slot, proposer_index=0, parent_root=parent)
            store.on_block(block)
            parent = block.root
            if slot == config.slots_per_epoch:
                boundary_block = block
        head = store.get_head(state)
        checkpoint = store.checkpoint_for_epoch(1, head)
        assert checkpoint.epoch == 1
        assert checkpoint.root == boundary_block.root

    def test_checkpoint_for_epoch_zero_is_genesis(self, store, state):
        assert store.checkpoint_for_epoch(0, GENESIS_ROOT).root == GENESIS_ROOT


class TestForkHelpers:
    def test_fork_exists(self, store):
        assert not fork_exists(store)
        add_fork(store)
        assert fork_exists(store)

    def test_branch_heads(self, store):
        a, b = add_fork(store)
        assert set(branch_heads(store)) == {a.root, b.root}
