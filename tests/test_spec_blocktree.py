"""Tests for repro.spec.blocktree."""

import random

import pytest

from repro.spec.block import BeaconBlock
from repro.spec.blocktree import BlockTree, UnknownBlockError
from repro.spec.types import GENESIS_ROOT, Root


def chain_of(tree: BlockTree, length: int, tag: str = "") -> list:
    """Append a linear chain of ``length`` blocks to genesis; return the blocks."""
    blocks = []
    parent = GENESIS_ROOT
    for i in range(1, length + 1):
        block = BeaconBlock.create(slot=i, proposer_index=i % 4, parent_root=parent, branch_tag=tag)
        tree.add_block(block)
        blocks.append(block)
        parent = block.root
    return blocks


class TestBlockTreeBasics:
    def test_new_tree_contains_genesis(self):
        tree = BlockTree()
        assert len(tree) == 1
        assert GENESIS_ROOT in tree
        assert tree.get(GENESIS_ROOT).is_genesis()

    def test_requires_genesis_root(self):
        non_genesis = BeaconBlock.create(slot=1, proposer_index=0, parent_root=GENESIS_ROOT)
        with pytest.raises(ValueError):
            BlockTree(genesis=non_genesis)

    def test_add_block_and_get(self):
        tree = BlockTree()
        block = BeaconBlock.create(slot=1, proposer_index=0, parent_root=GENESIS_ROOT)
        assert tree.add_block(block)
        assert tree.get(block.root) == block

    def test_add_duplicate_returns_false(self):
        tree = BlockTree()
        block = BeaconBlock.create(slot=1, proposer_index=0, parent_root=GENESIS_ROOT)
        assert tree.add_block(block)
        assert not tree.add_block(block)
        assert len(tree) == 2

    def test_add_block_with_unknown_parent_raises(self):
        tree = BlockTree()
        orphan = BeaconBlock.create(
            slot=2, proposer_index=0, parent_root=Root.from_label("missing")
        )
        with pytest.raises(UnknownBlockError):
            tree.add_block(orphan)

    def test_add_block_with_nonincreasing_slot_raises(self):
        tree = BlockTree()
        first = BeaconBlock.create(slot=5, proposer_index=0, parent_root=GENESIS_ROOT)
        tree.add_block(first)
        bad = BeaconBlock.create(slot=5, proposer_index=1, parent_root=first.root)
        with pytest.raises(ValueError):
            tree.add_block(bad)

    def test_get_unknown_raises(self):
        tree = BlockTree()
        with pytest.raises(UnknownBlockError):
            tree.get(Root.from_label("nope"))

    def test_children_and_leaves(self):
        tree = BlockTree()
        a = BeaconBlock.create(slot=1, proposer_index=0, parent_root=GENESIS_ROOT, branch_tag="a")
        b = BeaconBlock.create(slot=1, proposer_index=1, parent_root=GENESIS_ROOT, branch_tag="b")
        tree.add_block(a)
        tree.add_block(b)
        assert set(tree.children_of(GENESIS_ROOT)) == {a.root, b.root}
        assert set(tree.leaves()) == {a.root, b.root}


class TestBlockTreeAncestry:
    def test_chain_to_genesis_order(self):
        tree = BlockTree()
        blocks = chain_of(tree, 3)
        chain = tree.chain_to_genesis(blocks[-1].root)
        assert [block.slot for block in chain] == [0, 1, 2, 3]

    def test_is_ancestor(self):
        tree = BlockTree()
        blocks = chain_of(tree, 3)
        assert tree.is_ancestor(GENESIS_ROOT, blocks[-1].root)
        assert tree.is_ancestor(blocks[0].root, blocks[2].root)
        assert not tree.is_ancestor(blocks[2].root, blocks[0].root)

    def test_ancestor_at_slot(self):
        tree = BlockTree()
        blocks = chain_of(tree, 5)
        assert tree.ancestor_at_slot(blocks[-1].root, 3) == blocks[2].root
        assert tree.ancestor_at_slot(blocks[-1].root, 0) == GENESIS_ROOT
        # Slot beyond the head returns the head itself.
        assert tree.ancestor_at_slot(blocks[-1].root, 100) == blocks[-1].root

    def test_descendants(self):
        tree = BlockTree()
        blocks = chain_of(tree, 3)
        descendants = tree.descendants(GENESIS_ROOT)
        assert descendants == {block.root for block in blocks}
        assert tree.descendants(blocks[-1].root) == set()

    def test_common_ancestor_of_fork(self):
        tree = BlockTree()
        trunk = chain_of(tree, 2)
        fork_a = BeaconBlock.create(slot=3, proposer_index=0, parent_root=trunk[-1].root, branch_tag="a")
        fork_b = BeaconBlock.create(slot=3, proposer_index=1, parent_root=trunk[-1].root, branch_tag="b")
        tree.add_block(fork_a)
        tree.add_block(fork_b)
        assert tree.common_ancestor(fork_a.root, fork_b.root) == trunk[-1].root

    def test_common_ancestor_linear_chain(self):
        tree = BlockTree()
        blocks = chain_of(tree, 4)
        assert tree.common_ancestor(blocks[1].root, blocks[3].root) == blocks[1].root

    def test_highest_slot(self):
        tree = BlockTree()
        chain_of(tree, 7)
        assert tree.highest_slot() == 7


class TestPositionLayout:
    @staticmethod
    def random_tree(seed: int) -> BlockTree:
        rng = random.Random(seed)
        tree = BlockTree()
        blocks = [tree.get(GENESIS_ROOT)]
        for slot in range(1, 40):
            parent = rng.choice(blocks[-6:])
            block = BeaconBlock.create(
                slot=slot, proposer_index=slot, parent_root=parent.root, branch_tag=str(slot)
            )
            tree.add_block(block)
            blocks.append(block)
        return tree

    @pytest.mark.parametrize("seed", range(8))
    def test_leaf_list_equals_a_scan_in_insertion_order(self, seed):
        tree = self.random_tree(seed)
        for copy in (tree, tree.clone()):
            scanned = [root for root in copy.roots if not copy.children_of(root)]
            assert copy.leaves() == scanned
        assert len(tree.leaves()) > 1

    @pytest.mark.parametrize("seed", range(4))
    def test_positions_follow_insertion_and_parents_come_first(self, seed):
        tree = self.random_tree(seed)
        assert [tree.position_of(root) for root in tree.roots] == list(range(len(tree)))
        for position, children in enumerate(tree.child_positions):
            assert all(child > position for child in children)
            assert [tree.roots[c] for c in children] == tree.children_of(tree.roots[position])

    def test_clone_adds_independently(self):
        tree = self.random_tree(0)
        copy = tree.clone()
        leaf = tree.leaves()[0]
        child = BeaconBlock.create(slot=99, proposer_index=0, parent_root=leaf)
        copy.add_block(child)
        assert leaf in tree.leaves() and leaf not in copy.leaves()
        assert copy.leaves()[-1] == child.root
        assert child.root not in tree
        with pytest.raises(UnknownBlockError):
            tree.position_of(child.root)
