"""The block tree: every block a validator has perceived.

Validators keep a local tree-like data structure containing all perceived
blocks (Section 2 of the paper).  The fork-choice rule
(:mod:`repro.spec.forkchoice`) selects the candidate chain out of this
tree; the finality gadget (:mod:`repro.spec.finality`) marks a prefix of it
as finalized.

The layout is proto-array's: every block has a *position*, its index in
insertion order, and the tree keeps the roots by position, a root →
position map and each position's child positions.  A parent is always
inserted before its children, so one pass over positions from last to
first visits every child before its parent; fork choice sums subtree
weights that way without sorting or hashing a root per block.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.spec.block import BeaconBlock
from repro.spec.types import Root, GENESIS_ROOT


class UnknownBlockError(KeyError):
    """Raised when a block root is not present in the tree."""


class BlockTree:
    """A rooted tree of beacon blocks keyed by block root."""

    def __init__(self, genesis: Optional[BeaconBlock] = None) -> None:
        genesis_block = genesis or BeaconBlock.genesis()
        if not genesis_block.is_genesis():
            raise ValueError("BlockTree must be rooted at a genesis block")
        #: Blocks and their roots in insertion order (index = position).
        self._blocks: List[BeaconBlock] = [genesis_block]
        self._roots: List[Root] = [genesis_block.root]
        self._position: Dict[Root, int] = {genesis_block.root: 0}
        #: Child positions of each position, in insertion order.
        self._children: List[List[int]] = [[]]
        #: Roots without children, in insertion order (an ordered set).
        self._leaves: Dict[Root, None] = {genesis_block.root: None}
        self._genesis_root = genesis_block.root

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def genesis_root(self) -> Root:
        """Root of the genesis block."""
        return self._genesis_root

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, root: Root) -> bool:
        return root in self._position

    def get(self, root: Root) -> BeaconBlock:
        """Return the block with the given root, raising if unknown."""
        try:
            return self._blocks[self._position[root]]
        except KeyError as exc:
            raise UnknownBlockError(f"unknown block root {root}") from exc

    def blocks(self) -> Iterator[BeaconBlock]:
        """Iterate over every block in the tree, in insertion order."""
        return iter(self._blocks)

    def position_of(self, root: Root) -> int:
        """Insertion index of ``root``, raising if unknown."""
        try:
            return self._position[root]
        except KeyError as exc:
            raise UnknownBlockError(f"unknown block root {root}") from exc

    @property
    def roots(self) -> Sequence[Root]:
        """Every root by position (treat as read-only)."""
        return self._roots

    @property
    def child_positions(self) -> Sequence[List[int]]:
        """Each position's child positions, in insertion order (read-only)."""
        return self._children

    def children_of(self, root: Root) -> List[Root]:
        """Return the roots of the direct children of ``root``."""
        roots = self._roots
        return [roots[child] for child in self._children[self.position_of(root)]]

    def leaves(self) -> List[Root]:
        """Return the roots of all leaf blocks (blocks without children),
        in insertion order."""
        return list(self._leaves)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_block(self, block: BeaconBlock) -> bool:
        """Insert ``block`` into the tree.

        Returns ``True`` if the block was new, ``False`` if it was already
        present.  The parent must already be known; this mirrors the real
        client behaviour of holding blocks until their ancestry is complete
        (the network layer takes care of ordering in the simulator).
        """
        if block.root in self._position:
            return False
        if block.parent_root not in self._position:
            raise UnknownBlockError(
                f"parent {block.parent_root} of block {block.root} is unknown"
            )
        parent_position = self._position[block.parent_root]
        parent = self._blocks[parent_position]
        if block.slot <= parent.slot and not block.is_genesis():
            raise ValueError(
                f"block slot {block.slot} must exceed parent slot {parent.slot}"
            )
        position = len(self._roots)
        self._blocks.append(block)
        self._roots.append(block.root)
        self._position[block.root] = position
        self._children[parent_position].append(position)
        self._children.append([])
        self._leaves.pop(block.parent_root, None)
        self._leaves[block.root] = None
        return True

    def clone(self) -> "BlockTree":
        """An independent tree holding the same blocks.

        Blocks are immutable, so the copy is structural only (list, map
        and child-list duplication, same positions); used when a view
        group splits.
        """
        copy = BlockTree.__new__(BlockTree)
        copy._blocks = list(self._blocks)
        copy._roots = list(self._roots)
        copy._position = dict(self._position)
        copy._children = [list(children) for children in self._children]
        copy._leaves = dict(self._leaves)
        copy._genesis_root = self._genesis_root
        return copy

    # ------------------------------------------------------------------
    # Ancestry queries
    # ------------------------------------------------------------------
    def chain_to_genesis(self, root: Root) -> List[BeaconBlock]:
        """Return the chain from genesis to ``root`` (inclusive, in order)."""
        chain: List[BeaconBlock] = []
        current = self.get(root)
        while True:
            chain.append(current)
            if current.is_genesis():
                break
            current = self.get(current.parent_root)
        chain.reverse()
        return chain

    def is_ancestor(self, ancestor: Root, descendant: Root) -> bool:
        """Return True if ``ancestor`` lies on the chain from genesis to ``descendant``."""
        if ancestor not in self._position:
            raise UnknownBlockError(f"unknown block root {ancestor}")
        current = self.get(descendant)
        while True:
            if current.root == ancestor:
                return True
            if current.is_genesis():
                return False
            current = self.get(current.parent_root)

    def ancestor_at_slot(self, root: Root, slot: int) -> Root:
        """Return the ancestor of ``root`` with the highest slot <= ``slot``.

        This is the helper fork choice and FFG use to map a head block to
        the checkpoint block of an epoch boundary.
        """
        current = self.get(root)
        while current.slot > slot and not current.is_genesis():
            current = self.get(current.parent_root)
        return current.root

    def descendants(self, root: Root) -> Set[Root]:
        """Return the set of all descendants of ``root`` (excluding itself)."""
        position = self._position.get(root)
        if position is None:
            return set()
        found: List[int] = []
        stack = list(self._children[position])
        while stack:
            node = stack.pop()
            found.append(node)
            stack.extend(self._children[node])
        return {self._roots[node] for node in found}

    def subtree_totals(self, own: Sequence[float]) -> List[float]:
        """Subtree weight of every position, given each block's own weight.

        One pass from the last position to the first: each total adds the
        block's own weight, then its children's totals in ``children_of``
        order, the order of the recursive definition, so the floats equal
        it bit for bit.
        """
        totals = list(own)
        children = self._children
        for position in range(len(totals) - 1, -1, -1):
            kids = children[position]
            if kids:
                total = totals[position]
                for child in kids:
                    total += totals[child]
                totals[position] = total
        return totals

    def common_ancestor(self, root_a: Root, root_b: Root) -> Root:
        """Return the deepest common ancestor of two blocks."""
        ancestors_a = {block.root for block in self.chain_to_genesis(root_a)}
        current = self.get(root_b)
        while True:
            if current.root in ancestors_a:
                return current.root
            if current.is_genesis():
                return self._genesis_root
            current = self.get(current.parent_root)

    def highest_slot(self) -> int:
        """Return the highest slot of any block in the tree."""
        return max(block.slot for block in self._blocks)
