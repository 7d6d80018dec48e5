"""LMD-GHOST fork choice.

The fork-choice rule selects the *candidate chain* (Definition 1 of the
paper) from the local block tree: starting at the justified checkpoint's
block, repeatedly descend into the child subtree with the greatest weight
of latest attestations (Latest Message Driven — Greediest Heaviest
Observed SubTree).

The store is array-native: latest messages live in flat per-validator
``int64`` arrays (epoch, interned head-root id) updated either one vote at
a time (:meth:`Store.on_attestation`) or a whole committee batch per call
(:meth:`Store.on_attestation_batch`).  A head computation is one tally
and one walk, both on the block tree's positions (proto-array's layout,
see :mod:`repro.spec.blocktree`):

* the tally is a weighted ``bincount`` over the vote arrays (the sums run
  in validator-index order), with the voted roots taken from a count
  ``bincount``; each voted root's weight lands on its block's position;
* subtree totals come from one pass over positions from last to first,
  each total adding the block's own weight and then its children's in
  insertion order, so every float equals the recursive definition's;
* the GHOST walk descends from the justified root by position, breaking
  ties between children by ``(total, root.hex)``.

Proto-array's incremental vote deltas are not used: applying them back to
front reassociates the float sums, and balances are fractional after
penalties, so near-tie heads could move.  Instead the totals are cached
per store version and caller-named stake array, so a view's head and
branch-weight queries between two mutations share one tally.  The
``latest_messages`` mapping of the consensus-spec ``Store`` survives as a
reconstructing property for inspection and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.attestation_batch import RootInterner
from repro.spec.attestation import Attestation
from repro.spec.block import BeaconBlock
from repro.spec.blocktree import BlockTree
from repro.spec.checkpoint import Checkpoint, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.state import BeaconState
from repro.spec.types import Root

_INITIAL_VOTE_CAPACITY = 64


@dataclass
class LatestMessage:
    """The latest (highest-epoch) block vote seen from a validator."""

    epoch: int
    root: Root


@dataclass
class Store:
    """Fork-choice store: block tree plus per-validator latest messages.

    One ``Store`` exists per simulated view.  It is deliberately close to
    the consensus-spec ``Store`` object: ``justified_checkpoint`` anchors
    the GHOST walk and the latest-message arrays carry the block votes.
    ``version`` is bumped on every mutation that can move the head, so
    callers can cache head computations safely.
    """

    config: SpecConfig
    tree: BlockTree = field(default_factory=BlockTree)
    justified_checkpoint: Checkpoint = GENESIS_CHECKPOINT
    finalized_checkpoint: Checkpoint = GENESIS_CHECKPOINT
    #: Map from checkpoint epoch to the block root of the checkpoint, as
    #: perceived locally (filled in by the node when epochs begin).
    checkpoint_roots: Dict[int, Root] = field(default_factory=dict)
    #: Mutation counter: bumped whenever tree/votes/justification change.
    version: int = 0

    def __post_init__(self) -> None:
        self._latest_epoch = np.full(_INITIAL_VOTE_CAPACITY, -1, dtype=np.int64)
        self._latest_root = np.zeros(_INITIAL_VOTE_CAPACITY, dtype=np.int64)
        # NOTE: this id space is the store's own — never compare its ids
        # with the FFG vote pool's (each structure interns independently).
        self._interner = RootInterner()
        #: ``((version, weights_key), totals)`` of the last keyed tally.
        self._totals_cache: Optional[Tuple[Tuple[int, Hashable], List[float]]] = None

    # ------------------------------------------------------------------
    # Latest-message array plumbing
    # ------------------------------------------------------------------
    def root_id_of(self, root: Root) -> Optional[int]:
        """Dense id of ``root`` if any vote ever carried it, else ``None``."""
        return self._interner.lookup(root)

    def _ensure_vote_capacity(self, max_index: int) -> None:
        capacity = self._latest_epoch.shape[0]
        if max_index < capacity:
            return
        while capacity <= max_index:
            capacity *= 2
        epochs = np.full(capacity, -1, dtype=np.int64)
        roots = np.zeros(capacity, dtype=np.int64)
        old = self._latest_epoch.shape[0]
        epochs[:old] = self._latest_epoch
        roots[:old] = self._latest_root
        self._latest_epoch = epochs
        self._latest_root = roots

    def latest_vote_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(epochs, root_ids)`` array views of the latest messages.

        Indexed by validator index; epoch ``-1`` means "never voted".
        Treat as read-only; translate ids with :meth:`root_id_of` /
        ``latest_root_of``.
        """
        return self._latest_epoch, self._latest_root

    @property
    def latest_messages(self) -> Dict[int, LatestMessage]:
        """Latest block vote per validator, reconstructed from the arrays."""
        indices = np.nonzero(self._latest_epoch >= 0)[0]
        return {
            int(index): LatestMessage(
                epoch=int(self._latest_epoch[index]),
                root=self._interner.root_of(int(self._latest_root[index])),
            )
            for index in indices
        }

    def clone(self) -> "Store":
        """An independent store with identical tree, votes and checkpoints.

        The latest-message arrays, the interner (ids stay comparable only
        within one store) and the checkpoint maps are all duplicated, so
        mutations on either side never leak across — the copy-on-write
        primitive behind dynamic view splitting.
        """
        copy = Store(
            config=self.config,
            tree=self.tree.clone(),
            justified_checkpoint=self.justified_checkpoint,
            finalized_checkpoint=self.finalized_checkpoint,
            checkpoint_roots=dict(self.checkpoint_roots),
            version=self.version,
        )
        copy._latest_epoch = self._latest_epoch.copy()
        copy._latest_root = self._latest_root.copy()
        copy._interner = self._interner.clone()
        # Both trees keep the same positions and a cached list is never
        # mutated, so the two sides may share it.
        copy._totals_cache = self._totals_cache
        return copy

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def on_block(self, block: BeaconBlock) -> bool:
        """Insert a block into the tree.  Returns True if it was new."""
        added = self.tree.add_block(block)
        if added:
            self.version += 1
        return added

    def on_attestation(self, attestation: Attestation) -> None:
        """Update the latest message of the attesting validator.

        Only the newest vote (by target epoch, then arrival) from each
        validator counts in LMD-GHOST.
        """
        if attestation.head_root not in self.tree:
            # The voted-for block has not been delivered yet; the simulator's
            # network layer re-delivers attestations after their block, so
            # dropping here is safe and mirrors real client queuing.
            return
        validator = attestation.validator_index
        self._ensure_vote_capacity(validator)
        if attestation.target_epoch >= self._latest_epoch[validator]:
            self._latest_epoch[validator] = attestation.target_epoch
            self._latest_root[validator] = self._interner.intern(attestation.head_root)
            self.version += 1

    def on_attestation_batch(
        self, validators: np.ndarray, target_epoch: int, head_root: Root
    ) -> None:
        """Record a committee batch's identical block votes in one update.

        The caller guarantees ``head_root`` is in the tree (the node pends
        whole batches whose head is unknown, exactly like single votes).
        """
        validators = np.asarray(validators, dtype=np.int64)
        if validators.size == 0:
            return
        self._ensure_vote_capacity(int(validators.max()))
        newer = target_epoch >= self._latest_epoch[validators]
        updated = validators[newer]
        if updated.size == 0:
            return
        root_id = self._interner.intern(head_root)
        self._latest_epoch[updated] = target_epoch
        self._latest_root[updated] = root_id
        self.version += 1

    def update_checkpoints(
        self, justified: Checkpoint, finalized: Checkpoint
    ) -> None:
        """Adopt newer justified/finalized checkpoints."""
        if justified.epoch > self.justified_checkpoint.epoch:
            self.justified_checkpoint = justified
            self.version += 1
        if finalized.epoch > self.finalized_checkpoint.epoch:
            self.finalized_checkpoint = finalized

    # ------------------------------------------------------------------
    # Weights and head computation
    # ------------------------------------------------------------------
    def _eligible_stakes(
        self, state: BeaconState, stake_override: Optional[Dict[int, float]] = None
    ) -> np.ndarray:
        """Per-validator fork-choice weight from a registry state.

        ``stake_override`` supplies the balances to weight votes with — the
        real protocol uses the balances of the *justified* state, not the
        head state, so that two views that only disagree past the justified
        checkpoint still weigh votes identically and converge.  Inactive
        and slashed validators weigh zero.
        """
        registry = state.validators
        stakes = registry.stake
        if stake_override:
            positions = registry.positions_of(list(stake_override))
            known = positions >= 0
            stakes = stakes.copy()
            stakes[positions[known]] = np.fromiter(
                stake_override.values(), dtype=float, count=len(stake_override)
            )[known]
        eligible = registry.active_mask(state.current_epoch) & ~registry.slashed
        return np.where(eligible, stakes, 0.0)

    def _vote_weights_from_stakes(
        self, eligible_stakes: np.ndarray
    ) -> Dict[Root, float]:
        """Stake-weighted latest-message tallies per voted block root.

        One weighted ``bincount`` over the latest-message arrays gives the
        tallies in validator-index order; a count ``bincount`` over the
        same ids names the roots that hold at least one vote.
        """
        limit = min(self._latest_epoch.shape[0], eligible_stakes.shape[0])
        if limit == 0:
            return {}
        valid = self._latest_epoch[:limit] >= 0
        if not valid.any():
            return {}
        roots = self._latest_root[:limit][valid]
        size = len(self._interner)
        totals = np.bincount(
            roots,
            weights=np.asarray(eligible_stakes, dtype=float)[:limit][valid],
            minlength=size,
        )
        voted = np.flatnonzero(np.bincount(roots, minlength=size))
        root_of = self._interner.root_of
        return {
            root_of(root_id): total
            for root_id, total in zip(voted.tolist(), totals[voted].tolist())
        }

    def subtree_totals(
        self, eligible_stakes: np.ndarray, weights_key: Optional[Hashable] = None
    ) -> List[float]:
        """Subtree vote weight of every block, indexed by tree position.

        Each voted root's tally lands on its block's position (votes for
        roots outside the tree weigh nothing), then
        :meth:`BlockTree.subtree_totals` sums the subtrees in one pass.

        A caller that names its stake array with ``weights_key`` (a value
        it changes whenever the array changes) gets the totals cached per
        ``(version, weights_key)``, so head and branch-weight queries
        between two mutations share one tally.  Treat the list as
        read-only.
        """
        key = (self.version, weights_key)
        cached = self._totals_cache
        if weights_key is not None and cached is not None and cached[0] == key:
            return cached[1]
        tree = self.tree
        own = [0.0] * len(tree)
        for root, weight in self._vote_weights_from_stakes(eligible_stakes).items():
            if root in tree:
                own[tree.position_of(root)] = weight
        totals = tree.subtree_totals(own)
        if weights_key is not None:
            self._totals_cache = (key, totals)
        return totals

    def _ghost_walk(self, totals: Sequence[float]) -> Root:
        """Descend from the justified root into the heaviest subtree.

        Ties between children break by root hex, for determinism.
        """
        tree = self.tree
        start = self.justified_checkpoint.root
        if start not in tree:
            start = tree.genesis_root
        roots, children = tree.roots, tree.child_positions
        head = tree.position_of(start)
        kids = children[head]
        while kids:
            if len(kids) == 1:
                head = kids[0]
            else:
                head = max(kids, key=lambda child: (totals[child], roots[child].hex))
            kids = children[head]
        return roots[head]

    def get_head(
        self, state: BeaconState, stake_override: Optional[Dict[int, float]] = None
    ) -> Root:
        """Run LMD-GHOST from the justified checkpoint and return the head root."""
        return self._ghost_walk(
            self.subtree_totals(self._eligible_stakes(state, stake_override))
        )

    def get_head_weighted(
        self, eligible_stakes: np.ndarray, weights_key: Optional[Hashable] = None
    ) -> Root:
        """LMD-GHOST head from precomputed per-validator weights.

        The hot path for view nodes: the caller maintains the eligible
        stake array (justified balances, zeroed for inactive/slashed
        validators) and refreshes it once per epoch instead of rebuilding
        it from the registry on every head query.  ``weights_key`` shares
        the tally with :meth:`subtree_totals` queries at the same key.
        """
        return self._ghost_walk(self.subtree_totals(eligible_stakes, weights_key))

    def candidate_chain(self, state: BeaconState) -> List[BeaconBlock]:
        """The candidate chain (Definition 1): genesis → head."""
        return self.tree.chain_to_genesis(self.get_head(state))

    # ------------------------------------------------------------------
    # Checkpoint helpers
    # ------------------------------------------------------------------
    def checkpoint_for_epoch(self, epoch: int, head: Root) -> Checkpoint:
        """The checkpoint of ``epoch`` on the chain ending at ``head``.

        The checkpoint block is the block at (or the latest before) the
        first slot of the epoch, on the chain of ``head``.
        """
        boundary_slot = self.config.start_slot_of_epoch(epoch)
        root = self.tree.ancestor_at_slot(head, boundary_slot)
        return Checkpoint(epoch=epoch, root=root)

    def head_block(self, state: BeaconState) -> BeaconBlock:
        """Return the head block object."""
        return self.tree.get(self.get_head(state))


def fork_exists(store: Store) -> bool:
    """True when the block tree currently holds more than one leaf."""
    return len(store.tree.leaves()) > 1


def branch_heads(store: Store) -> Sequence[Root]:
    """Return the leaf roots, i.e. the competing branch heads."""
    return store.tree.leaves()
