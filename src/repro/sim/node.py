"""A validator view node: local view of the chain plus protocol bookkeeping.

Each simulated *view* runs a node holding its own fork-choice store, beacon
state, FFG vote pool and slashing detector.  Nodes only learn about blocks
and attestations through messages delivered by the network, so two nodes
separated by a partition genuinely diverge — which is the whole point of
the paper's scenarios.

A node may be shared by many validators (*view sharding*): validators on
the same partition side receive the identical message stream, so their
local views are provably equal and the engine simulates one ``Node`` per
view group with ``members`` listing the validators it stands for.  The
only per-validator state a view carries is *consumption*: which of the
seen attestations and evidence each member has already included in its own
blocks, tracked as per-member cursors over shared append-only logs (the
O(included) replacement for the old per-build list re-slicing).
The per-member default proposer of ``build_block`` is exposed for
non-representative members through the lightweight :class:`MemberView`
facade returned by :meth:`Node.for_member`.

Votes have one path in: every vote arrives as an
:class:`repro.core.attestation_batch.AttestationBatch` — a committee's
identical votes, one branch of the adversary's equivocation, or a lone
validator's vote as a one-row batch — and is ingested in one call: bulk
:meth:`FlatVotePool.add_batch`, vectorized fork-choice latest-message
update, array-append activity accounting, an array check in the
slashing detector (a one-row batch takes the cheaper row updates of
the same structures instead).  A block's carried attestations are
regrouped into batches (runs of consecutive rows of one vote) on the
way in, a batch whose head is unknown pends whole, and the inclusion
log keeps batches unexpanded until a proposer slices them.
Activity (``active_indices_for_epoch``) is computed by array comparison
over the per-epoch vote columns instead of a per-attestation set scan.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.attestation_batch import AttestationBatch, AttestationColumns
from repro.core.backend import StakeBackend, get_backend
from repro.network.message import Message, MessageKind
from repro.spec.attestation import Attestation, attestations_from_batch
from repro.spec.block import BeaconBlock
from repro.spec.checkpoint import Checkpoint
from repro.spec.config import SpecConfig
from repro.spec.finality import FFGVotePool
from repro.spec.forkchoice import Store
from repro.spec.slashing import SlashingDetector, SlashingEvidence
from repro.spec.state import BeaconState
from repro.spec.state_transition import EpochReport, process_epoch
from repro.spec.types import Root
from repro.spec.validator import Registry, Validator

#: Attestations whose target epoch has fallen more than this many epochs
#: behind the processed epoch are dropped from the inclusion log and the
#: per-epoch vote columns — real clients only accept attestations within
#: about an epoch, so unincluded stale votes must not accumulate forever.
INCLUSION_HORIZON_EPOCHS = 2

#: The active set of an epoch in which a view saw no matching vote.
_NO_VALIDATORS = np.zeros(0, dtype=np.int64)


class InclusionLog:
    """Append-only log of the attestations a view may include, by row.

    Entries are attestation batches, kept unexpanded; a batch stands for
    its rows in validator order.  Cursors and slices count rows, so the
    log reads exactly like the flat list of :class:`Attestation` rows it
    stands for.  A batch is expanded the first time a slice reaches it,
    and every later slice — by any proposer of the view — reuses that
    expansion.
    """

    __slots__ = ("_entries", "_starts", "_expanded", "_rows")

    def __init__(self) -> None:
        self._entries: List[AttestationBatch] = []
        #: Row offset of each entry.
        self._starts: List[int] = []
        #: Each entry's rows once expanded (``None`` until first sliced).
        self._expanded: List[Optional[Sequence[Attestation]]] = []
        self._rows = 0

    def clone(self) -> "InclusionLog":
        """An independent log with the same entries (expansions are shared)."""
        copy = InclusionLog()
        copy._entries = list(self._entries)
        copy._starts = list(self._starts)
        copy._expanded = list(self._expanded)
        copy._rows = self._rows
        return copy

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[Attestation]:
        return iter(self.slice(0, self._rows))

    def append(
        self, batch: AttestationBatch, rows: Optional[Sequence[Attestation]] = None
    ) -> None:
        """Add a batch standing for its rows.

        ``rows``, when the caller already holds the batch's rows (a block
        carried them), serve as its expansion.
        """
        self._starts.append(self._rows)
        self._entries.append(batch)
        self._expanded.append(rows)
        self._rows += len(batch)

    def slice(self, start: int, stop: int) -> List[Attestation]:
        """Rows ``start:stop``, expanding only the batches they reach."""
        stop = min(stop, self._rows)
        rows: List[Attestation] = []
        position = max(bisect_right(self._starts, start) - 1, 0)
        while start < stop:
            expanded = self._expanded[position]
            if expanded is None:
                expanded = attestations_from_batch(self._entries[position])
                self._expanded[position] = expanded
            offset = self._starts[position]
            rows.extend(expanded[start - offset : stop - offset])
            start = offset + len(expanded)
            position += 1
        return rows

    def drop_before(self, row: int) -> int:
        """Drop the entries lying wholly below ``row``; return the rows dropped.

        An entry straddling ``row`` stays whole, so cursors rebase by the
        returned count, not by ``row``.
        """
        if row >= self._rows:
            count = len(self._entries)
        else:
            count = bisect_right(self._starts, row) - 1
        if count <= 0:
            return 0
        dropped = self._starts[count] if count < len(self._entries) else self._rows
        del self._entries[:count]
        del self._expanded[:count]
        self._starts = [start - dropped for start in self._starts[count:]]
        self._rows -= dropped
        return dropped

    def expire_before(self, epoch: int, cursors: Dict[int, int]) -> Dict[int, int]:
        """Drop the entries targeting epochs before ``epoch``; rebase ``cursors``.

        A cursor keeps pointing at the same surviving row: it becomes the
        number of surviving rows below it.
        """
        keep = [entry.target_epoch >= epoch for entry in self._entries]
        if all(keep):
            return cursors
        # kept_starts[i] = surviving rows below entry i.
        kept_starts, kept = [], 0
        for entry, kept_entry in zip(self._entries, keep):
            kept_starts.append(kept)
            if kept_entry:
                kept += len(entry)
        rebased = {}
        for member, cursor in cursors.items():
            position = bisect_right(self._starts, cursor) - 1
            offset = cursor - self._starts[position] if keep[position] else 0
            rebased[member] = kept_starts[position] + offset
        self._entries = [e for e, k in zip(self._entries, keep) if k]
        self._expanded = [e for e, k in zip(self._expanded, keep) if k]
        self._starts = [start for start, k in zip(kept_starts, keep) if k]
        self._rows = kept
        return rebased


@dataclass
class PendingQueues:
    """Blocks and attestations whose ancestry has not been delivered yet."""

    blocks: List[BeaconBlock] = field(default_factory=list)
    attestations: List[AttestationBatch] = field(default_factory=list)


class Node:
    """Local protocol instance of one view (one or many validators)."""

    def __init__(
        self,
        validator_index: int,
        registry: Union[Registry, List[Validator]],
        config: Optional[SpecConfig] = None,
        backend: Union[str, StakeBackend] = "numpy",
        members: Optional[Sequence[int]] = None,
    ) -> None:
        self.validator_index = validator_index
        self.members = members if members is not None else (validator_index,)
        self.config = config or SpecConfig.mainnet()
        #: Stake-dynamics kernel driving this node's epoch processing
        #: (FFG justification, rewards, inactivity and slashing all run
        #: array-native on it).
        self.backend = get_backend(backend, population=len(registry))
        #: This view's state, with its own copy of the registry columns.
        self.state = BeaconState.genesis(registry, self.config)
        self.store = Store(config=self.config)
        self.pool = FFGVotePool()
        self.detector = SlashingDetector()
        self.pending = PendingQueues()
        #: Checkpoint votes seen, as flat per-target-epoch columns
        #: (activity accounting + Byzantine source scans; root ids are
        #: interned by the vote pool so all structures agree).
        self.attestations_by_epoch: Dict[int, AttestationColumns] = {}
        #: Append-only log of attestations seen and eligible for block
        #: inclusion; members track their consumption with row cursors.
        self._inclusion_log = InclusionLog()
        self._inclusion_cursors: Dict[int, int] = {}
        #: Append-only log of slashing evidence known to this view, with
        #: per-member inclusion cursors (each member includes evidence it
        #: has not yet packed into one of its own blocks).
        self._evidence_log: List[SlashingEvidence] = []
        self._evidence_cursors: Dict[int, int] = {}
        #: Validators for which evidence was included in a block on this
        #: node's chain, per epoch (consumed at epoch processing).
        self.slashings_observed: Dict[int, Set[int]] = defaultdict(set)
        #: Balances as of the last justified checkpoint, used to weight
        #: fork-choice votes (the real protocol weighs LMD-GHOST votes with
        #: the justified-state balances so diverging views still converge).
        self._justified_stakes = self.state.validators.stake.copy()
        self._weights_version = 0
        self._head_cache: Optional[Tuple[Tuple[int, int], Root]] = None
        #: Permanent (epoch, head) -> checkpoint cache: a fixed head's
        #: boundary ancestor never changes once the head is in the tree.
        self._checkpoint_cache: Dict[Tuple[int, Root], Checkpoint] = {}
        self._refresh_view_arrays()

    # ------------------------------------------------------------------
    # Cached per-epoch registry arrays
    # ------------------------------------------------------------------
    def _refresh_view_arrays(self) -> None:
        """Rebuild the stake/eligibility arrays the hot paths read.

        Registry fields mutate only inside :meth:`process_epoch_end`, so
        refreshing here (and at construction) keeps the arrays exact.
        """
        registry = self.state.validators
        eligible = registry.active_mask(self.state.current_epoch) & ~registry.slashed
        self._fc_stakes = np.where(eligible, self._justified_stakes, 0.0)
        self._weights_version += 1

    def stake_array(self) -> np.ndarray:
        """Current per-validator stakes: the registry's stake column (read-only)."""
        return self.state.validators.stake

    @property
    def members(self) -> Tuple[int, ...]:
        """Validators sharing this view (representative first by convention)."""
        return self._members

    @members.setter
    def members(self, members: Sequence[int]) -> None:
        self._members = tuple(members)
        #: The same members as a read-only int64 array, for the transport.
        self.member_array = np.array(self._members, dtype=np.int64)
        self.member_array.flags.writeable = False

    # ------------------------------------------------------------------
    # Per-member views
    # ------------------------------------------------------------------
    def for_member(self, validator_index: int) -> "Union[Node, MemberView]":
        """A view of this node acting as ``validator_index``.

        The representative gets the node itself; other members get a
        :class:`MemberView` facade that injects their index into
        attestation/block building and tracks their own inclusion cursors.
        """
        if validator_index == self.validator_index:
            return self
        return MemberView(self, validator_index)

    # ------------------------------------------------------------------
    # View lifecycle: copy-on-write splits
    # ------------------------------------------------------------------
    def split_clone(self, members: Sequence[int], validator_index: int) -> "Node":
        """An independent deep copy of this view for a child group.

        Called when the message streams of a view group's members are
        about to diverge: the child gets its own state, store, vote pool,
        detector, columns, logs and caches — every mutable structure —
        so the two sides evolve independently from a provably identical
        starting point.  Only the cursors of ``members`` travel with the
        child.  The stake-dynamics backend is stateless per call and
        stays shared.
        """
        member_set = set(members)
        clone = Node.__new__(Node)
        clone.validator_index = validator_index
        clone.members = tuple(members)
        clone.config = self.config
        clone.backend = self.backend
        clone.state = self.state.fork()
        clone.store = self.store.clone()
        clone.pool = self.pool.clone()
        clone.detector = self.detector.clone()
        clone.pending = PendingQueues(
            blocks=list(self.pending.blocks),
            attestations=list(self.pending.attestations),
        )
        clone.attestations_by_epoch = {
            epoch: columns.clone()
            for epoch, columns in self.attestations_by_epoch.items()
        }
        clone._inclusion_log = self._inclusion_log.clone()
        clone._inclusion_cursors = {
            index: cursor
            for index, cursor in self._inclusion_cursors.items()
            if index in member_set
        }
        clone._evidence_log = list(self._evidence_log)
        clone._evidence_cursors = {
            index: cursor
            for index, cursor in self._evidence_cursors.items()
            if index in member_set
        }
        clone.slashings_observed = defaultdict(set)
        for epoch, indices in self.slashings_observed.items():
            if indices:
                clone.slashings_observed[epoch] = set(indices)
        clone._justified_stakes = self._justified_stakes.copy()
        clone._weights_version = self._weights_version
        clone._head_cache = self._head_cache
        clone._checkpoint_cache = dict(self._checkpoint_cache)
        clone._fc_stakes = self._fc_stakes.copy()
        return clone

    def restrict_members(self, members: Sequence[int]) -> None:
        """Shrink this view to ``members`` after a split carved the rest away.

        Cursors of departed members move out with their ``split_clone``;
        keeping them here would pin the log-pruning floor forever.
        """
        member_set = set(members)
        self.members = tuple(members)
        self._inclusion_cursors = {
            index: cursor
            for index, cursor in self._inclusion_cursors.items()
            if index in member_set
        }
        self._evidence_cursors = {
            index: cursor
            for index, cursor in self._evidence_cursors.items()
            if index in member_set
        }

    def inclusion_view(self, validator_index: int) -> List[Attestation]:
        """Attestations ``validator_index`` has seen but not yet included."""
        cursor = self._inclusion_cursors.get(validator_index, 0)
        return self._inclusion_log.slice(cursor, len(self._inclusion_log))

    def evidence_view(self, validator_index: int) -> List[SlashingEvidence]:
        """Evidence ``validator_index`` has not yet included in a block."""
        cursor = self._evidence_cursors.get(validator_index, 0)
        return self._evidence_log[cursor:]

    @property
    def attestations_for_inclusion(self) -> List[Attestation]:
        """Unconsumed inclusion queue of the node's own validator."""
        return self.inclusion_view(self.validator_index)

    @property
    def evidence_for_inclusion(self) -> List[SlashingEvidence]:
        """Unconsumed evidence queue of the node's own validator."""
        return self.evidence_view(self.validator_index)

    # ------------------------------------------------------------------
    # Message ingestion
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        """Process a delivered network message."""
        if message.kind is MessageKind.BLOCK:
            self._receive_block(message.payload)  # type: ignore[arg-type]
        elif message.kind is MessageKind.ATTESTATION_BATCH:
            self._receive_attestation_batch(message.payload)  # type: ignore[arg-type]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown message kind {message.kind}")

    def _receive_block(self, block: BeaconBlock) -> None:
        if block.parent_root not in self.store.tree:
            self.pending.blocks.append(block)
            return
        if self.store.on_block(block):
            # Attestations and evidence carried by the block count as seen.
            self._receive_carried(block.attestations)
            for validator_index in block.slashing_evidence:
                epoch = self.config.epoch_of_slot(block.slot)
                self.slashings_observed[epoch].add(validator_index)
            self._drain_pending()

    def _receive_carried(self, attestations: Sequence[Attestation]) -> None:
        """Receive a block's attestations, each run of one vote as a batch.

        Consecutive rows with the same slot, head and FFG vote are the
        rows of one expanded batch (they share the head and vote objects,
        so an identity check finds them) and are received as one
        :class:`AttestationBatch`; a lone row is a one-row batch.  Either
        way the node ends up exactly as if it had received every row on
        its own.
        """
        count = len(attestations)
        start = 0
        while start < count:
            first = attestations[start]
            end = start + 1
            while (
                end < count
                and attestations[end].ffg is first.ffg
                and attestations[end].head_root is first.head_root
                and attestations[end].slot == first.slot
            ):
                end += 1
            rows = attestations[start:end]
            batch = AttestationBatch(
                slot=first.slot,
                head_root=first.head_root,
                source=first.ffg.source,
                target=first.ffg.target,
                validators=np.array(
                    [a.validator_index for a in rows], dtype=np.int64
                ),
            )
            self._receive_attestation_batch(batch, rows)
            start = end

    def _receive_attestation_batch(
        self, batch: AttestationBatch, rows: Optional[Sequence[Attestation]] = None
    ) -> None:
        if batch.head_root not in self.store.tree:
            self.pending.attestations.append(batch)
            return
        self._ingest_batch(batch, rows)

    def _seen_columns(self, target_epoch: int) -> AttestationColumns:
        columns = self.attestations_by_epoch.get(target_epoch)
        if columns is None:
            columns = AttestationColumns()
            self.attestations_by_epoch[target_epoch] = columns
        return columns

    def _ingest_batch(
        self, batch: AttestationBatch, rows: Optional[Sequence[Attestation]] = None
    ) -> None:
        """Ingest a whole committee batch in one call.

        The fork-choice store, the FFG pool, the activity columns and the
        slashing detector take the flat validator array directly, and the
        inclusion log keeps the batch whole (with ``rows``, when a block
        carried them, as its expansion): no per-validator object is built
        here.  The pool tallies link stake per batch rather than per row,
        which is why it must stay unweighted for batch ingest to equal
        row-by-row ingest.

        A one-row batch (a lone vote) takes the row APIs instead, which
        cost less than the array ones on a single row, and its one
        :class:`Attestation` row doubles as the inclusion log's expansion.
        """
        if self.pool.flat.weighted:
            raise ValueError("view nodes need an unweighted FFG vote pool")
        if batch.validators.shape[0] == 1:
            row = rows[0] if rows else attestations_from_batch(batch)[0]
            self.store.on_attestation(row)
            self.pool.add_attestation(row)
            flat = self.pool.flat
            self._seen_columns(row.target_epoch).append(
                row.validator_index,
                row.source.epoch,
                flat.intern_root(row.source.root),
                flat.intern_root(row.target.root),
            )
            self._inclusion_log.append(batch, (row,))
            evidence = self.detector.observe(row)
            if evidence is not None:
                self._evidence_log.append(evidence)
            return
        self.store.on_attestation_batch(
            batch.validators, batch.target_epoch, batch.head_root
        )
        self.pool.add_batch(batch)
        flat = self.pool.flat
        self._seen_columns(batch.target_epoch).extend(
            batch.validators,
            batch.source.epoch,
            flat.intern_root(batch.source.root),
            flat.intern_root(batch.target.root),
        )
        self._inclusion_log.append(batch, rows)
        self._evidence_log.extend(self.detector.observe_batch(batch))

    def _drain_pending(self) -> None:
        """Retry queued blocks/attestations whose dependencies may now exist."""
        progress = True
        while progress:
            progress = False
            still_pending: List[BeaconBlock] = []
            for block in self.pending.blocks:
                if block.parent_root in self.store.tree:
                    if self.store.on_block(block):
                        # Re-checks the head: a carried attestation may
                        # reference a block this node still lacks, in
                        # which case it pends like any other.
                        self._receive_carried(block.attestations)
                        for validator_index in block.slashing_evidence:
                            epoch = self.config.epoch_of_slot(block.slot)
                            self.slashings_observed[epoch].add(validator_index)
                    progress = True
                else:
                    still_pending.append(block)
            self.pending.blocks = still_pending
            still_pending_attestations: List[AttestationBatch] = []
            for batch in self.pending.attestations:
                if batch.head_root in self.store.tree:
                    self._ingest_batch(batch)
                    progress = True
                else:
                    still_pending_attestations.append(batch)
            self.pending.attestations = still_pending_attestations

    # ------------------------------------------------------------------
    # Chain views used by agents
    # ------------------------------------------------------------------
    def head(self) -> Root:
        """Current fork-choice head (votes weighted by justified-state balances).

        Cached per (store, weight) version: all members of a view share
        one head computation per mutation generation instead of each
        re-running LMD-GHOST.
        """
        key = (self.store.version, self._weights_version)
        if self._head_cache is not None and self._head_cache[0] == key:
            return self._head_cache[1]
        head = self.store.get_head_weighted(self._fc_stakes, self._weights_version)
        self._head_cache = (key, head)
        return head

    def branch_heads(self) -> List[Root]:
        """All leaf roots of the local tree (competing branch heads)."""
        return self.store.tree.leaves()

    def branch_weight(self, root: Root) -> float:
        """Attesting stake on the subtree rooted at ``root``.

        Uses the same justified-balance weights as :meth:`head`, so a
        swayer comparing two branches sees exactly what LMD-GHOST sees.
        The store caches the subtree totals under the same (store, weight)
        version key as the head, so a head query and any number of weight
        queries between mutations tally once.
        """
        position = self.store.tree.position_of(root)
        return self.store.subtree_totals(self._fc_stakes, self._weights_version)[position]

    def checkpoint_of_epoch(self, epoch: int, head: Optional[Root] = None) -> Checkpoint:
        """Checkpoint of ``epoch`` on the chain of ``head`` (default: own head)."""
        head_root = head if head is not None else self.head()
        key = (epoch, head_root)
        checkpoint = self._checkpoint_cache.get(key)
        if checkpoint is None:
            checkpoint = self.store.checkpoint_for_epoch(epoch, head_root)
            self._checkpoint_cache[key] = checkpoint
        return checkpoint

    def attestation_batch_for(
        self,
        slot: int,
        validators: Sequence[int],
        head: Optional[Root] = None,
        source: Optional[Checkpoint] = None,
    ) -> AttestationBatch:
        """The batch of ``validators``' protocol-following votes for ``slot``.

        All ``validators`` share this view, so the vote is computed once
        and the batch carries only the validator array.  The block vote
        is the fork-choice head; the checkpoint vote links the node's
        current justified checkpoint to the current epoch's checkpoint on
        that head's chain.  An explicit ``head`` or ``source`` overrides
        the default (Byzantine agents voting on a branch whose
        justification history differs from their own).
        """
        head_root = head if head is not None else self.head()
        if source is None:
            source = self.state.current_justified_checkpoint
        target = self.checkpoint_of_epoch(self.config.epoch_of_slot(slot), head_root)
        return AttestationBatch(
            slot=slot,
            head_root=head_root,
            source=source,
            target=target,
            validators=np.asarray(validators, dtype=np.int64),
        )

    def build_block(
        self,
        slot: int,
        parent: Optional[Root] = None,
        branch_tag: str = "",
        max_attestations: int = 128,
        include_evidence: bool = True,
        proposer: Optional[int] = None,
    ) -> BeaconBlock:
        """Build a block on ``parent`` (default: own head) including what we know.

        Inclusion consumes from the shared append-only log through the
        proposer's cursor — O(included) per build, and each member's
        consumption is independent exactly as if it ran its own node.
        ``include_evidence=False`` lets Byzantine proposers omit slashing
        evidence (they have no interest in incriminating themselves).
        """
        who = proposer if proposer is not None else self.validator_index
        parent_root = parent if parent is not None else self.head()
        cursor = self._inclusion_cursors.get(who, 0)
        attestations = tuple(
            self._inclusion_log.slice(cursor, cursor + max_attestations)
        )
        self._inclusion_cursors[who] = cursor + len(attestations)
        if include_evidence:
            evidence_cursor = self._evidence_cursors.get(who, 0)
            evidence_indices = tuple(
                evidence.validator_index
                for evidence in self._evidence_log[evidence_cursor:]
            )
            self._evidence_cursors[who] = len(self._evidence_log)
        else:
            evidence_indices = ()
        return BeaconBlock.create(
            slot=slot,
            proposer_index=who,
            parent_root=parent_root,
            attestations=attestations,
            slashing_evidence=evidence_indices,
            branch_tag=branch_tag,
        )

    # ------------------------------------------------------------------
    # Epoch processing
    # ------------------------------------------------------------------
    def active_indices_for_epoch(self, epoch: int) -> Set[int]:
        """Validators active on this node's chain at ``epoch``, as a set."""
        return set(self._active_index_array(epoch).tolist())

    def _active_index_array(self, epoch: int) -> np.ndarray:
        """Validators active on this node's chain at ``epoch`` (may repeat).

        A validator is active if the node saw an attestation from it whose
        target checkpoint matches this chain's checkpoint for the epoch
        (Section 4.1: an attestation with a wrong target counts as
        inactive).  Computed by array comparison over the per-epoch vote
        columns — no per-attestation Python scan.
        """
        columns = self.attestations_by_epoch.get(epoch)
        if not columns:
            return _NO_VALIDATORS
        local_target = self.checkpoint_of_epoch(epoch)
        target_id = self.pool.flat.lookup_root(local_target.root)
        if target_id is None:
            return _NO_VALIDATORS
        return columns.voters_for_target_root(target_id)

    def process_epoch_end(self, epoch: int) -> EpochReport:
        """Run epoch processing for ``epoch`` on the local state."""
        self.state.current_epoch = epoch
        active = self._active_index_array(epoch)
        slashable = self.slashings_observed.get(epoch, set())
        justified_before = self.state.current_justified_checkpoint
        report = process_epoch(
            self.state,
            self.pool,
            active_indices=active,
            slashable_indices=slashable,
            epoch=epoch,
            backend=self.backend,
        )
        # Propagate finality knowledge into the fork-choice store.
        self.store.update_checkpoints(
            self.state.current_justified_checkpoint, self.state.finalized_checkpoint
        )
        # Refresh the fork-choice balances snapshot whenever justification advances.
        if self.state.current_justified_checkpoint != justified_before:
            self._justified_stakes = self.state.validators.stake.copy()
        self._refresh_view_arrays()
        self._prune_consumed_logs()
        self._prune_inclusion_horizon(epoch)
        return report

    def _prune_consumed_logs(self) -> None:
        """Drop log prefixes every member has already consumed.

        Only entries below *every* member's cursor are dead weight —
        anything above the minimum cursor is still includable in some
        member's future block, so dropping it would diverge from the
        per-node ground truth.  This reclaims memory whenever all members
        have proposed past a prefix (always, eventually, for singleton
        per-node groups); members that never propose pin the floor at
        zero, matching the per-node engine's own retention of their
        unconsumed queues.
        """
        dropped = self._inclusion_log.drop_before(
            self._consumed_floor(self._inclusion_cursors)
        )
        self._inclusion_cursors = _rebased(self._inclusion_cursors, dropped)
        dropped = self._consumed_floor(self._evidence_cursors)
        del self._evidence_log[:dropped]
        self._evidence_cursors = _rebased(self._evidence_cursors, dropped)

    def _consumed_floor(self, cursors: Dict[int, int]) -> int:
        """The lowest cursor of any member, or of anyone holding a cursor.

        Non-member cursors (tests may build blocks for arbitrary
        proposers) participate in the floor so rebasing never goes
        negative.  Cursors are never negative, so with fewer cursors than
        members some member has none and the floor is 0 without a scan.
        """
        if len(cursors) < len(self.members):
            return 0
        return min(
            min((cursors.get(member, 0) for member in self.members), default=0),
            min(cursors.values(), default=0),
        )

    def _prune_inclusion_horizon(self, epoch: int) -> None:
        """Expire attestations older than the inclusion horizon.

        After processing ``epoch``, attestations whose target epoch is
        ``<= epoch - INCLUSION_HORIZON_EPOCHS`` can no longer influence
        anything: their FFG epoch is settled, their fork-choice votes are
        superseded, and real clients would refuse to include them.  They
        are dropped from the inclusion log — *even if some member never
        consumed them* (this is the semantics change over the pure
        min-cursor pruning: backlog is now bounded at roughly two epochs
        of attestations instead of growing forever behind an idle
        member) — and the per-epoch vote columns below the cutoff are
        deleted.  The evidence log is untouched (evidence never
        expires).  Cursors are rebased to the surviving rows below them
        so every member's unconsumed *live* suffix is preserved exactly;
        the rule depends only on shared view state, so grouped and
        per-node engines prune identically.
        """
        cutoff = epoch - INCLUSION_HORIZON_EPOCHS + 1
        for target_epoch in [
            e for e in self.attestations_by_epoch if e < cutoff
        ]:
            del self.attestations_by_epoch[target_epoch]
        self._inclusion_cursors = self._inclusion_log.expire_before(
            cutoff, self._inclusion_cursors
        )

    # ------------------------------------------------------------------
    def finalized_epochs(self) -> Set[int]:
        """Epochs whose checkpoint this node finalized."""
        return set(self.state.finalized_checkpoints)

    def finalized_checkpoints(self) -> Dict[int, Checkpoint]:
        """Finalized checkpoints keyed by epoch."""
        return dict(self.state.finalized_checkpoints)


def _rebased(cursors: Dict[int, int], dropped: int) -> Dict[int, int]:
    """``cursors`` after ``dropped`` rows left the front of their log."""
    if dropped <= 0:
        return cursors
    return {member: cursor - dropped for member, cursor in cursors.items()}


class MemberView:
    """A validator-specific facade over a shared view :class:`Node`.

    Everything except identity delegates to the underlying node; identity
    shows up in two places — ``validator_index`` itself and the proposer
    (and inclusion cursors) of :meth:`build_block` — plus the member-local
    inclusion queues.  Agents and result collectors treat it
    exactly like a node of its own.
    """

    __slots__ = ("node", "validator_index")

    def __init__(self, node: Node, validator_index: int) -> None:
        self.node = node
        self.validator_index = validator_index

    def __getattr__(self, name: str):
        return getattr(self.node, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemberView(validator={self.validator_index}, node={self.node.validator_index})"

    # -- identity-sensitive delegations --------------------------------
    def build_block(
        self,
        slot: int,
        parent: Optional[Root] = None,
        branch_tag: str = "",
        max_attestations: int = 128,
        include_evidence: bool = True,
        proposer: Optional[int] = None,
    ) -> BeaconBlock:
        return self.node.build_block(
            slot,
            parent=parent,
            branch_tag=branch_tag,
            max_attestations=max_attestations,
            include_evidence=include_evidence,
            proposer=proposer if proposer is not None else self.validator_index,
        )

    @property
    def attestations_for_inclusion(self) -> List[Attestation]:
        return self.node.inclusion_view(self.validator_index)

    @property
    def evidence_for_inclusion(self) -> List[SlashingEvidence]:
        return self.node.evidence_view(self.validator_index)
