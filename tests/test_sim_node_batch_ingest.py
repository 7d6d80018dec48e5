"""Batch-native ingest equals row-by-row ingest.

A view node ingests every vote as an attestation batch: gossip arrives
as batches, the attestations a block carries are regrouped into batches
(consecutive rows of one vote), a batch with an unknown head pends whole,
and the inclusion log keeps batches unexpanded.  The oracle here is a
node that expands every batch and takes each row on its own through the
spec-level row APIs (``Store.on_attestation``,
``FFGVotePool.add_attestation``, ``SlashingDetector.observe``,
``AttestationColumns.append``), with its own row pending queue, fed the
same random blocks, gossip batches, lone votes, equivocations,
out-of-order deliveries, ``split_clone`` calls, proposals and epoch
processing.  After every step the two must agree on every structure the
ingest touches.  The inclusion log is also checked on its own against a
plain row list.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np
import pytest

from repro.core.attestation_batch import AttestationBatch
from repro.core.ffg import FlatVotePool
from repro.network.message import Message, MessageKind
from repro.sim.node import InclusionLog, Node
from repro.spec.attestation import Attestation, attestations_from_batch
from repro.spec.block import BeaconBlock
from repro.spec.checkpoint import Checkpoint, FFGVote
from repro.spec.config import SpecConfig
from repro.spec.types import GENESIS_ROOT
from repro.spec.validator import make_registry

N_VALIDATORS = 12
MEMBERS = (0, 1, 2, 3)


def _one_row(attestation: Attestation) -> AttestationBatch:
    return AttestationBatch(
        slot=attestation.slot,
        head_root=attestation.head_root,
        source=attestation.source,
        target=attestation.target,
        validators=np.asarray([attestation.validator_index]),
    )


class RowByRowNode(Node):
    """The oracle: every attestation is received, pended and ingested alone.

    Its pending queue holds rows, and its inclusion log one-row batches
    expanded to the very rows it ingested.
    """

    def receive(self, message):
        if message.kind is MessageKind.ATTESTATION_BATCH:
            self._receive_carried(attestations_from_batch(message.payload))
        else:
            super().receive(message)

    def _receive_carried(self, attestations):
        for attestation in attestations:
            if attestation.head_root in self.store.tree:
                self._ingest_row(attestation)
            else:
                self.pending.attestations.append(attestation)

    def _ingest_row(self, attestation: Attestation) -> None:
        self.store.on_attestation(attestation)
        self.pool.add_attestation(attestation)
        flat = self.pool.flat
        self._seen_columns(attestation.target_epoch).append(
            attestation.validator_index,
            attestation.source.epoch,
            flat.intern_root(attestation.source.root),
            flat.intern_root(attestation.target.root),
        )
        self._inclusion_log.append(_one_row(attestation), (attestation,))
        evidence = self.detector.observe(attestation)
        if evidence is not None:
            self._evidence_log.append(evidence)

    def _drain_pending(self):
        progress = True
        while progress:
            progress = False
            blocks, self.pending.blocks = self.pending.blocks, []
            for block in blocks:
                if block.parent_root not in self.store.tree:
                    self.pending.blocks.append(block)
                    continue
                if self.store.on_block(block):
                    self._receive_carried(block.attestations)
                    for index in block.slashing_evidence:
                        epoch = self.config.epoch_of_slot(block.slot)
                        self.slashings_observed[epoch].add(index)
                progress = True
            rows, self.pending.attestations = self.pending.attestations, []
            for row in rows:
                if row.head_root in self.store.tree:
                    self._ingest_row(row)
                    progress = True
                else:
                    self.pending.attestations.append(row)

    def split_clone(self, members, validator_index):
        clone = super().split_clone(members, validator_index)
        clone.__class__ = RowByRowNode
        return clone


def _rows(entries) -> List[Attestation]:
    rows: List[Attestation] = []
    for entry in entries:
        if isinstance(entry, AttestationBatch):
            rows.extend(attestations_from_batch(entry))
        else:
            rows.append(entry)
    return rows


def _assert_same_view(grouped: Node, oracle: Node) -> None:
    assert grouped.store.latest_messages == oracle.store.latest_messages
    assert grouped.pool.flat.epochs() == oracle.pool.flat.epochs()
    for epoch in oracle.pool.flat.epochs():
        for ours, theirs in zip(
            grouped.pool.flat.vote_arrays(epoch), oracle.pool.flat.vote_arrays(epoch)
        ):
            np.testing.assert_array_equal(ours, theirs)
        assert grouped.pool.votes_for_target_epoch(epoch) == (
            oracle.pool.votes_for_target_epoch(epoch)
        )
    assert sorted(grouped.attestations_by_epoch) == sorted(oracle.attestations_by_epoch)
    for epoch, columns in oracle.attestations_by_epoch.items():
        for ours, theirs in zip(grouped.attestations_by_epoch[epoch].arrays(), columns.arrays()):
            np.testing.assert_array_equal(ours, theirs)
    assert grouped.pending.blocks == oracle.pending.blocks
    assert _rows(grouped.pending.attestations) == _rows(oracle.pending.attestations)
    assert grouped._evidence_log == oracle._evidence_log
    assert grouped.detector.pending_evidence() == oracle.detector.pending_evidence()
    for member in MEMBERS:
        assert grouped.inclusion_view(member) == oracle.inclusion_view(member)
        assert grouped.evidence_view(member) == oracle.evidence_view(member)


class _Stream:
    """Random blocks, batches and equivocations over a small epoch range."""

    def __init__(self, seed: int, config: SpecConfig) -> None:
        self.rng = random.Random(seed)
        self.config = config
        self.blocks: List[BeaconBlock] = []
        self.expansions: List[List[Attestation]] = []

    def _head(self):
        # Mostly delivered-or-soon blocks; sometimes a root never delivered.
        if not self.blocks or self.rng.random() < 0.1:
            return GENESIS_ROOT if self.rng.random() < 0.5 else BeaconBlock.create(
                slot=999, proposer_index=0, parent_root=GENESIS_ROOT,
                branch_tag=f"ghost-{self.rng.random()}",
            ).root
        return self.rng.choice(self.blocks).root

    def _checkpoint(self, epoch: int) -> Checkpoint:
        roots = [GENESIS_ROOT] + [b.root for b in self.blocks[-3:]]
        return Checkpoint(epoch=epoch, root=self.rng.choice(roots))

    def batch(self, slot: int) -> AttestationBatch:
        epoch = self.config.epoch_of_slot(slot)
        source = self.rng.randint(max(epoch - 3, 0), epoch)
        validators = [self.rng.randrange(N_VALIDATORS) for _ in range(self.rng.randint(1, 6))]
        return AttestationBatch(
            slot=slot,
            head_root=self._head(),
            source=self._checkpoint(source),
            target=self._checkpoint(epoch),
            validators=np.asarray(validators),
        )

    def single(self, slot: int) -> Attestation:
        epoch = self.config.epoch_of_slot(slot)
        return Attestation(
            validator_index=self.rng.randrange(N_VALIDATORS),
            slot=slot,
            head_root=self._head(),
            ffg=FFGVote(
                source=self._checkpoint(self.rng.randint(max(epoch - 3, 0), epoch)),
                target=self._checkpoint(epoch),
            ),
        )

    def block(self, slot: int) -> BeaconBlock:
        """A block carrying slices of earlier expansions and singles."""
        carried: List[Attestation] = []
        for _ in range(self.rng.randint(0, 4)):
            if self.expansions and self.rng.random() < 0.75:
                rows = self.rng.choice(self.expansions)
                start = self.rng.randrange(len(rows))
                carried.extend(rows[start : start + self.rng.randint(1, len(rows))])
            else:
                carried.append(self.single(slot))
        parent = self.rng.choice(
            [GENESIS_ROOT] + [b.root for b in self.blocks if b.slot < slot]
        )
        block = BeaconBlock.create(
            slot=slot,
            proposer_index=self.rng.randrange(N_VALIDATORS),
            parent_root=parent,
            attestations=tuple(carried),
            branch_tag=str(len(self.blocks)),
        )
        self.blocks.append(block)
        return block


@pytest.mark.parametrize("seed", range(30))
def test_grouped_carried_ingest_matches_row_by_row(seed):
    config = SpecConfig.minimal()
    registry = make_registry(N_VALIDATORS, config)
    grouped = Node(validator_index=0, registry=registry, config=config, members=MEMBERS)
    oracle = RowByRowNode(
        validator_index=0, registry=make_registry(N_VALIDATORS, config),
        config=config, members=MEMBERS,
    )
    stream = _Stream(seed, config)
    held: List[BeaconBlock] = []  # blocks delivered late (out of order)
    rng = stream.rng
    split_at = rng.randrange(5, 60)
    for step in range(80):
        slot = 1 + step // 3
        roll = rng.random()
        messages: List[Message] = []
        if roll < 0.35:
            block = stream.block(slot)
            if rng.random() < 0.3:
                held.append(block)
            else:
                messages.append(Message.block(block, sender=0, sent_at=0.0))
        elif roll < 0.6:
            batch = stream.batch(slot)
            stream.expansions.append(attestations_from_batch(batch))
            messages.append(Message.attestation_batch(batch, sender=0, sent_at=0.0))
        elif roll < 0.7:
            lone = _one_row(stream.single(slot))
            messages.append(Message.attestation_batch(lone, sender=0, sent_at=0.0))
        elif roll < 0.8 and held:
            messages.append(Message.block(held.pop(0), sender=0, sent_at=0.0))
        elif roll < 0.9:
            proposer = rng.choice(MEMBERS)
            limit = rng.randint(1, 12)
            ours = grouped.build_block(slot, max_attestations=limit, proposer=proposer)
            theirs = oracle.build_block(slot, max_attestations=limit, proposer=proposer)
            assert ours == theirs
        else:
            epoch = config.epoch_of_slot(slot)
            assert grouped.process_epoch_end(epoch) == oracle.process_epoch_end(epoch)
        for message in messages:
            grouped.receive(message)
            oracle.receive(message)
        if step == split_at:
            grouped = grouped.split_clone(MEMBERS, 0)
            oracle = oracle.split_clone(MEMBERS, 0)
        _assert_same_view(grouped, oracle)


def test_carried_rows_of_one_batch_ingest_as_one_batch():
    """Rows expanded from one batch reach the detector in one call."""
    config = SpecConfig.minimal()
    node = Node(validator_index=0, registry=make_registry(8, config), config=config)
    batch = AttestationBatch(
        slot=1, head_root=GENESIS_ROOT,
        source=Checkpoint(epoch=0, root=GENESIS_ROOT),
        target=Checkpoint(epoch=0, root=GENESIS_ROOT),
        validators=np.arange(6),
    )
    rows = attestations_from_batch(batch)
    block = BeaconBlock.create(
        slot=1, proposer_index=0, parent_root=GENESIS_ROOT, attestations=tuple(rows)
    )
    calls = []
    observe_batch = node.detector.observe_batch
    node.detector.observe_batch = lambda b: calls.append(len(b)) or observe_batch(b)
    node.receive(Message.block(block, sender=0, sent_at=0.0))
    assert calls == [6]
    assert node.inclusion_view(0) == rows


def test_weighted_pool_is_refused():
    """Batch ingest tallies link stake per batch, so a weighted pool would
    diverge from row-by-row ingest; the node refuses one."""
    config = SpecConfig.minimal()
    node = Node(validator_index=0, registry=make_registry(8, config), config=config)
    node.pool.flat = FlatVotePool(stakes=np.ones(8))
    batch = AttestationBatch(
        slot=1, head_root=GENESIS_ROOT,
        source=Checkpoint(epoch=0, root=GENESIS_ROOT),
        target=Checkpoint(epoch=0, root=GENESIS_ROOT),
        validators=np.arange(3),
    )
    with pytest.raises(ValueError, match="unweighted"):
        node.receive(Message.attestation_batch(batch, sender=0, sent_at=0.0))


def test_batch_refuses_a_negative_validator_like_a_row():
    """Batch ingest indexes per-validator arrays directly, so a negative
    index must be refused up front, as :class:`Attestation` refuses it;
    a lone vote's one row is checked too."""
    for validators in ([3, -1], [-1]):
        with pytest.raises(ValueError, match="non-negative"):
            AttestationBatch(
                slot=1, head_root=GENESIS_ROOT,
                source=Checkpoint(epoch=0, root=GENESIS_ROOT),
                target=Checkpoint(epoch=0, root=GENESIS_ROOT),
                validators=np.asarray(validators),
            )


def test_drained_votes_keep_their_arrival_order():
    """A pending batch whose head lands is ingested in the same drain pass,
    before blocks that only become attachable in a later pass.

    Ingest order decides first-vote-wins in the FFG pool, the latest
    message in the store and the (first, second) order of slashing
    evidence.  Here a vote batch on ``b`` arrives first and pends, then
    ``d`` (child of ``c``, child of ``b``) and ``c`` pend, then ``b``
    lands: the drain adds ``c`` and ingests the batch in its first pass
    and adds ``d``, whose carried rows double-vote, only in the second.
    """
    config = SpecConfig.minimal()
    node = Node(validator_index=0, registry=make_registry(8, config), config=config)
    source = Checkpoint(epoch=0, root=GENESIS_ROOT)
    b = BeaconBlock.create(slot=5, proposer_index=1, parent_root=GENESIS_ROOT)
    c = BeaconBlock.create(slot=6, proposer_index=2, parent_root=b.root)
    double_votes = FFGVote(source=source, target=Checkpoint(epoch=1, root=c.root))
    carried = tuple(
        Attestation(validator_index=index, slot=6, head_root=c.root, ffg=double_votes)
        for index in (5, 6)
    )
    d = BeaconBlock.create(
        slot=7, proposer_index=3, parent_root=c.root, attestations=carried
    )
    early = AttestationBatch(
        slot=5, head_root=b.root, source=source,
        target=Checkpoint(epoch=1, root=b.root), validators=np.asarray([5, 6]),
    )
    node.receive(Message.attestation_batch(early, sender=5, sent_at=0.0))
    for block in (d, c, b):
        node.receive(Message.block(block, sender=0, sent_at=0.0))
    assert not node.pending.blocks and not node.pending.attestations

    votes = node.pool.votes_for_target_epoch(1)
    assert {index: vote.target.root for index, vote in votes.items()} == {
        5: b.root, 6: b.root,
    }
    assert {index: message.root for index, message in node.store.latest_messages.items()} == {
        5: c.root, 6: c.root,
    }
    assert [
        (evidence.validator_index, evidence.first.head_root, evidence.second.head_root)
        for evidence in node.evidence_view(0)
    ] == [(5, b.root, c.root), (6, b.root, c.root)]


# ----------------------------------------------------------------------
# The inclusion log against a plain row list
# ----------------------------------------------------------------------
def _entry(rng: random.Random, epoch: int):
    target = Checkpoint(epoch=epoch, root=GENESIS_ROOT)
    source = Checkpoint(epoch=max(epoch - 1, 0), root=GENESIS_ROOT)
    # Three in ten are lone votes.
    size = 1 if rng.random() < 0.3 else rng.randint(1, 7)
    return AttestationBatch(
        slot=epoch * 8, head_root=GENESIS_ROOT, source=source, target=target,
        validators=np.asarray([rng.randrange(50) for _ in range(size)]),
    )


@pytest.mark.parametrize("seed", range(40))
def test_inclusion_log_reads_like_a_row_list(seed):
    rng = random.Random(seed)
    log, plain = InclusionLog(), []
    log_cursors, plain_cursors = {}, {}
    epoch = 0
    for _ in range(150):
        roll = rng.random()
        if roll < 0.45:
            entry = _entry(rng, epoch)
            log.append(entry)
            plain.extend(_rows([entry]))
        elif roll < 0.75:
            who = rng.randrange(4)
            take = rng.randint(0, 10)
            ours = log.slice(log_cursors.get(who, 0), log_cursors.get(who, 0) + take)
            theirs = plain[plain_cursors.get(who, 0) : plain_cursors.get(who, 0) + take]
            assert ours == theirs
            log_cursors[who] = log_cursors.get(who, 0) + len(ours)
            plain_cursors[who] = plain_cursors.get(who, 0) + len(theirs)
        elif roll < 0.88:
            # Consumed-prefix pruning: a row list drops exactly the lowest
            # cursor's prefix; the log drops the whole entries below it.
            floor = min(plain_cursors.get(who, 0) for who in range(4))
            del plain[:floor]
            plain_cursors = {w: c - floor for w, c in plain_cursors.items()}
            floor = min(log_cursors.get(who, 0) for who in range(4))
            dropped = log.drop_before(floor)
            assert 0 <= dropped <= floor
            log_cursors = {w: c - dropped for w, c in log_cursors.items()}
        else:
            epoch += 1
            cutoff = epoch - 1
            keep = [a.target_epoch >= cutoff for a in plain]
            kept_before = [0]
            for k in keep:
                kept_before.append(kept_before[-1] + k)
            plain = [a for a, k in zip(plain, keep) if k]
            plain_cursors = {w: kept_before[c] for w, c in plain_cursors.items()}
            log_cursors = log.expire_before(cutoff, log_cursors)
        # Every member's unconsumed rows agree, and the log holds at most
        # the rest of one straddled entry beyond the row list.
        assert list(log)[len(log) - len(plain) :] == plain
        assert 0 <= len(log) - len(plain) < 7
        assert sorted(log_cursors) == sorted(plain_cursors)
        for who, cursor in log_cursors.items():
            assert len(log) - cursor == len(plain) - plain_cursors[who]
            assert log.slice(cursor, len(log)) == plain[plain_cursors[who] :]


def test_a_batch_is_expanded_once_for_every_proposer():
    log = InclusionLog()
    batch = AttestationBatch(
        slot=8, head_root=GENESIS_ROOT,
        source=Checkpoint(epoch=0, root=GENESIS_ROOT),
        target=Checkpoint(epoch=1, root=GENESIS_ROOT),
        validators=np.arange(10),
    )
    log.append(batch)
    first = log.slice(0, 4)
    second = log.slice(2, 10)
    assert first[2] is second[0]
    assert first == attestations_from_batch(batch)[:4]
