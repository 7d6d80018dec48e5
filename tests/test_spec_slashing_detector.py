"""The indexed slashing detector against the linear scan it replaced.

``LinearScanDetector`` is the original detector, kept here as the oracle:
it compares each attestation with every distinct earlier vote of its
validator, in arrival order, and reports the first slashable pair.  The
indexed :class:`SlashingDetector` must return exactly the same evidence —
the same pair, in the same order within a batch, and the same
``pending_evidence()`` — on any stream of single attestations, committee
batches (including batches that repeat a validator) and mid-stream
``clone()`` calls.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attestation_batch import AttestationBatch
from repro.spec.attestation import Attestation, attestations_from_batch
from repro.spec.checkpoint import Checkpoint, FFGVote
from repro.spec.slashing import SlashingDetector, SlashingEvidence
from repro.spec.types import Root


class LinearScanDetector:
    """The per-attestation linear scan (oracle)."""

    def __init__(self) -> None:
        self._seen: Dict[int, List[Attestation]] = defaultdict(list)
        self._evidence: Dict[int, SlashingEvidence] = {}

    def clone(self) -> "LinearScanDetector":
        copy = LinearScanDetector()
        for index, seen in self._seen.items():
            if seen:
                copy._seen[index] = list(seen)
        copy._evidence = dict(self._evidence)
        return copy

    def observe(self, attestation: Attestation) -> Optional[SlashingEvidence]:
        index = attestation.validator_index
        if index in self._evidence:
            return None
        for previous in self._seen[index]:
            if previous.ffg == attestation.ffg and previous.head_root == attestation.head_root:
                return None  # exact duplicate
            if previous.is_slashable_with(attestation):
                evidence = SlashingEvidence(
                    validator_index=index, first=previous, second=attestation
                )
                self._evidence[index] = evidence
                return evidence
        self._seen[index].append(attestation)
        return None

    def observe_batch(self, batch: AttestationBatch) -> List[SlashingEvidence]:
        evidence = []
        for attestation in attestations_from_batch(batch):
            found = self.observe(attestation)
            if found is not None:
                evidence.append(found)
        return evidence

    def pending_evidence(self) -> List[SlashingEvidence]:
        return list(self._evidence.values())


ROOTS = [Root.from_label(label) for label in ("a", "b", "c")]


def _checkpoint(epoch: int, root: int) -> Checkpoint:
    return Checkpoint(epoch=epoch, root=ROOTS[root])


@st.composite
def _votes(draw):
    """``(slot, head, source, target)`` over small epoch and root ranges."""
    target = draw(st.integers(0, 5))
    source = draw(st.integers(0, target))
    return (
        draw(st.integers(0, 3)),
        ROOTS[draw(st.integers(0, 1))],
        _checkpoint(source, draw(st.integers(0, 1))),
        _checkpoint(target, draw(st.integers(0, 2))),
    )


_validators = st.integers(0, 5)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("single"), _votes(), _validators),
        st.tuples(
            st.just("batch"), _votes(), st.lists(_validators, min_size=1, max_size=8)
        ),
        st.tuples(st.just("clone")),
    ),
    max_size=40,
)


def _apply(detector, operation):
    kind, (slot, head, source, target), who = operation
    if kind == "single":
        found = detector.observe(
            Attestation(
                validator_index=who,
                slot=slot,
                head_root=head,
                ffg=FFGVote(source=source, target=target),
            )
        )
        return [] if found is None else [found]
    return detector.observe_batch(
        AttestationBatch(
            slot=slot, head_root=head, source=source, target=target, validators=who
        )
    )


class TestIndexedDetectorMatchesLinearScan:
    @settings(max_examples=400, deadline=None)
    @given(_operations)
    def test_same_evidence_after_every_call(self, operations):
        oracle, detector = LinearScanDetector(), SlashingDetector()
        frozen = []  # (detector cloned from, its evidence at the clone)
        for operation in operations:
            if operation[0] == "clone":
                frozen.append((detector, detector.pending_evidence()))
                oracle, detector = oracle.clone(), detector.clone()
                continue
            assert _apply(detector, operation) == _apply(oracle, operation)
            assert detector.pending_evidence() == oracle.pending_evidence()
        for source, evidence in frozen:
            assert source.pending_evidence() == evidence

    def test_repeated_validator_in_a_batch_reports_once(self):
        detector = SlashingDetector()
        detector.observe_batch(
            AttestationBatch(
                slot=1, head_root=ROOTS[0], source=_checkpoint(0, 0),
                target=_checkpoint(1, 0), validators=[3],
            )
        )
        found = detector.observe_batch(
            AttestationBatch(
                slot=1, head_root=ROOTS[0], source=_checkpoint(0, 0),
                target=_checkpoint(1, 1), validators=[3, 3, 2, 3],
            )
        )
        assert [evidence.validator_index for evidence in found] == [3]
        assert len(detector.pending_evidence()) == 1

    def test_first_conflicting_vote_in_arrival_order(self):
        """A surround vote that arrived first wins over a later double vote."""
        detector = SlashingDetector()
        outer = Attestation(
            validator_index=0, slot=0, head_root=ROOTS[0],
            ffg=FFGVote(source=_checkpoint(0, 0), target=_checkpoint(4, 0)),
        )
        same_target = Attestation(
            validator_index=0, slot=0, head_root=ROOTS[0],
            ffg=FFGVote(source=_checkpoint(0, 0), target=_checkpoint(2, 0)),
        )
        assert detector.observe(outer) is None
        assert detector.observe(same_target) is None  # equal sources: no surround
        inner = Attestation(
            validator_index=0, slot=1, head_root=ROOTS[1],
            ffg=FFGVote(source=_checkpoint(1, 0), target=_checkpoint(2, 1)),
        )
        evidence = detector.observe(inner)
        assert evidence is not None
        assert evidence.first == outer  # surrounded by the earlier outer vote
        assert evidence.second == inner


@pytest.mark.parametrize("validators", [[0], [7, 2, 7], list(range(50))])
def test_batch_equals_its_rows_observed_one_by_one(validators):
    batch = AttestationBatch(
        slot=3, head_root=ROOTS[0], source=_checkpoint(0, 0),
        target=_checkpoint(1, 1), validators=np.asarray(validators),
    )
    rows_detector, batch_detector = SlashingDetector(), SlashingDetector()
    for detector in (rows_detector, batch_detector):
        detector.observe(
            Attestation(
                validator_index=7, slot=2, head_root=ROOTS[1],
                ffg=FFGVote(source=_checkpoint(0, 0), target=_checkpoint(1, 0)),
            )
        )
    by_rows = [
        found
        for found in map(rows_detector.observe, attestations_from_batch(batch))
        if found is not None
    ]
    assert batch_detector.observe_batch(batch) == by_rows
    assert batch_detector.pending_evidence() == rows_detector.pending_evidence()
