"""Slashing: detection of equivocating checkpoint votes and punishment.

The slashing-based attack of Section 5.2.1 has Byzantine validators attest
on two branches in the same epoch — a double vote (Casper FFG rule I).
Before GST the evidence cannot reach honest proposers across the partition,
so the attackers operate unpunished; once communication is restored, any
honest proposer that has seen both attestations includes the evidence in a
block and the offender is slashed: it loses part of its stake and is
ejected from the validator set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.attestation_batch import AttestationBatch
from repro.core.backend import SlashingRules, StakeBackend, get_backend
from repro.spec.attestation import Attestation
from repro.spec.checkpoint import Checkpoint, FFGVote
from repro.spec.state import BeaconState


@dataclass(frozen=True)
class SlashingEvidence:
    """A provable slashable offence: two conflicting attestations."""

    validator_index: int
    first: Attestation
    second: Attestation

    def __post_init__(self) -> None:
        if self.first.validator_index != self.validator_index:
            raise ValueError("evidence attestations must come from the accused validator")
        if self.second.validator_index != self.validator_index:
            raise ValueError("evidence attestations must come from the accused validator")
        if not self.first.is_slashable_with(self.second):
            raise ValueError("the two attestations are not a slashable pair")

    @property
    def is_double_vote(self) -> bool:
        """True when the offence is a double vote (rule I)."""
        return self.first.is_double_vote_with(self.second)

    @property
    def is_surround_vote(self) -> bool:
        """True when the offence is a surround vote (rule II)."""
        return self.first.is_surround_vote_with(self.second)


class SlashingDetector:
    """Observes attestations and produces slashing evidence.

    Each (honest) node runs one detector over the attestations it has seen.
    Attestations on branches a node has not observed (e.g. across a
    partition before GST) never reach its detector — which is exactly why
    the attack of Section 5.2.1 goes unpunished until after GST.

    Only the first piece of evidence per validator is kept (one offence is
    enough to slash).  It pairs the new attestation with the *first*
    earlier vote of that validator, in arrival order, that conflicts with
    it.  A vote repeating a link the validator already cast can never be
    that first conflicting vote (its earlier twin conflicts with the same
    votes and arrived first), so the detector keeps one vote per distinct
    link — and, a second link at the same target being a double vote, at
    most one per validator and target epoch:

    * ``_first[target_epoch, validator]`` is the id of the vote group (one
      observed attestation or batch) that cast the kept vote, 0 for none;
      group ids rise in arrival order;
    * ``_max_target`` / ``_max_source`` are each validator's highest kept
      target and source epochs (the target is pinned above every epoch
      once the validator is accused).

    A row whose kept vote at its target has the same link is a no-op, and
    a row above its validator's highest target whose source is at or
    above the highest source can neither double nor surround a kept vote,
    so it is kept without a scan.  :meth:`observe_batch` settles both
    cases for a whole committee with array operations; only the remaining
    rows read the validator's kept votes, and the first conflicting one
    is the one with the smallest group id.
    """

    def __init__(self) -> None:
        self._first = np.zeros((0, 0), dtype=np.int64)
        self._max_target = np.zeros(0, dtype=np.int64)
        self._max_source = np.zeros(0, dtype=np.int64)
        #: Vote groups by id (id 0 is the "no vote" sentinel), with each
        #: group's interned link id and source epoch as arrays.
        self._groups: List[Union[Attestation, AttestationBatch, None]] = [None]
        self._group_link = np.full(8, -1, dtype=np.int64)
        self._group_source = np.full(8, -1, dtype=np.int64)
        self._link_ids: Dict[Tuple[Checkpoint, Checkpoint], int] = {}
        self._evidence: Dict[int, SlashingEvidence] = {}

    def clone(self) -> "SlashingDetector":
        """An independent detector with the same observations (view splits).

        Attestations, batches and evidence are immutable, so only the
        containers are duplicated.
        """
        copy = SlashingDetector()
        copy._first = self._first.copy()
        copy._max_target = self._max_target.copy()
        copy._max_source = self._max_source.copy()
        copy._groups = list(self._groups)
        copy._group_link = self._group_link.copy()
        copy._group_source = self._group_source.copy()
        copy._link_ids = dict(self._link_ids)
        copy._evidence = dict(self._evidence)
        return copy

    def observe(self, attestation: Attestation) -> Optional[SlashingEvidence]:
        """Record an attestation; return new evidence if it is slashable."""
        index = attestation.validator_index
        if index in self._evidence:
            return None
        source, target = attestation.ffg.source, attestation.ffg.target
        link = self._link_id(source, target)
        self._reserve(target.epoch, index)
        if self._group_link[self._first[target.epoch, index]] == link:
            return None
        group = self._add_group(attestation, link, source.epoch)
        return self._place(index, target.epoch, source.epoch, group)

    def observe_batch(self, batch: AttestationBatch) -> List[SlashingEvidence]:
        """Observe a whole committee batch; return the new evidence found.

        Exactly :meth:`observe` applied to the batch's attestations in
        validator order, with the scan-free rows settled in bulk.
        """
        validators = batch.validators
        target, source = batch.target.epoch, batch.source.epoch
        link = self._link_id(batch.source, batch.target)
        if target >= self._first.shape[0]:
            self._reserve(target, 0)
        try:
            kept = self._first[target][validators]
        except IndexError:
            self._reserve(target, int(validators.max()))
            kept = self._first[target][validators]
        # (count_nonzero is the cheapest all-test on the tiny batches that
        # blocks carry.)
        rows = validators.shape[0]
        twin = self._group_link[kept] == link
        if np.count_nonzero(twin) == rows:
            return []
        group = self._add_group(batch, link, source)
        fresh = (self._max_target[validators] < target) & (
            self._max_source[validators] <= source
        )
        if np.count_nonzero(fresh) < rows:
            rest = validators[~(twin | fresh)]
            validators = validators[fresh]
        else:
            rest = None
        self._first[target][validators] = group
        self._max_target[validators] = target
        self._max_source[validators] = source
        if rest is None:
            return []
        # All rows of one validator share a link, hence a class, so keeping
        # the fresh rows first leaves every other row's outcome intact.
        evidence: List[SlashingEvidence] = []
        for index in rest.tolist():
            if index in self._evidence:
                continue
            if self._group_link[self._first[target, index]] == link:
                continue  # an earlier row of this batch kept the vote
            found = self._place(index, target, source, group)
            if found is not None:
                evidence.append(found)
        return evidence

    def pending_evidence(self) -> List[SlashingEvidence]:
        """Evidence collected so far (whether or not already included in a block)."""
        return list(self._evidence.values())

    # ------------------------------------------------------------------
    def _place(
        self, index: int, target: int, source: int, group: int
    ) -> Optional[SlashingEvidence]:
        """Keep vote ``group`` of ``index`` unless it conflicts with a kept one.

        The caller has ruled out an accused validator and a kept twin.
        """
        highest_target = int(self._max_target[index])
        highest_source = int(self._max_source[index])
        if not (highest_target < target and highest_source <= source):
            column = self._first[:, index]
            targets = np.flatnonzero(column)
            groups = column[targets]
            sources = self._group_source[groups]
            conflicts = (
                (targets == target)  # a kept vote with another link: rule I
                | ((sources < source) & (target < targets))
                | ((source < sources) & (targets < target))
            )
            if conflicts.any():
                evidence = SlashingEvidence(
                    validator_index=index,
                    first=self._attestation(int(groups[conflicts].min()), index),
                    second=self._attestation(group, index),
                )
                self._evidence[index] = evidence
                self._max_target[index] = _ACCUSED
                return evidence
        self._first[target, index] = group
        self._max_target[index] = max(highest_target, target)
        self._max_source[index] = max(highest_source, source)
        return None

    def _attestation(self, group: int, index: int) -> Attestation:
        """The attestation of ``index`` that vote group ``group`` stands for."""
        entry = self._groups[group]
        if isinstance(entry, Attestation):
            return entry
        return Attestation(
            validator_index=index,
            slot=entry.slot,
            head_root=entry.head_root,
            ffg=FFGVote(source=entry.source, target=entry.target),
        )

    def _link_id(self, source: Checkpoint, target: Checkpoint) -> int:
        key = (source, target)
        link = self._link_ids.get(key)
        if link is None:
            link = len(self._link_ids)
            self._link_ids[key] = link
        return link

    def _add_group(
        self, entry: Union[Attestation, AttestationBatch], link: int, source: int
    ) -> int:
        group = len(self._groups)
        self._groups.append(entry)
        if group == self._group_link.shape[0]:
            self._group_link = _grown(self._group_link, 2 * group)
            self._group_source = _grown(self._group_source, 2 * group)
        self._group_link[group] = link
        self._group_source[group] = source
        return group

    def _reserve(self, target: int, index: int) -> None:
        """Grow the tables to hold target epoch ``target`` and validator ``index``."""
        rows, width = self._first.shape
        if target < rows and index < width:
            return
        if target >= rows:
            rows = max(target + 1, 2 * rows)
        if index >= width:
            width = max(index + 1, 2 * width)
        first = np.zeros((rows, width), dtype=np.int64)
        first[: self._first.shape[0], : self._first.shape[1]] = self._first
        self._first = first
        self._max_target = _grown(self._max_target, width)
        self._max_source = _grown(self._max_source, width)


#: ``_max_target`` of an accused validator: above every epoch, so no later
#: row of it passes as a fresh vote.
_ACCUSED = np.iinfo(np.int64).max


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` extended to ``size`` entries, the new ones set to -1."""
    grown = np.full(size, -1, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


@dataclass
class SlashingOutcome:
    """Result of applying slashings to a state."""

    slashed_indices: List[int] = field(default_factory=list)
    total_penalty: float = 0.0


def apply_slashing(
    state: BeaconState,
    validator_indices: Iterable[int],
    backend: Union[str, StakeBackend] = "numpy",
) -> SlashingOutcome:
    """Slash the given validators: charge the penalty and eject them.

    A slashed validator loses ``min_slashing_penalty_fraction`` of its stake
    immediately (the correlation penalty of the real protocol is not
    modelled — the paper only relies on slashing implying ejection and some
    stake loss) and exits the validator set at the next epoch.

    Validators that already left the active set — slashed earlier, or
    ejected via the 16.75-ETH rule — are skipped: a validator cannot be
    charged a penalty after exiting, mirroring the ejection ordering of the
    shared kernel (:mod:`repro.core.backend`), which freezes ejected stakes.

    The arithmetic runs on the shared flat-array kernel
    (:meth:`~repro.core.backend.StakeBackend.slashing_epoch_update`) over
    the registry columns; this function marks the requested positions and
    schedules the exits.
    """
    outcome = SlashingOutcome()
    # De-duplicated target indices, keeping the caller's order for the
    # reported indices (evidence order in detect_and_slash).
    requested = np.array(list(dict.fromkeys(validator_indices)), dtype=np.int64)
    if requested.shape[0] == 0:
        return outcome

    registry = state.validators
    positions = registry.positions_of(requested)
    if np.any(positions < 0):
        raise KeyError("slashing a validator index absent from the registry")
    slashable = np.zeros(len(registry), dtype=bool)
    slashable[positions] = True

    rules = SlashingRules.from_config(state.config)
    kernel_outcome = get_backend(backend).slashing_epoch_update(
        registry.stake,
        slashable,
        registry.slashed,
        ~registry.active_mask(state.current_epoch),
        rules,
    )
    np.copyto(registry.stake, kernel_outcome.stakes)
    np.copyto(registry.slashed, kernel_outcome.slashed)
    newly = kernel_outcome.newly_slashed
    registry.exit(newly, state.current_epoch + 1)
    outcome.slashed_indices = requested[newly[positions]].tolist()
    outcome.total_penalty = kernel_outcome.total_penalty
    return outcome


def detect_and_slash(
    state: BeaconState,
    attestations: Sequence[Attestation],
    detector: Optional[SlashingDetector] = None,
) -> Tuple[SlashingOutcome, List[SlashingEvidence]]:
    """Convenience wrapper: run detection over ``attestations`` then slash.

    Returns the slashing outcome and the list of evidence found.  Used by
    branch-level experiments that replay all attestations seen after GST.
    """
    det = detector or SlashingDetector()
    evidence: List[SlashingEvidence] = []
    for attestation in attestations:
        found = det.observe(attestation)
        if found is not None:
            evidence.append(found)
    outcome = apply_slashing(state, [e.validator_index for e in evidence])
    return outcome, evidence
