"""Casper FFG justification and finalization.

Checkpoint votes (source → target links) are accumulated per target
checkpoint and weighted by the attesting validators' stake.  A checkpoint
becomes *justified* when links from an already-justified source reach a
supermajority (> 2/3 of the active stake).  A justified checkpoint becomes
*finalized* when the checkpoint of the immediately following epoch is also
justified with the former as source — the "two consecutive justified
checkpoints" rule the paper describes in Section 3.2.

The heavy lifting is array-native: :class:`FFGVotePool` is a thin
checkpoint-interning adapter over :class:`repro.core.ffg.FlatVotePool`
(flat int arrays, O(1) per vote, no per-target dict rescans) and
:func:`process_justification` hands one epoch's vote arrays to the
:meth:`repro.core.backend.StakeBackend.finality_epoch_update` kernel —
the same numpy-fast-path / bit-identical-python-reference pair as the
incentive stages — then replays the returned transitions onto the
:class:`BeaconState`.  Stakes and eligibility come straight from the
state's registry columns, so no per-validator Python runs here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.attestation_batch import AttestationBatch
from repro.core.backend import FinalityRules, StakeBackend, get_backend
from repro.core.ffg import FlatVotePool
from repro.spec.attestation import Attestation
from repro.spec.checkpoint import Checkpoint, FFGVote
from repro.spec.state import BeaconState


@dataclass
class JustificationResult:
    """Outcome of processing the FFG votes of one epoch."""

    newly_justified: List[Checkpoint] = field(default_factory=list)
    newly_finalized: List[Checkpoint] = field(default_factory=list)

    @property
    def justified_any(self) -> bool:
        return bool(self.newly_justified)

    @property
    def finalized_any(self) -> bool:
        return bool(self.newly_finalized)


class FFGVotePool:
    """Accumulates checkpoint votes, deduplicated per validator and target epoch.

    A validator's stake counts at most once towards any given target epoch
    (double votes are slashable, not double-counted).

    Thin adapter translating :class:`Checkpoint` votes to the flat-array
    :class:`repro.core.ffg.FlatVotePool` (exposed as :attr:`flat`), which
    stores them as preallocated int arrays with per-link tallies updated
    incrementally on insert.  The dict/set views below are reconstructed
    on demand for inspection and tests; epoch processing never touches
    them — :func:`process_justification` reads the arrays directly.
    """

    def __init__(self) -> None:
        #: The underlying flat-array accumulator.
        self.flat = FlatVotePool()

    def clone(self) -> "FFGVotePool":
        """An independent pool with the same recorded votes (view splits)."""
        copy = FFGVotePool()
        copy.flat = self.flat.clone()
        return copy

    def add_attestation(self, attestation: Attestation) -> bool:
        """Record the checkpoint vote carried by ``attestation``.

        Returns ``True`` if this is the first vote of the validator for the
        target epoch (later conflicting votes are ignored for counting
        purposes; slashing detection is handled elsewhere).
        """
        return self.add_vote(attestation.validator_index, attestation.ffg)

    def add_vote(self, validator_index: int, vote: FFGVote) -> bool:
        """Record a bare FFG vote (used by epoch-level simulations)."""
        return self.flat.add_vote(
            validator_index,
            vote.source.epoch,
            vote.source.root,
            vote.target.epoch,
            vote.target.root,
        )

    def add_batch(self, batch: "AttestationBatch") -> int:
        """Record a committee batch's identical checkpoint votes in bulk.

        One call per batch instead of one per validator: the flat pool
        appends all rows with slice writes and bumps the shared link
        tally once.  Returns the number of votes that counted (first
        vote per validator and target epoch wins, as for single votes).
        """
        return self.flat.add_batch(
            batch.validators,
            batch.source.epoch,
            batch.source.root,
            batch.target.epoch,
            batch.target.root,
        )

    def votes_for_target_epoch(self, epoch: int) -> Dict[int, FFGVote]:
        """Return the recorded votes (validator index → vote) for ``epoch``.

        Reconstructed from the flat arrays on demand — an inspection view,
        not the hot path (``process_justification`` used to call this once
        per target, copying the whole dict each time).
        """
        votes = self.flat.vote_arrays(epoch)
        if votes is None:
            return {}
        validators, source_epochs, source_roots, target_roots = votes
        root_of = self.flat.root_of
        return {
            int(validator): FFGVote(
                source=Checkpoint(epoch=int(source_epoch), root=root_of(source_root)),
                target=Checkpoint(epoch=epoch, root=root_of(target_root)),
            )
            for validator, source_epoch, source_root, target_root in zip(
                validators.tolist(),
                source_epochs.tolist(),
                source_roots.tolist(),
                target_roots.tolist(),
            )
        }

    def voters_for_link(self, source: Checkpoint, target: Checkpoint) -> Set[int]:
        """Validator indices that voted for the exact ``source → target`` link."""
        votes = self.flat.vote_arrays(target.epoch)
        if votes is None:
            return set()
        source_id = self.flat.lookup_root(source.root)
        target_id = self.flat.lookup_root(target.root)
        if source_id is None or target_id is None:
            return set()
        validators, source_epochs, source_roots, target_roots = votes
        mask = (
            (source_epochs == source.epoch)
            & (source_roots == source_id)
            & (target_roots == target_id)
        )
        return set(validators[mask].tolist())

    def targets_at_epoch(self, epoch: int) -> Set[Checkpoint]:
        """Distinct target checkpoints voted for at ``epoch``."""
        return {
            Checkpoint(epoch=epoch, root=self.flat.root_of(root_id))
            for root_id in self.flat.target_root_ids(epoch)
        }

    def clear_before(self, epoch: int) -> None:
        """Drop votes for target epochs strictly before ``epoch`` (pruning)."""
        self.flat.clear_before(epoch)


def link_support(
    state: BeaconState,
    pool: FFGVotePool,
    source: Checkpoint,
    target: Checkpoint,
    epoch: Optional[int] = None,
) -> float:
    """Stake supporting the supermajority link ``source → target``."""
    return state.stake_of(pool.voters_for_link(source, target), epoch=epoch)


def is_supermajority(state: BeaconState, stake: float, epoch: Optional[int] = None) -> bool:
    """True if ``stake`` exceeds the supermajority fraction of the active stake."""
    total = state.total_active_stake(epoch)
    if total <= 0:
        return False
    return stake / total > state.config.supermajority_fraction


def process_justification(
    state: BeaconState,
    pool: FFGVotePool,
    epoch: int,
    backend: Union[str, StakeBackend] = "numpy",
) -> JustificationResult:
    """Run justification and finalization for the target checkpoints of ``epoch``.

    The function inspects every distinct target checkpoint voted for at
    ``epoch``.  A target is justified when the link from an already
    justified source gathers a supermajority of the active stake.  When the
    source of a newly justified target is the justified checkpoint of
    ``epoch - 1``, that source is finalized (consecutive justification).

    The decision cascade and per-link stake tallies run on the
    ``finality_epoch_update`` kernel of ``backend`` (``"numpy"`` default,
    ``"python"`` reference) over the pool's flat vote arrays — one pass
    over the epoch's votes instead of a per-target dict rescan — and the
    resulting transitions are replayed onto ``state`` in kernel order,
    bit-identical to the per-checkpoint loop this replaces
    (``tests/test_finality_regression.py`` pins the port).
    """
    result = JustificationResult()
    flat = pool.flat
    votes = flat.vote_arrays(epoch)
    if votes is None:
        return result
    vote_validators, vote_source_epochs, vote_source_roots, vote_target_roots = votes

    registry = state.validators
    n = len(registry)
    # The kernel indexes stakes/eligible by registry *position*; the
    # registry's index column maps vote validator indices there, so a
    # registry stored out of ``Validator.index`` order still matches.
    vote_validators = registry.positions_of(vote_validators)
    if np.any(vote_validators < 0):
        raise KeyError("vote from a validator index absent from the registry")

    # Only the justified checkpoints the votes can actually reference
    # matter: the voted source epochs, plus the processed epoch itself
    # (for the target-already-justified skip).
    relevant_epochs = set(vote_source_epochs.tolist())
    relevant_epochs.add(epoch)
    justified_roots = {}
    for justified_epoch in relevant_epochs:
        checkpoint = state.justified_checkpoints.get(justified_epoch)
        if checkpoint is not None and state.is_justified(justified_epoch):
            justified_roots[justified_epoch] = flat.intern_root(checkpoint.root)

    kernel = get_backend(backend, population=n)
    update = kernel.finality_epoch_update(
        vote_validators,
        vote_source_epochs,
        vote_source_roots,
        vote_target_roots,
        registry.stake,
        registry.active_mask(epoch),
        FinalityRules.from_config(state.config),
        epoch=epoch,
        total_stake=state.total_active_stake(epoch),
        justified_roots=justified_roots,
        finalized_epoch=state.finalized_checkpoint.epoch,
        root_rank=flat.root_ranks(),
    )
    for event in update.events:
        target = Checkpoint(
            epoch=event.target_epoch, root=flat.root_of(event.target_root)
        )
        state.record_justification(target)
        result.newly_justified.append(target)
        if event.finalizes_source:
            source = Checkpoint(
                epoch=event.source_epoch, root=flat.root_of(event.source_root)
            )
            state.record_finalization(source)
            result.newly_finalized.append(source)
    return result


def conflicting_finalized_checkpoints(
    states: Iterable[BeaconState],
) -> List[Tuple[Checkpoint, Checkpoint]]:
    """Return pairs of finalized checkpoints that conflict across states.

    Two finalized checkpoints conflict when they occupy the same epoch with
    different roots, or more generally when neither chain's finalized
    checkpoint set is a superset of the other at the shared epochs.  This is
    the paper's Safety-violation detector: two correct validators whose
    finalized chains are not prefixes of one another.
    """
    state_list = list(states)
    conflicts: List[Tuple[Checkpoint, Checkpoint]] = []
    for i, state_a in enumerate(state_list):
        for state_b in state_list[i + 1 :]:
            shared_epochs = set(state_a.finalized_checkpoints) & set(
                state_b.finalized_checkpoints
            )
            for epoch in sorted(shared_epochs):
                checkpoint_a = state_a.finalized_checkpoints[epoch]
                checkpoint_b = state_b.finalized_checkpoints[epoch]
                if checkpoint_a != checkpoint_b:
                    conflicts.append((checkpoint_a, checkpoint_b))
    return conflicts


def safety_violated(states: Iterable[BeaconState]) -> bool:
    """True if any two states finalized conflicting checkpoints."""
    return bool(conflicting_finalized_checkpoints(states))
