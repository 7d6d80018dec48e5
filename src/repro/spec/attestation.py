"""Attestations: the votes cast by validators every epoch.

An attestation carries two votes (Section 3.2 of the paper):

* a **block vote** (``head_root``) used by the LMD-GHOST fork-choice rule,
* a **checkpoint vote** (``ffg``), a source→target link used by the FFG
  finality gadget to justify and finalize checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.spec.checkpoint import Checkpoint, FFGVote
from repro.spec.types import Root

if TYPE_CHECKING:  # pragma: no cover - typing only (core sits below spec)
    from repro.core.attestation_batch import AttestationBatch


@dataclass(frozen=True)
class Attestation:
    """A single validator's attestation for one slot."""

    validator_index: int
    slot: int
    #: Block vote: the head of the attester's candidate chain.
    head_root: Root
    #: Checkpoint vote: justified source -> current-epoch target.
    ffg: FFGVote

    def __post_init__(self) -> None:
        if self.validator_index < 0:
            raise ValueError("validator index must be non-negative")
        if self.slot < 0:
            raise ValueError("attestation slot must be non-negative")

    @property
    def source(self) -> Checkpoint:
        """The FFG source checkpoint."""
        return self.ffg.source

    @property
    def target(self) -> Checkpoint:
        """The FFG target checkpoint."""
        return self.ffg.target

    @property
    def target_epoch(self) -> int:
        """Epoch of the FFG target (the epoch this attestation votes for)."""
        return self.ffg.target.epoch

    def is_double_vote_with(self, other: "Attestation") -> bool:
        """True if the two attestations form a slashable double vote.

        Both must come from the same validator and vote for the same target
        epoch with different FFG votes (Casper FFG rule I, the offence the
        slashing-based attack of Section 5.2.1 commits).
        """
        return (
            self.validator_index == other.validator_index
            and self.ffg.conflicts_as_double_vote(other.ffg)
        )

    def is_surround_vote_with(self, other: "Attestation") -> bool:
        """True if one of the two attestations surrounds the other.

        Both must come from the same validator (Casper FFG rule II).
        """
        if self.validator_index != other.validator_index:
            return False
        return self.ffg.surrounds(other.ffg) or other.ffg.surrounds(self.ffg)

    def is_slashable_with(self, other: "Attestation") -> bool:
        """True if the pair of attestations is slashable (rule I or rule II)."""
        return self.is_double_vote_with(other) or self.is_surround_vote_with(other)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Attestation(v={self.validator_index}, slot={self.slot}, "
            f"head={self.head_root.hex[:8]}, "
            f"src_epoch={self.source.epoch}, tgt_epoch={self.target.epoch})"
        )


def attestations_from_batch(batch: "AttestationBatch") -> List[Attestation]:
    """Materialize the per-validator attestations a batch stands for.

    The shared ``FFGVote`` is built once and referenced by every row, so
    expanding a batch costs one small object per validator — used only
    where per-validator objects are genuinely needed (block inclusion,
    the slashing detector); the array paths never expand.
    """
    ffg = FFGVote(source=batch.source, target=batch.target)
    slot, head_root = batch.slot, batch.head_root
    return [
        Attestation(validator_index=validator, slot=slot, head_root=head_root, ffg=ffg)
        for validator in batch.validators.tolist()
    ]
