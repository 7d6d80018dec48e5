"""Proposer selection and attester duty assignment.

Each epoch, 32 proposers are pseudo-randomly drawn (one per slot) and every
validator is assigned exactly one slot in which to attest (Section 3.2 of
the paper).  Real Ethereum derives this from RANDAO; here we use a seeded
deterministic shuffle so that simulations are reproducible and tests can
reason about duty schedules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.spec.config import SpecConfig
from repro.spec.validator import Validator


def _seed_int(seed: str, epoch: int, domain: str) -> int:
    """Derive a deterministic integer from a seed string, epoch and domain."""
    digest = hashlib.sha256(f"{seed}|{epoch}|{domain}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _deterministic_shuffle(items: List[int], seed_value: int) -> List[int]:
    """Deterministically shuffle ``items`` using a simple hash-based sort key.

    Each item's key is the first 8 bytes, read big-endian, of
    ``sha256(f"{seed_value}|{item}")``; items are ordered by key with a
    stable sort, so equal keys keep their input order.  The shared prefix
    is hashed once and copied per item, and the keys are sorted as one
    ``uint64`` array.  This avoids depending on ``random`` module state and
    keeps the assignment stable across Python versions.
    """
    prefix = hashlib.sha256(f"{seed_value}|".encode("utf-8"))
    digests = []
    for item in items:
        digest = prefix.copy()
        digest.update(f"{item}".encode("utf-8"))
        digests.append(digest.digest())
    # A sha256 digest is four 8-byte words; the key is the first.
    keys = np.frombuffer(b"".join(digests), dtype=">u8")[::4]
    return [items[i] for i in np.argsort(keys, kind="stable").tolist()]


@dataclass(frozen=True)
class EpochDuties:
    """Duties for one epoch: proposers per slot and attesters per slot."""

    epoch: int
    #: Validator index proposing at each slot of the epoch (length == slots_per_epoch).
    proposers: Sequence[int]
    #: For each slot offset within the epoch, the list of validator indices
    #: due to attest at that slot.  Every active validator appears exactly once.
    attestation_committees: Sequence[Sequence[int]]

    def proposer_for_slot(self, slot: int, slots_per_epoch: int) -> int:
        """Return the proposer index for an absolute ``slot``."""
        offset = slot % slots_per_epoch
        return self.proposers[offset]

    def committee_for_slot(self, slot: int, slots_per_epoch: int) -> Sequence[int]:
        """Return the attestation committee for an absolute ``slot``."""
        offset = slot % slots_per_epoch
        return self.attestation_committees[offset]

    def attestation_slot_of(self, validator_index: int, slots_per_epoch: int) -> Optional[int]:
        """Return the slot offset at which ``validator_index`` must attest.

        Returns ``None`` when the validator has no duty this epoch (it was
        not active when duties were computed).
        """
        for offset, committee in enumerate(self.attestation_committees):
            if validator_index in committee:
                return offset
        return None


class DutyScheduler:
    """Computes per-epoch proposer and attester duties."""

    def __init__(self, config: Optional[SpecConfig] = None, seed: str = "repro") -> None:
        self.config = config or SpecConfig.mainnet()
        self.seed = seed
        self._cache: Dict[int, EpochDuties] = {}

    def duties_for_epoch(
        self, epoch: int, validators: Sequence[Validator]
    ) -> EpochDuties:
        """Compute (or return cached) duties for ``epoch``.

        Only validators active at ``epoch`` are eligible.  Proposers are
        drawn (with replacement across slots) proportionally-ish to their
        presence in the shuffled list; attesters are split round-robin into
        one committee per slot.
        """
        if epoch in self._cache:
            return self._cache[epoch]
        active = [v.index for v in validators if v.is_active(epoch) and v.stake > 0]
        if not active:
            raise ValueError(f"no active validators at epoch {epoch}")
        slots = self.config.slots_per_epoch

        shuffle_seed = _seed_int(self.seed, epoch, "shuffle")
        shuffled = _deterministic_shuffle(active, shuffle_seed)

        proposer_seed = _seed_int(self.seed, epoch, "proposer")
        proposers = [
            shuffled[
                _seed_int(str(proposer_seed), slot_offset, "slot") % len(shuffled)
            ]
            for slot_offset in range(slots)
        ]

        duties = EpochDuties(
            epoch=epoch,
            proposers=tuple(proposers),
            # Round-robin: position p of the shuffle attests at slot p % slots.
            attestation_committees=tuple(
                tuple(shuffled[offset::slots]) for offset in range(slots)
            ),
        )
        self._cache[epoch] = duties
        return duties

    def clear_cache(self) -> None:
        """Drop cached duties (needed if the validator set changes mid-run)."""
        self._cache.clear()

    def proposer_in_first_slots(
        self,
        epoch: int,
        validators: Sequence[Validator],
        indices: Sequence[int],
        window: Optional[int] = None,
    ) -> bool:
        """Return True if any of ``indices`` proposes within the first ``window`` slots.

        This is the condition under which the probabilistic bouncing attack
        can continue for one more epoch (Section 5.3): a Byzantine proposer
        must be scheduled in one of the first ``j`` slots of the epoch.
        """
        window = window if window is not None else self.config.bouncing_window_slots
        duties = self.duties_for_epoch(epoch, validators)
        target = set(indices)
        return any(p in target for p in duties.proposers[:window])
