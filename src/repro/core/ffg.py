"""Flat-array FFG vote accumulation and finality bookkeeping.

This module is the array-native half of the Casper FFG
justification/finalization engine; the other half is the
``finality_epoch_update`` kernel pair in :mod:`repro.core.backend`.

:class:`FlatVotePool` replaces the per-validator vote dicts that
``spec/finality.py`` used to re-scan once per target every epoch.  Votes
are stored as preallocated flat ``int64`` arrays — one row per
``(validator, target epoch)``, deduplicated on insert so a validator's
stake can never count twice towards a target epoch — and every insert
also bumps an incremental per-``(source epoch, source root, target
root)`` link tally, making :meth:`FlatVotePool.add_vote` O(1) and
handing a whole epoch's votes to the kernel as ready-made arrays with no
dict walk at all.  Roots can be any hashable, mutually orderable keys
(the spec layer uses :class:`repro.spec.types.Root`); they are interned
to dense integer ids so the kernels work on pure integer arrays.

:class:`FinalityTracker` (moved here from ``repro.core.stake_engine``,
which re-exports it) is the *streaming* form of the branch-level
justification rule the paper analyses — one active-stake ratio per epoch,
two consecutive justified epochs finalize — with the threshold test in
:func:`justified_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.attestation_batch import RootInterner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core is below spec)
    from repro.spec.config import SpecConfig

#: A supermajority link key: ``(source_epoch, source_root_id, target_root_id)``.
LinkKey = Tuple[int, int, int]


class _EpochVotes:
    """The votes recorded for one target epoch, as growable flat arrays."""

    __slots__ = (
        "validators",
        "source_epochs",
        "source_roots",
        "target_roots",
        "count",
        "rows",
        "links",
    )

    def __init__(self, capacity: int) -> None:
        self.validators = np.empty(capacity, dtype=np.int64)
        self.source_epochs = np.empty(capacity, dtype=np.int64)
        self.source_roots = np.empty(capacity, dtype=np.int64)
        self.target_roots = np.empty(capacity, dtype=np.int64)
        self.count = 0
        #: validator index -> row, the O(1) double-vote guard.
        self.rows: Dict[int, int] = {}
        #: link key -> [vote count, insertion-time stake tally].
        self.links: Dict[LinkKey, List[float]] = {}

    def grow(self) -> None:
        capacity = 2 * self.validators.shape[0]
        for name in ("validators", "source_epochs", "source_roots", "target_roots"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=np.int64)
            new[: self.count] = old[: self.count]
            setattr(self, name, new)

    def clone(self) -> "_EpochVotes":
        """Independent copy of this epoch's rows, guards and link tallies."""
        copy = _EpochVotes(max(self.count, 1))
        n = self.count
        copy.validators[:n] = self.validators[:n]
        copy.source_epochs[:n] = self.source_epochs[:n]
        copy.source_roots[:n] = self.source_roots[:n]
        copy.target_roots[:n] = self.target_roots[:n]
        copy.count = n
        copy.rows = dict(self.rows)
        copy.links = {key: list(tally) for key, tally in self.links.items()}
        return copy


class FlatVotePool:
    """Flat-array accumulator of FFG checkpoint votes.

    Parameters
    ----------
    initial_capacity:
        Rows preallocated per target epoch; arrays double when full.
    stakes:
        Optional per-validator stake array.  When given, each insert adds
        ``stakes[validator]`` to the vote's link tally, so
        :meth:`link_stake` answers supermajority-style queries in O(1).
        The tallies reflect *insertion-time* stakes — exact whenever
        stakes are static over the vote window (the Figure-10 workloads);
        callers whose stakes drift mid-epoch (the ``BeaconState``
        adapter) recompute supports from current stakes inside
        :meth:`repro.core.backend.StakeBackend.finality_epoch_update`
        instead.

    A validator's first vote per target epoch wins; later conflicting
    votes are rejected (double votes are slashable, never double-counted).
    """

    def __init__(
        self,
        initial_capacity: int = 64,
        stakes: Optional[Sequence[float]] = None,
    ) -> None:
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        self._initial_capacity = int(initial_capacity)
        self._stakes = None if stakes is None else np.asarray(stakes, dtype=float)
        self._interner = RootInterner()
        self._rank_cache: Optional[np.ndarray] = None
        self._epochs: Dict[int, _EpochVotes] = {}

    def clone(self) -> "FlatVotePool":
        """An independent pool with the same votes, links and root ids.

        The interner is duplicated so both sides keep interning into the
        id space they inherited without sharing it — required when a view
        group splits and each child accumulates votes on its own.
        """
        copy = FlatVotePool(
            initial_capacity=self._initial_capacity,
            stakes=None if self._stakes is None else self._stakes.copy(),
        )
        copy._interner = self._interner.clone()
        copy._rank_cache = None if self._rank_cache is None else self._rank_cache.copy()
        copy._epochs = {epoch: bucket.clone() for epoch, bucket in self._epochs.items()}
        return copy

    @property
    def weighted(self) -> bool:
        """True when inserts tally link stake (the pool was given ``stakes``)."""
        return self._stakes is not None

    # ------------------------------------------------------------------
    # Root interning
    # ------------------------------------------------------------------
    def intern_root(self, root: Hashable) -> int:
        """Return the dense integer id of ``root``, interning it if new."""
        return self._interner.intern(root)

    def lookup_root(self, root: Hashable) -> Optional[int]:
        """The id of ``root`` if it was ever interned, else ``None``."""
        return self._interner.lookup(root)

    def root_of(self, root_id: int) -> Hashable:
        """The root key interned under ``root_id``."""
        return self._interner.root_of(root_id)

    def root_count(self) -> int:
        """Number of distinct roots interned so far."""
        return len(self._interner)

    def root_ranks(self) -> np.ndarray:
        """Array mapping root id -> rank in the roots' natural sort order.

        The kernels order targets and sources by checkpoint, which for a
        fixed epoch means by root; interning order is arbitrary, so this
        translation keeps the flat engine's iteration order identical to
        sorting the original root keys.  Recomputed only when new roots
        were interned since the last call (ids are append-only).
        """
        roots = self._interner.roots
        if self._rank_cache is None or self._rank_cache.shape[0] != len(roots):
            order = sorted(range(len(roots)), key=roots.__getitem__)
            ranks = np.empty(len(order), dtype=np.int64)
            for rank, root_id in enumerate(order):
                ranks[root_id] = rank
            self._rank_cache = ranks
        return self._rank_cache

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add_vote(
        self,
        validator_index: int,
        source_epoch: int,
        source_root: Hashable,
        target_epoch: int,
        target_root: Hashable,
    ) -> bool:
        """Record one checkpoint vote; returns ``True`` if it counted.

        O(1): one dict probe for the double-vote guard, one row append,
        one link-tally bump.
        """
        bucket = self._epochs.get(target_epoch)
        if bucket is None:
            bucket = _EpochVotes(self._initial_capacity)
            self._epochs[target_epoch] = bucket
        if validator_index in bucket.rows:
            return False
        if bucket.count == bucket.validators.shape[0]:
            bucket.grow()
        row = bucket.count
        bucket.validators[row] = validator_index
        bucket.source_epochs[row] = source_epoch
        bucket.source_roots[row] = self.intern_root(source_root)
        bucket.target_roots[row] = self.intern_root(target_root)
        bucket.rows[validator_index] = row
        bucket.count = row + 1
        key = (
            int(source_epoch),
            int(bucket.source_roots[row]),
            int(bucket.target_roots[row]),
        )
        tally = bucket.links.get(key)
        if tally is None:
            tally = [0, 0.0]
            bucket.links[key] = tally
        tally[0] += 1
        if self._stakes is not None:
            tally[1] += float(self._stakes[validator_index])
        return True

    def add_batch(
        self,
        validators: "np.ndarray",
        source_epoch: int,
        source_root: Hashable,
        target_epoch: int,
        target_root: Hashable,
    ) -> int:
        """Record a batch of votes sharing one ``source -> target`` link.

        The batch is the committee-aggregate case: every validator in
        ``validators`` casts the identical checkpoint vote.  Rows are
        appended in batch order, the double-vote guard applies per
        validator exactly as in :meth:`add_vote` (first vote per target
        epoch wins, duplicates within the batch included), and the link
        tally is bumped once for the whole batch.  Returns the number of
        votes that counted.
        """
        bucket = self._epochs.get(target_epoch)
        if bucket is None:
            bucket = _EpochVotes(self._initial_capacity)
            self._epochs[target_epoch] = bucket
        rows = bucket.rows
        row = bucket.count
        accepted: List[int] = []
        for validator in np.asarray(validators, dtype=np.int64).tolist():
            if validator in rows:
                continue
            rows[validator] = row
            row += 1
            accepted.append(validator)
        if not accepted:
            return 0
        count = len(accepted)
        while bucket.count + count > bucket.validators.shape[0]:
            bucket.grow()
        source_id = self.intern_root(source_root)
        target_id = self.intern_root(target_root)
        start, end = bucket.count, bucket.count + count
        accepted_arr = np.asarray(accepted, dtype=np.int64)
        bucket.validators[start:end] = accepted_arr
        bucket.source_epochs[start:end] = source_epoch
        bucket.source_roots[start:end] = source_id
        bucket.target_roots[start:end] = target_id
        bucket.count = end
        key = (int(source_epoch), source_id, target_id)
        tally = bucket.links.get(key)
        if tally is None:
            tally = [0, 0.0]
            bucket.links[key] = tally
        tally[0] += count
        if self._stakes is not None:
            tally[1] += float(self._stakes[accepted_arr].sum())
        return count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def epochs(self) -> List[int]:
        """Target epochs currently holding votes."""
        return list(self._epochs)

    def vote_count(self, target_epoch: int) -> int:
        """Number of distinct validators that voted at ``target_epoch``."""
        bucket = self._epochs.get(target_epoch)
        return 0 if bucket is None else bucket.count

    def total_votes(self) -> int:
        """Number of recorded votes across all target epochs."""
        return sum(bucket.count for bucket in self._epochs.values())

    def vote_arrays(
        self, target_epoch: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The epoch's votes as ``(validators, source_epochs, source_root_ids,
        target_root_ids)`` array views, or ``None`` when no vote was cast.

        The views alias the pool's storage — treat them as read-only.
        """
        bucket = self._epochs.get(target_epoch)
        if bucket is None or bucket.count == 0:
            return None
        n = bucket.count
        return (
            bucket.validators[:n],
            bucket.source_epochs[:n],
            bucket.source_roots[:n],
            bucket.target_roots[:n],
        )

    def has_vote(self, target_epoch: int, validator_index: int) -> bool:
        """True if ``validator_index`` already voted at ``target_epoch``."""
        bucket = self._epochs.get(target_epoch)
        return bucket is not None and validator_index in bucket.rows

    def link_keys(self, target_epoch: int) -> Iterable[LinkKey]:
        """The distinct ``(source_epoch, source_root_id, target_root_id)``
        links voted for at ``target_epoch``."""
        bucket = self._epochs.get(target_epoch)
        return () if bucket is None else bucket.links.keys()

    def target_root_ids(self, target_epoch: int) -> List[int]:
        """Distinct target root ids voted for at ``target_epoch``."""
        bucket = self._epochs.get(target_epoch)
        if bucket is None:
            return []
        return sorted({key[2] for key in bucket.links})

    def link_count(
        self,
        target_epoch: int,
        source_epoch: int,
        source_root: Hashable,
        target_root: Hashable,
    ) -> int:
        """Votes recorded for the exact link, in O(1)."""
        tally = self._link_tally(target_epoch, source_epoch, source_root, target_root)
        return 0 if tally is None else int(tally[0])

    def link_stake(
        self,
        target_epoch: int,
        source_epoch: int,
        source_root: Hashable,
        target_root: Hashable,
    ) -> float:
        """Insertion-time stake recorded for the exact link, in O(1).

        Requires the pool to have been built with a ``stakes`` array.
        """
        if self._stakes is None:
            raise ValueError("link_stake needs a pool constructed with stakes")
        tally = self._link_tally(target_epoch, source_epoch, source_root, target_root)
        return 0.0 if tally is None else float(tally[1])

    def _link_tally(
        self,
        target_epoch: int,
        source_epoch: int,
        source_root: Hashable,
        target_root: Hashable,
    ) -> Optional[List[float]]:
        bucket = self._epochs.get(target_epoch)
        if bucket is None:
            return None
        source_id = self._interner.lookup(source_root)
        target_id = self._interner.lookup(target_root)
        if source_id is None or target_id is None:
            return None
        return bucket.links.get((int(source_epoch), source_id, target_id))

    # ------------------------------------------------------------------
    def clear_before(self, target_epoch: int) -> None:
        """Drop votes for target epochs strictly before ``target_epoch``."""
        for stale in [epoch for epoch in self._epochs if epoch < target_epoch]:
            del self._epochs[stale]


# ----------------------------------------------------------------------
# Ratio-threshold finality (the branch-level rule of the leak/MC layers)
# ----------------------------------------------------------------------
def justified_at(active_ratio: float, supermajority: float) -> bool:
    """The branch-level justification test: ratio meets the supermajority."""
    return active_ratio >= supermajority


@dataclass
class FinalityTracker:
    """Justification/finalization bookkeeping of one simulated branch.

    Mirrors the FFG rule the paper analyses: an epoch is *justified* when
    the active-stake ratio reaches the supermajority (the
    :func:`justified_at` test), and two consecutive justified epochs
    finalize (the first of the pair, reported at the second).  Tracks the
    first threshold crossing and the first finalization.
    """

    supermajority: float
    threshold_epoch: Optional[int] = None
    finalization_epoch: Optional[int] = None
    finalized: bool = False
    previous_justified: bool = False
    previous_active_ratio: float = 0.0

    @classmethod
    def for_config(cls, config: "Optional[SpecConfig]" = None) -> "FinalityTracker":
        from repro.spec.config import SpecConfig

        cfg = config or SpecConfig.mainnet()
        return cls(supermajority=cfg.supermajority_fraction)

    def observe(self, epoch: int, active_ratio: float) -> Tuple[bool, bool]:
        """Record one epoch's active ratio; returns ``(justified, finalized_now)``."""
        justified = justified_at(active_ratio, self.supermajority)
        finalized_now = False
        if justified and self.threshold_epoch is None:
            self.threshold_epoch = epoch
        if justified and self.previous_justified and not self.finalized:
            self.finalized = True
            finalized_now = True
            self.finalization_epoch = epoch
        self.previous_justified = justified
        self.previous_active_ratio = active_ratio
        return justified, finalized_now
