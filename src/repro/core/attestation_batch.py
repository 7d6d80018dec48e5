"""Flat-array attestation batches: the committee-level wire format.

The slot-level simulator used to move one Python :class:`Attestation`
object per validator through the network and ingest it once per node —
O(N²) object churn per slot.  Honest committee members that share a view
produce *identical* attestation content (same head, same FFG link), so a
whole committee's votes compress into one :class:`AttestationBatch`: the
shared ``(slot, head, source, target)`` content plus a flat ``int64``
array of validator indices.  Agents emit batches per committee, the
transport carries them as single messages, and a view node ingests them
in one call (bulk :meth:`repro.core.ffg.FlatVotePool.add_batch`,
vectorized fork-choice latest-message update, array-append activity
accounting).

This module sits in ``core`` and therefore knows nothing about the spec
layer: roots and checkpoints are duck-typed (anything hashable with
``.epoch``/``.root`` works; the spec layer passes
:class:`repro.spec.types.Root` and :class:`repro.spec.checkpoint.Checkpoint`).

:class:`AttestationColumns` is the growable column store view nodes use
to record *seen* checkpoint votes per target epoch — the array-native
replacement for the old per-epoch ``List[Attestation]`` whose set scans
made ``active_indices_for_epoch`` O(votes) Python per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional, Sequence, Tuple

import numpy as np


class RootInterner:
    """Dense integer ids for hashable root keys.

    The one implementation behind every root-id space in the codebase
    (the FFG vote pool's, the fork-choice store's).  Ids are append-only
    and local to one interner — ids from different interners must never
    be compared, which is why each consumer exposes its own
    ``root_id_of``-style lookup instead of the raw interner.
    """

    __slots__ = ("_ids", "_roots")

    def __init__(self) -> None:
        self._ids: dict = {}
        self._roots: list = []

    def intern(self, root: Hashable) -> int:
        """Return the dense id of ``root``, interning it if new."""
        root_id = self._ids.get(root)
        if root_id is None:
            root_id = len(self._roots)
            self._ids[root] = root_id
            self._roots.append(root)
        return root_id

    def lookup(self, root: Hashable) -> Optional[int]:
        """The id of ``root`` if it was ever interned, else ``None``."""
        return self._ids.get(root)

    def root_of(self, root_id: int) -> Hashable:
        """The root key interned under ``root_id``."""
        return self._roots[root_id]

    @property
    def roots(self) -> list:
        """The interned roots in id order (treat as read-only)."""
        return self._roots

    def clone(self) -> "RootInterner":
        """An independent interner with the same id assignments.

        Used when a view splits: the child must keep interning into the
        same id space it inherited, without new ids leaking back into the
        parent.
        """
        copy = RootInterner()
        copy._ids = dict(self._ids)
        copy._roots = list(self._roots)
        return copy

    def __len__(self) -> int:
        return len(self._roots)


@dataclass(frozen=True, eq=False)
class AttestationBatch:
    """One committee's identical attestations, in flat-array form.

    All validators in ``validators`` cast the same block vote
    (``head_root``) and the same checkpoint vote (``source -> target``)
    at ``slot``.  A Byzantine equivocation is two batches, one per
    branch.

    Equality and hashing are content-based (the dataclass-generated
    versions would choke on the array field).
    """

    slot: int
    #: The shared block vote (LMD-GHOST head of the emitting view).
    head_root: Hashable
    #: The shared FFG source checkpoint (``.epoch`` / ``.root``).
    source: Any
    #: The shared FFG target checkpoint (``.epoch`` / ``.root``).
    target: Any
    #: Validator indices casting this vote (``int64``, non-empty).
    validators: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttestationBatch):
            return NotImplemented
        return (
            self.slot == other.slot
            and self.head_root == other.head_root
            and self.source == other.source
            and self.target == other.target
            and np.array_equal(self.validators, other.validators)
        )

    def __hash__(self) -> int:
        return hash(
            (self.slot, self.head_root, self.source, self.target, self.validators.tobytes())
        )

    def __post_init__(self) -> None:
        array = np.asarray(self.validators, dtype=np.int64)
        if array.ndim != 1 or array.shape[0] == 0:
            raise ValueError("an attestation batch needs a non-empty 1-D validator array")
        # (A lone vote's row is read directly: a reduction costs more.)
        if (array[0] if array.shape[0] == 1 else array.min()) < 0:
            # Rows index per-validator arrays; a negative index would wrap.
            raise ValueError("validator indices must be non-negative")
        object.__setattr__(self, "validators", array)
        if self.slot < 0:
            raise ValueError("attestation slot must be non-negative")
        if self.target.epoch < self.source.epoch:
            raise ValueError("batch target epoch must not precede its source epoch")

    # ------------------------------------------------------------------
    @property
    def target_epoch(self) -> int:
        """Epoch of the shared FFG target."""
        return int(self.target.epoch)

    def __len__(self) -> int:
        return int(self.validators.shape[0])

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AttestationBatch(slot={self.slot}, n={len(self)}, "
            f"src_epoch={self.source.epoch}, tgt_epoch={self.target.epoch})"
        )


class AttestationColumns:
    """Growable flat columns of checkpoint votes seen for one target epoch.

    Rows are appended in ingestion order (which keeps array scans
    equivalent to the list walks they replace); roots are stored as
    dense integer ids interned by the caller (a view node reuses its
    vote pool's interner so ids agree across structures).
    """

    __slots__ = ("validators", "source_epochs", "source_roots", "target_roots", "count")

    def __init__(self, initial_capacity: int = 64) -> None:
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        self.validators = np.empty(initial_capacity, dtype=np.int64)
        self.source_epochs = np.empty(initial_capacity, dtype=np.int64)
        self.source_roots = np.empty(initial_capacity, dtype=np.int64)
        self.target_roots = np.empty(initial_capacity, dtype=np.int64)
        self.count = 0

    # ------------------------------------------------------------------
    def _ensure_capacity(self, extra: int) -> None:
        needed = self.count + extra
        capacity = self.validators.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("validators", "source_epochs", "source_roots", "target_roots"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=np.int64)
            new[: self.count] = old[: self.count]
            setattr(self, name, new)

    def append(
        self, validator: int, source_epoch: int, source_root_id: int, target_root_id: int
    ) -> None:
        """Record one vote row."""
        self._ensure_capacity(1)
        row = self.count
        self.validators[row] = validator
        self.source_epochs[row] = source_epoch
        self.source_roots[row] = source_root_id
        self.target_roots[row] = target_root_id
        self.count = row + 1

    def extend(
        self,
        validators: np.ndarray,
        source_epoch: int,
        source_root_id: int,
        target_root_id: int,
    ) -> None:
        """Record a batch of rows sharing the same link (one slice write)."""
        n = int(np.asarray(validators).shape[0])
        if n == 0:
            return
        self._ensure_capacity(n)
        start, end = self.count, self.count + n
        self.validators[start:end] = validators
        self.source_epochs[start:end] = source_epoch
        self.source_roots[start:end] = source_root_id
        self.target_roots[start:end] = target_root_id
        self.count = end

    # ------------------------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(validators, source_epochs, source_root_ids, target_root_ids)``
        array views of the recorded rows (treat as read-only)."""
        n = self.count
        return (
            self.validators[:n],
            self.source_epochs[:n],
            self.source_roots[:n],
            self.target_roots[:n],
        )

    def clone(self) -> "AttestationColumns":
        """An independent snapshot of the recorded rows.

        Copies exactly the occupied prefix (capacity restarts at the row
        count), so forking a view group does not duplicate growth slack.
        """
        copy = AttestationColumns(initial_capacity=max(self.count, 1))
        n = self.count
        copy.validators[:n] = self.validators[:n]
        copy.source_epochs[:n] = self.source_epochs[:n]
        copy.source_roots[:n] = self.source_roots[:n]
        copy.target_roots[:n] = self.target_roots[:n]
        copy.count = n
        return copy

    def voters_for_target_root(self, target_root_id: int) -> np.ndarray:
        """Validator index of every vote row carrying ``target_root_id``.

        A validator that voted for the target more than once appears once
        per row; callers that need a set deduplicate.
        """
        n = self.count
        return self.validators[:n][self.target_roots[:n] == target_root_id]

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0
