"""Validator registry entries.

Each validator owns a stake (initially 32 ETH), an inactivity score, and a
handful of lifecycle flags (slashed, exited).  A :class:`Validator` is a
detached record (what :func:`make_registry` returns); a chain state keeps
its registry as a :class:`Registry` of columns, one array per field, which
every epoch stage reads and writes in place.  The registry-wide helpers at
the bottom compute stake-weighted proportions, which is the notion of
"proportion" used throughout the paper (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.spec.config import SpecConfig

#: ``exit_epoch`` column value of a validator that has not exited.
NEVER = np.iinfo(np.int64).max


#: The per-validator fields, which are also the registry's column names.
_FIELDS = ("index", "stake", "inactivity_score", "slashed", "exit_epoch", "label")


class _Lifecycle:
    """The per-validator rules shared by detached records and row views."""

    __slots__ = ()

    stake: float
    exit_epoch: Optional[int]

    def is_active(self, epoch: int) -> bool:
        """Return True if the validator is part of the active set at ``epoch``."""
        return self.exit_epoch is None or epoch < self.exit_epoch

    def exit(self, epoch: int) -> None:
        """Mark the validator as exited starting at ``epoch`` (idempotent)."""
        if self.exit_epoch is None or epoch < self.exit_epoch:
            self.exit_epoch = epoch

    def apply_penalty(self, amount: float) -> float:
        """Subtract ``amount`` from the stake (floored at zero).

        Returns the amount actually deducted.
        """
        if amount < 0:
            raise ValueError("penalty amount must be non-negative")
        deducted = min(self.stake, amount)
        self.stake -= deducted
        return deducted

    def apply_reward(self, amount: float, cap: Optional[float] = None) -> float:
        """Add ``amount`` to the stake, optionally capping at ``cap``.

        Returns the amount actually credited.
        """
        if amount < 0:
            raise ValueError("reward amount must be non-negative")
        new_stake = self.stake + amount
        if cap is not None:
            new_stake = min(new_stake, cap)
        credited = new_stake - self.stake
        self.stake = new_stake
        return credited


@dataclass
class Validator(_Lifecycle):
    """A single validator registry entry, detached from any state."""

    index: int
    stake: float
    #: Inactivity score, always non-negative (Equation 1).
    inactivity_score: int = 0
    #: Whether the validator has been slashed.
    slashed: bool = False
    #: Epoch at which the validator exited (ejected or slashed); ``None``
    #: while the validator is still part of the active set.
    exit_epoch: Optional[int] = None
    #: Free-form tag used by experiments to group validators (e.g. "honest",
    #: "byzantine").  The protocol itself never reads it.
    label: str = "honest"

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"validator index must be non-negative, got {self.index}")
        if self.stake < 0:
            raise ValueError(f"validator stake must be non-negative, got {self.stake}")
        if self.inactivity_score < 0:
            raise ValueError("inactivity score must be non-negative")


class ValidatorRow(_Lifecycle):
    """Row ``position`` of a :class:`Registry`.

    Reads and writes of its attributes go straight to the registry's
    columns, so ``state.validators[i].stake = x`` updates the state.  An
    integral inactivity score reads back as an ``int`` (the spec's
    convention), and a validator that never exited reads ``exit_epoch``
    as ``None``.  The index is fixed for the registry's lifetime.
    """

    __slots__ = ("_registry", "_position")

    def __init__(self, registry: "Registry", position: int) -> None:
        self._registry = registry
        self._position = position

    @property
    def index(self) -> int:
        return int(self._registry.index[self._position])

    @property
    def stake(self) -> float:
        return float(self._registry.stake[self._position])

    @stake.setter
    def stake(self, value: float) -> None:
        self._registry.stake[self._position] = value

    @property
    def inactivity_score(self) -> Union[int, float]:
        score = float(self._registry.inactivity_score[self._position])
        return int(score) if score.is_integer() else score

    @inactivity_score.setter
    def inactivity_score(self, value: float) -> None:
        self._registry.inactivity_score[self._position] = value

    @property
    def slashed(self) -> bool:
        return bool(self._registry.slashed[self._position])

    @slashed.setter
    def slashed(self, value: bool) -> None:
        self._registry.slashed[self._position] = value

    @property
    def exit_epoch(self) -> Optional[int]:
        epoch = int(self._registry.exit_epoch[self._position])
        return None if epoch == NEVER else epoch

    @exit_epoch.setter
    def exit_epoch(self, value: Optional[int]) -> None:
        self._registry.exit_epoch[self._position] = NEVER if value is None else value

    @property
    def label(self) -> str:
        return str(self._registry.label[self._position])

    @label.setter
    def label(self, value: str) -> None:
        self._registry.set_label(self._position, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Validator, ValidatorRow)):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"ValidatorRow({fields})"


class Registry:
    """The validator registry of one state, stored as parallel columns.

    Position ``p`` of every column describes one validator:

    * ``index`` (int64): its validator index, read-only and shared by
      copies, since no epoch stage renumbers validators;
    * ``stake`` and ``inactivity_score`` (float64);
    * ``exit_epoch`` (int64, :data:`NEVER` while the validator is active);
    * ``slashed`` (bool);
    * ``label`` (str): the experiment's tag, never read by the protocol.

    This is the layout of the consensus spec's ``BeaconState``, where
    ``balances`` and ``inactivity_scores`` are lists parallel to
    ``validators``: epoch processing hands the columns to the
    :mod:`repro.core.backend` kernels and writes their results back with
    whole-array copies.  As a sequence the registry yields
    :class:`ValidatorRow` views, so per-validator code keeps working.
    """

    __slots__ = _FIELDS + ("_lookup",)

    def __init__(
        self,
        index: np.ndarray,
        stake: np.ndarray,
        inactivity_score: np.ndarray,
        exit_epoch: np.ndarray,
        slashed: np.ndarray,
        label: np.ndarray,
        lookup: Optional[np.ndarray] = None,
    ) -> None:
        self.index = index
        self.stake = stake
        self.inactivity_score = inactivity_score
        self.exit_epoch = exit_epoch
        self.slashed = slashed
        self.label = label
        if lookup is None:
            index.flags.writeable = False
            # Validator index -> registry position (-1 where absent).
            size = int(index.max()) + 1 if index.shape[0] else 0
            lookup = np.full(size, -1, dtype=np.int64)
            lookup[index] = np.arange(index.shape[0], dtype=np.int64)
            lookup.flags.writeable = False
        self._lookup = lookup

    @classmethod
    def of(cls, validators: Union["Registry", Iterable[Validator]]) -> "Registry":
        """Columns holding a copy of ``validators`` (records or a registry)."""
        if isinstance(validators, Registry):
            return validators.copy()
        records = list(validators)
        return cls(
            index=np.array([v.index for v in records], dtype=np.int64),
            stake=np.array([v.stake for v in records], dtype=float),
            inactivity_score=np.array(
                [v.inactivity_score for v in records], dtype=float
            ),
            exit_epoch=np.array(
                [NEVER if v.exit_epoch is None else v.exit_epoch for v in records],
                dtype=np.int64,
            ),
            slashed=np.array([v.slashed for v in records], dtype=bool),
            label=np.array([v.label for v in records], dtype=str),
        )

    def copy(self) -> "Registry":
        """An independent registry with the same values (a view's fork)."""
        return Registry(
            index=self.index,
            stake=self.stake.copy(),
            inactivity_score=self.inactivity_score.copy(),
            exit_epoch=self.exit_epoch.copy(),
            slashed=self.slashed.copy(),
            label=self.label.copy(),
            lookup=self._lookup,
        )

    def set_label(self, position: int, value: str) -> None:
        """Set one label, widening the column if ``value`` does not fit."""
        if len(value) > self.label.dtype.itemsize // 4:
            self.label = self.label.astype(f"<U{len(value)}")
        self.label[position] = value

    # ------------------------------------------------------------------
    # Masks over registry positions
    # ------------------------------------------------------------------
    def active_mask(self, epoch: int) -> np.ndarray:
        """Validators in the active set at ``epoch``."""
        return self.exit_epoch > epoch

    def positions_of(self, indices: Iterable[int]) -> np.ndarray:
        """Registry position of each validator index (-1 where absent)."""
        values = as_index_array(indices)
        lookup = self._lookup
        inside = (values >= 0) & (values < lookup.shape[0])
        if np.count_nonzero(inside) == values.shape[0]:
            return lookup[values]
        positions = np.full(values.shape[0], -1, dtype=np.int64)
        positions[inside] = lookup[values[inside]]
        return positions

    def mask_of(self, indices: Iterable[int]) -> np.ndarray:
        """Positions of the validators in ``indices`` (absent ones ignored)."""
        positions = self.positions_of(indices)
        mask = np.zeros(self.index.shape[0], dtype=bool)
        mask[positions[positions >= 0]] = True
        return mask

    def exit(self, mask: np.ndarray, epoch: int) -> None:
        """:meth:`Validator.exit` at ``epoch`` for every position in ``mask``."""
        np.minimum(self.exit_epoch, epoch, out=self.exit_epoch, where=mask)

    # ------------------------------------------------------------------
    # Sequence of row views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.index.shape[0]

    def __getitem__(
        self, position: Union[int, slice]
    ) -> Union[ValidatorRow, List[ValidatorRow]]:
        if isinstance(position, slice):
            return [ValidatorRow(self, p) for p in range(len(self))[position]]
        n = len(self)
        if not -n <= position < n:
            raise IndexError("registry position out of range")
        return ValidatorRow(self, position % n)

    def __iter__(self) -> Iterator[ValidatorRow]:
        return (ValidatorRow(self, p) for p in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Registry):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _FIELDS
        )

    def __repr__(self) -> str:
        return f"Registry({len(self)} validators)"


def as_index_array(indices: Iterable[int]) -> np.ndarray:
    """``indices`` (an array, sequence, set or iterable) as an int64 array."""
    if isinstance(indices, np.ndarray):
        return indices.astype(np.int64, copy=False)
    if not isinstance(indices, (list, tuple)):
        indices = list(indices)
    return np.array(indices, dtype=np.int64)


def ordered_sum(values: np.ndarray) -> float:
    """The left-to-right float sum of ``values``, as a plain ``for`` loop adds.

    ``np.sum`` adds pairwise, and Python 3.12's built-in ``sum`` over floats
    switched to compensated summation, so neither reproduces sequential
    accumulation on every interpreter; a running sum does.
    """
    if values.shape[0] == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def make_registry(
    n_validators: int,
    config: Optional[SpecConfig] = None,
    byzantine_fraction: float = 0.0,
) -> List[Validator]:
    """Create a fresh validator registry.

    Parameters
    ----------
    n_validators:
        Total number of validators.
    config:
        Protocol configuration (defaults to mainnet); sets the initial stake.
    byzantine_fraction:
        Fraction of the registry to label ``"byzantine"``.  The Byzantine
        validators are placed at the end of the registry, which matches the
        paper's convention of a proportion ``beta_0`` of Byzantine stake.
    """
    cfg = config or SpecConfig.mainnet()
    if n_validators <= 0:
        raise ValueError("n_validators must be positive")
    if not 0.0 <= byzantine_fraction < 1.0:
        raise ValueError("byzantine_fraction must lie in [0, 1)")
    n_byzantine = int(round(n_validators * byzantine_fraction))
    registry = []
    for index in range(n_validators):
        label = "byzantine" if index >= n_validators - n_byzantine else "honest"
        registry.append(
            Validator(index=index, stake=cfg.max_effective_balance, label=label)
        )
    return registry


def total_stake(validators: Iterable[Validator], epoch: Optional[int] = None) -> float:
    """Total stake of the given validators.

    If ``epoch`` is provided, only validators active at that epoch count.
    """
    if epoch is None:
        return sum(v.stake for v in validators)
    return sum(v.stake for v in validators if v.is_active(epoch))


def stake_proportion(
    subset: Sequence[Validator],
    registry: Sequence[Validator],
    epoch: Optional[int] = None,
) -> float:
    """Stake-weighted proportion of ``subset`` within ``registry``.

    This is the paper's notion of "proportion" (Section 2): the ratio of the
    subset's combined stake to the total staked value.  Returns 0 when the
    registry holds no stake.
    """
    denominator = total_stake(registry, epoch)
    if denominator == 0:
        return 0.0
    return total_stake(subset, epoch) / denominator


def byzantine_proportion(registry: Sequence[Validator], epoch: Optional[int] = None) -> float:
    """Stake proportion of validators labelled ``"byzantine"``."""
    byzantine = [v for v in registry if v.label == "byzantine"]
    return stake_proportion(byzantine, registry, epoch)
