"""Flat-array stake-dynamics engine shared by the leak, Monte-Carlo and sim layers.

:class:`StakeEngine` holds the per-validator (or per-group) state of one
chain branch as flat NumPy arrays — stakes, inactivity scores, ejection
mask, optional stake weights — and advances it one epoch at a time through
a pluggable :mod:`repro.core.backend` kernel.
:class:`BatchedStakeEngine` adds a leading *trial* axis on top of the same
kernels: ``(trials, *entry_shape)`` state, one kernel call per epoch for
the whole batch, per-trial ``in_leak`` flags, and per-trial weighted
reductions — the engine the Monte-Carlo layer sweeps thousands of trials
on.  The
justification/finalization bookkeeping every branch-level simulation
repeats lives in :mod:`repro.core.ffg`; its streaming
:class:`~repro.core.ffg.FinalityTracker` is re-exported here for the
branch simulations that pair it with an engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

import numpy as np

from repro.core.backend import (
    EpochOutcome,
    RewardOutcome,
    RewardRules,
    SlashingEpochOutcome,
    SlashingRules,
    StakeBackend,
    StakeRules,
    get_backend,
)
from repro.core.backend import LeakFlag
from repro.core.ffg import FinalityTracker

__all__ = [
    "BatchedStakeEngine",
    "FinalityTracker",
    "StakeEngine",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core is below spec)
    from repro.spec.config import SpecConfig


class StakeEngine:
    """Vectorized epoch-by-epoch stake dynamics for one population.

    Parameters
    ----------
    stakes:
        Initial per-entry stakes (one entry per validator or per group).
    weights:
        Optional per-entry share of the total validator set; defaults to
        uniform.  Weighted totals are what the branch-level active-stake
        ratios use (a group ledger carries its group's weight, a
        per-validator engine carries ``1/n`` each).
    config:
        Protocol parameters; defaults to mainnet.
    backend:
        ``"numpy"`` (default), ``"python"``, ``"auto"`` (loop backend for
        tiny populations, vectorized otherwise), or a backend instance.
    """

    def __init__(
        self,
        stakes: Sequence[float],
        *,
        weights: Optional[Sequence[float]] = None,
        scores: Optional[Sequence[float]] = None,
        ejected: Optional[Sequence[bool]] = None,
        config: "Optional[SpecConfig]" = None,
        backend: Union[str, StakeBackend] = "numpy",
    ) -> None:
        from repro.spec.config import SpecConfig

        self.config = config or SpecConfig.mainnet()
        self.rules = StakeRules.from_config(self.config)
        self.reward_rules = RewardRules.from_config(self.config)
        self.slashing_rules = SlashingRules.from_config(self.config)
        self.stakes = np.array(stakes, dtype=float)
        if self.stakes.ndim != 1:
            raise ValueError("stakes must be one-dimensional")
        n = self.stakes.shape[0]
        if n == 0:
            raise ValueError("the engine needs at least one entry")
        self.backend = get_backend(backend, population=n)
        self.weights = (
            np.full(n, 1.0 / n) if weights is None else np.array(weights, dtype=float)
        )
        if self.weights.shape != self.stakes.shape:
            raise ValueError("weights must match the stakes shape")
        self.scores = (
            np.zeros(n) if scores is None else np.array(scores, dtype=float)
        )
        self.ejected = (
            np.zeros(n, dtype=bool) if ejected is None else np.array(ejected, dtype=bool)
        )
        #: Slashed flags (slashed entries are also marked ejected).
        self.slashed = np.zeros(n, dtype=bool)
        #: Entry index -> epoch at which it was ejected.
        self.ejection_epochs: Dict[int, int] = {}
        self.epoch = 0

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        n: int,
        *,
        config: "Optional[SpecConfig]" = None,
        backend: Union[str, StakeBackend] = "numpy",
    ) -> "StakeEngine":
        """An engine of ``n`` validators at the maximum effective balance."""
        from repro.spec.config import SpecConfig

        cfg = config or SpecConfig.mainnet()
        return cls(
            np.full(n, cfg.max_effective_balance), config=cfg, backend=backend
        )

    @property
    def n(self) -> int:
        """Number of entries tracked."""
        return int(self.stakes.shape[0])

    # ------------------------------------------------------------------
    def step(self, active: Sequence[bool], in_leak: bool = True) -> EpochOutcome:
        """Advance one epoch (Equations 1–2, floor, ejection) and return the outcome."""
        active_mask = np.asarray(active, dtype=bool)
        if active_mask.shape != self.stakes.shape:
            raise ValueError("active mask must match the stakes shape")
        outcome = self.backend.epoch_update(
            self.stakes, self.scores, active_mask, self.ejected, self.rules, in_leak
        )
        self.stakes = outcome.stakes
        self.scores = outcome.scores
        self.ejected = outcome.ejected
        for index in np.flatnonzero(outcome.newly_ejected):
            self.ejection_epochs[int(index)] = self.epoch
        self.epoch += 1
        return outcome

    def apply_attestation_rewards(
        self, active: Sequence[bool], in_leak: bool = False
    ) -> RewardOutcome:
        """Apply one epoch of attestation rewards/penalties in place.

        Entries already ejected or slashed are ineligible and untouched.
        Does not advance :attr:`epoch` — the incentive update rides along
        the same epoch as :meth:`step`.
        """
        active_mask = np.asarray(active, dtype=bool)
        if active_mask.shape != self.stakes.shape:
            raise ValueError("active mask must match the stakes shape")
        outcome = self.backend.attestation_rewards_epoch_update(
            self.stakes,
            active_mask,
            self.ejected | self.slashed,
            self.reward_rules,
            in_leak,
        )
        self.stakes = outcome.stakes
        return outcome

    def apply_slashings(self, slashable: Sequence[bool]) -> SlashingEpochOutcome:
        """Slash the entries selected by ``slashable`` in place.

        Already-slashed and already-ejected entries are skipped (an entry
        that left the active set can no longer be charged).  Newly slashed
        entries are marked ejected — slashing implies exiting the set —
        and recorded in :attr:`ejection_epochs` at the current epoch.
        """
        slashable_mask = np.asarray(slashable, dtype=bool)
        if slashable_mask.shape != self.stakes.shape:
            raise ValueError("slashable mask must match the stakes shape")
        outcome = self.backend.slashing_epoch_update(
            self.stakes, slashable_mask, self.slashed, self.ejected, self.slashing_rules
        )
        self.stakes = outcome.stakes
        self.slashed = outcome.slashed
        self.ejected = self.ejected | outcome.newly_slashed
        for index in np.flatnonzero(outcome.newly_slashed):
            self.ejection_epochs.setdefault(int(index), self.epoch)
        return outcome

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def effective_stakes(self) -> np.ndarray:
        """Per-entry stake counting towards totals (0 once ejected)."""
        return np.where(self.ejected, 0.0, self.stakes)

    def total_stake(self) -> float:
        """Weighted total of the effective stakes."""
        return float(np.sum(self.weights * self.effective_stakes()))

    def stake_of(self, mask: Sequence[bool]) -> float:
        """Weighted effective stake of the entries selected by ``mask``."""
        selection = np.asarray(mask, dtype=bool)
        return float(np.sum(self.weights * self.effective_stakes() * selection))

    def active_ratio(self, active: Sequence[bool]) -> float:
        """Ratio of active (non-ejected) stake to the total effective stake."""
        total = self.total_stake()
        if total <= 0:
            return 0.0
        return self.stake_of(np.asarray(active, dtype=bool) & ~self.ejected) / total


class BatchedStakeEngine:
    """:class:`StakeEngine` with a leading trial axis: all trials per kernel call.

    State arrays are shaped ``(trials, *entry_shape)`` — ``entry_shape`` is
    whatever one trial's population looks like, e.g. ``(n,)`` for a flat
    validator set or ``(2, n + 1)`` for the Monte-Carlo two-branch layout —
    and every :meth:`step` advances *all* trials with a single backend
    kernel call.  Trial ``t`` of a batch evolves bit-identically to a
    standalone :class:`StakeEngine` fed row ``t`` (per-element arithmetic
    is shape-independent in every backend, and weighted reductions use
    ``np.sum`` over the entry axes, whose pairwise blocking depends only
    on the entry count — asserted by the backend tests).

    Parameters
    ----------
    stakes:
        Initial stakes, shape ``(trials, *entry_shape)`` with at least two
        dimensions.
    weights:
        Optional per-entry share of the validator set, broadcastable to
        ``entry_shape`` (trials share one weighting); defaults to uniform
        over all entries of a trial.
    in_leak (on :meth:`step` / :meth:`apply_attestation_rewards`):
        A scalar applied to every trial, or a ``(trials,)`` boolean array
        applied per trial.
    """

    def __init__(
        self,
        stakes: np.ndarray,
        *,
        weights: Optional[Sequence[float]] = None,
        scores: Optional[np.ndarray] = None,
        ejected: Optional[np.ndarray] = None,
        config: "Optional[SpecConfig]" = None,
        backend: Union[str, StakeBackend] = "numpy",
    ) -> None:
        from repro.spec.config import SpecConfig

        self.config = config or SpecConfig.mainnet()
        self.rules = StakeRules.from_config(self.config)
        self.reward_rules = RewardRules.from_config(self.config)
        self.slashing_rules = SlashingRules.from_config(self.config)
        self.stakes = np.array(stakes, dtype=float)
        if self.stakes.ndim < 2:
            raise ValueError("batched stakes need a (trials, *entry_shape) shape")
        shape = self.stakes.shape
        entries = int(np.prod(shape[1:]))
        if entries == 0:
            raise ValueError("the engine needs at least one entry per trial")
        self.backend = get_backend(backend, population=entries)
        if weights is None:
            self.weights = np.full(shape[1:], 1.0 / entries)
        else:
            self.weights = np.broadcast_to(
                np.asarray(weights, dtype=float), shape[1:]
            ).copy()
        self.scores = (
            np.zeros(shape) if scores is None else np.array(scores, dtype=float)
        )
        self.ejected = (
            np.zeros(shape, dtype=bool)
            if ejected is None
            else np.array(ejected, dtype=bool)
        )
        for name, value in (("scores", self.scores), ("ejected", self.ejected)):
            if value.shape != shape:
                raise ValueError(f"{name} must match the stakes shape {shape}")
        self.slashed = np.zeros(shape, dtype=bool)
        #: Epoch at which each entry was ejected (``-1`` while still active).
        self.ejection_epoch = np.full(shape, -1, dtype=np.int64)
        self.epoch = 0

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        trials: int,
        n: int,
        *,
        config: "Optional[SpecConfig]" = None,
        backend: Union[str, StakeBackend] = "numpy",
    ) -> "BatchedStakeEngine":
        """``trials`` independent populations of ``n`` validators at the cap."""
        from repro.spec.config import SpecConfig

        cfg = config or SpecConfig.mainnet()
        return cls(
            np.full((trials, n), cfg.max_effective_balance),
            config=cfg,
            backend=backend,
        )

    @property
    def trials(self) -> int:
        """Number of trials in the batch."""
        return int(self.stakes.shape[0])

    @property
    def entry_shape(self) -> tuple:
        """Shape of one trial's population."""
        return self.stakes.shape[1:]

    @property
    def _entry_axes(self) -> tuple:
        return tuple(range(1, self.stakes.ndim))

    def _check_mask(self, mask, name: str) -> np.ndarray:
        out = np.asarray(mask, dtype=bool)
        if out.shape != self.stakes.shape:
            raise ValueError(
                f"{name} must match the batched stakes shape {self.stakes.shape}"
            )
        return out

    # ------------------------------------------------------------------
    def step(self, active: np.ndarray, in_leak: LeakFlag = True) -> EpochOutcome:
        """Advance every trial one epoch; ``in_leak`` may vary per trial."""
        active_mask = self._check_mask(active, "active mask")
        outcome = self.backend.epoch_update(
            self.stakes, self.scores, active_mask, self.ejected, self.rules, in_leak
        )
        self.stakes = outcome.stakes
        self.scores = outcome.scores
        self.ejected = outcome.ejected
        self.ejection_epoch[outcome.newly_ejected] = self.epoch
        self.epoch += 1
        return outcome

    def apply_attestation_rewards(
        self, active: np.ndarray, in_leak: LeakFlag = False
    ) -> RewardOutcome:
        """One epoch of attestation rewards/penalties across all trials."""
        active_mask = self._check_mask(active, "active mask")
        outcome = self.backend.attestation_rewards_epoch_update(
            self.stakes,
            active_mask,
            self.ejected | self.slashed,
            self.reward_rules,
            in_leak,
        )
        self.stakes = outcome.stakes
        return outcome

    def apply_slashings(self, slashable: np.ndarray) -> SlashingEpochOutcome:
        """Slash the selected entries of every trial in place."""
        slashable_mask = self._check_mask(slashable, "slashable mask")
        outcome = self.backend.slashing_epoch_update(
            self.stakes, slashable_mask, self.slashed, self.ejected, self.slashing_rules
        )
        self.stakes = outcome.stakes
        self.slashed = outcome.slashed
        self.ejected = self.ejected | outcome.newly_slashed
        np.copyto(
            self.ejection_epoch,
            self.epoch,
            where=outcome.newly_slashed & (self.ejection_epoch < 0),
        )
        return outcome

    # ------------------------------------------------------------------
    # Aggregates — every reduction returns one value per trial.
    # ------------------------------------------------------------------
    def effective_stakes(self) -> np.ndarray:
        """Per-entry stake counting towards totals (0 once ejected)."""
        return np.where(self.ejected, 0.0, self.stakes)

    def total_stake(self) -> np.ndarray:
        """Weighted total of the effective stakes, shape ``(trials,)``."""
        return np.sum(self.weights * self.effective_stakes(), axis=self._entry_axes)

    def stake_of(self, mask, effective: bool = True) -> np.ndarray:
        """Weighted stake of the selected entries, shape ``(trials,)``.

        With ``effective=False`` ejected entries keep their last stake —
        the Monte-Carlo stopping rule reads the Byzantine stake this way
        (it freezes at its ejection value).
        """
        selection = self._check_mask(mask, "mask")
        stakes = self.effective_stakes() if effective else self.stakes
        return np.sum(self.weights * stakes * selection, axis=self._entry_axes)

    def active_ratio(self, active) -> np.ndarray:
        """Active (non-ejected) share of the effective stake per trial."""
        active_mask = self._check_mask(active, "active mask")
        totals = self.total_stake()
        selected = self.stake_of(active_mask & ~self.ejected)
        return np.divide(
            selected, totals, out=np.zeros(self.trials), where=totals > 0
        )
