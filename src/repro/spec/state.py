"""The beacon state: validator registry plus finality bookkeeping.

The state tracks, per validator view (one state per node in the simulator,
or one per branch in branch-level experiments):

* the validator registry (stakes, inactivity scores, exits), stored as
  one :class:`~repro.spec.validator.Registry` of columns,
* the justified and finalized checkpoints,
* how many epochs have elapsed since the last finalization, which decides
  whether the chain is in an inactivity leak (Section 3.3 / Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.spec.checkpoint import Checkpoint, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.validator import Registry, Validator, ValidatorRow, ordered_sum


@dataclass
class BeaconState:
    """Mutable protocol state as perceived along one chain."""

    config: SpecConfig
    #: The registry columns.  Detached :class:`Validator` records (or
    #: another state's registry) passed here are copied into new columns.
    validators: Registry
    #: Current epoch being processed.
    current_epoch: int = 0
    #: Most recently justified checkpoint.
    current_justified_checkpoint: Checkpoint = GENESIS_CHECKPOINT
    #: Justified checkpoint of the previous epoch (needed for the
    #: consecutive-justification finalization rule).
    previous_justified_checkpoint: Checkpoint = GENESIS_CHECKPOINT
    #: Most recently finalized checkpoint.
    finalized_checkpoint: Checkpoint = GENESIS_CHECKPOINT
    #: Epochs that have been justified on this chain.
    justified_epochs: Set[int] = field(default_factory=lambda: {0})
    #: Checkpoints justified on this chain, keyed by epoch.
    justified_checkpoints: Dict[int, Checkpoint] = field(
        default_factory=lambda: {0: GENESIS_CHECKPOINT}
    )
    #: Checkpoints finalized on this chain, keyed by epoch.
    finalized_checkpoints: Dict[int, Checkpoint] = field(
        default_factory=lambda: {0: GENESIS_CHECKPOINT}
    )
    #: Epoch at which the last finalization happened.
    last_finalized_epoch: int = 0

    def __post_init__(self) -> None:
        self.validators = Registry.of(self.validators)
        if not len(self.validators):
            raise ValueError("BeaconState requires at least one validator")

    # ------------------------------------------------------------------
    # Registry helpers
    # ------------------------------------------------------------------
    def validator(self, index: int) -> ValidatorRow:
        """Return the validator at registry position ``index``."""
        return self.validators[index]

    def active_validators(self, epoch: Optional[int] = None) -> List[ValidatorRow]:
        """Validators that are part of the active set at ``epoch``."""
        at_epoch = self.current_epoch if epoch is None else epoch
        registry = self.validators
        return [registry[p] for p in registry.active_mask(at_epoch).nonzero()[0].tolist()]

    # The stake totals below add in registry order, one validator after
    # the other (``ordered_sum``), so they are the same floats on every
    # interpreter and numpy version.
    def total_active_stake(self, epoch: Optional[int] = None) -> float:
        """Total stake of active validators at ``epoch``."""
        at_epoch = self.current_epoch if epoch is None else epoch
        registry = self.validators
        return ordered_sum(registry.stake[registry.active_mask(at_epoch)])

    def stake_of(self, indices: Iterable[int], epoch: Optional[int] = None) -> float:
        """Combined stake of the active validators with the given indices.

        Each validator counts once, whatever the order or repetition of
        ``indices``; indices absent from the registry are ignored.
        """
        at_epoch = self.current_epoch if epoch is None else epoch
        registry = self.validators
        chosen = registry.mask_of(indices) & registry.active_mask(at_epoch)
        return ordered_sum(registry.stake[chosen])

    def byzantine_stake_proportion(self, epoch: Optional[int] = None) -> float:
        """Proportion of active stake held by validators labelled byzantine."""
        at_epoch = self.current_epoch if epoch is None else epoch
        total = self.total_active_stake(at_epoch)
        if total == 0:
            return 0.0
        registry = self.validators
        byzantine = (registry.label == "byzantine") & registry.active_mask(at_epoch)
        return ordered_sum(registry.stake[byzantine]) / total

    # ------------------------------------------------------------------
    # Finality / leak bookkeeping
    # ------------------------------------------------------------------
    @property
    def epochs_since_finality(self) -> int:
        """Number of epochs elapsed since the last finalized epoch."""
        return max(0, self.current_epoch - self.last_finalized_epoch)

    def is_in_inactivity_leak(self) -> bool:
        """True when the chain has gone too long without finalization.

        The leak starts after ``min_epochs_to_inactivity_penalty`` (4)
        consecutive epochs without finalization (Section 3.3).
        """
        return self.epochs_since_finality > self.config.min_epochs_to_inactivity_penalty

    def record_justification(self, checkpoint: Checkpoint) -> None:
        """Mark ``checkpoint`` as justified on this chain."""
        self.justified_epochs.add(checkpoint.epoch)
        self.justified_checkpoints[checkpoint.epoch] = checkpoint
        if checkpoint.epoch >= self.current_justified_checkpoint.epoch:
            self.previous_justified_checkpoint = self.current_justified_checkpoint
            self.current_justified_checkpoint = checkpoint

    def record_finalization(self, checkpoint: Checkpoint) -> None:
        """Mark ``checkpoint`` as finalized on this chain."""
        self.finalized_checkpoints[checkpoint.epoch] = checkpoint
        if checkpoint.epoch >= self.finalized_checkpoint.epoch:
            self.finalized_checkpoint = checkpoint
            self.last_finalized_epoch = max(self.last_finalized_epoch, checkpoint.epoch)

    def is_justified(self, epoch: int) -> bool:
        """True if a checkpoint of ``epoch`` is justified on this chain."""
        return epoch in self.justified_epochs

    def is_finalized(self, epoch: int) -> bool:
        """True if a checkpoint of ``epoch`` is finalized on this chain."""
        return epoch in self.finalized_checkpoints

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def genesis(
        cls,
        validators: Union[Registry, Iterable[Validator]],
        config: Optional[SpecConfig] = None,
    ) -> "BeaconState":
        """Return a fresh state at epoch 0 with the genesis checkpoint finalized."""
        return cls(config=config or SpecConfig.mainnet(), validators=validators)

    def copy_registry(self) -> Registry:
        """An independent copy of the registry columns (one per branch)."""
        return self.validators.copy()

    def fork(self) -> "BeaconState":
        """Return an independent copy of this state (used when a branch splits)."""
        return BeaconState(
            config=self.config,
            validators=self.validators,
            current_epoch=self.current_epoch,
            current_justified_checkpoint=self.current_justified_checkpoint,
            previous_justified_checkpoint=self.previous_justified_checkpoint,
            finalized_checkpoint=self.finalized_checkpoint,
            justified_epochs=set(self.justified_epochs),
            justified_checkpoints=dict(self.justified_checkpoints),
            finalized_checkpoints=dict(self.finalized_checkpoints),
            last_finalized_epoch=self.last_finalized_epoch,
        )
