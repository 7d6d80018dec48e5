"""Protocol configuration.

:class:`SpecConfig` bundles every protocol parameter that the paper's
analysis touches.  The defaults reproduce the mainnet values used in the
paper; the class methods provide scaled-down presets that keep the same
*ratios* (penalty quotient per epoch, ejection fraction) so short unit
tests exercise the identical code paths at a fraction of the horizon.

It is the one parameter object of every layer: the spec's stake
recurrence, the epoch-level ledgers, the slot simulator and the paper's
closed forms (:mod:`repro.leak.stake`, :mod:`repro.leak.ratios`,
:mod:`repro.analysis.finalization_time`, :mod:`repro.analysis.threshold`)
all read their leak constants from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro import constants


@dataclass(frozen=True)
class SpecConfig:
    """Parameters of the simulated Ethereum PoS protocol.

    Attributes mirror the constants in :mod:`repro.constants`; see that
    module for the meaning of each field.  Instances are immutable — use
    :meth:`with_overrides` to derive variants.
    """

    seconds_per_slot: int = constants.SECONDS_PER_SLOT
    slots_per_epoch: int = constants.SLOTS_PER_EPOCH
    max_effective_balance: float = constants.MAX_EFFECTIVE_BALANCE_ETH
    ejection_balance: float = constants.EJECTION_BALANCE_ETH
    inactivity_score_bias: int = constants.INACTIVITY_SCORE_BIAS
    inactivity_score_recovery: int = constants.INACTIVITY_SCORE_RECOVERY_PER_EPOCH
    inactivity_score_recovery_no_leak: int = (
        constants.INACTIVITY_SCORE_RECOVERY_RATE_NO_LEAK
    )
    inactivity_penalty_quotient: int = constants.INACTIVITY_PENALTY_QUOTIENT
    min_epochs_to_inactivity_penalty: int = constants.MIN_EPOCHS_TO_INACTIVITY_PENALTY
    min_slashing_penalty_fraction: float = constants.MIN_SLASHING_PENALTY_FRACTION
    supermajority_numerator: int = constants.SUPERMAJORITY_NUMERATOR
    supermajority_denominator: int = constants.SUPERMAJORITY_DENOMINATOR
    bouncing_window_slots: int = constants.BOUNCING_ATTACK_WINDOW_SLOTS
    #: Base reward factor used by the attestation reward model (per-epoch
    #: reward for a perfectly active validator, as a fraction of its stake).
    #: Roughly matches mainnet's ~4-5% yearly issuance spread over ~82k
    #: epochs per year.
    base_reward_fraction: float = 1.0 / 2 ** 21
    #: Fraction of the stake lost per epoch by a validator whose attestation
    #: is missing or late (attestation penalty, Section 3.3).  Negligible
    #: compared to inactivity penalties during a leak.
    attestation_penalty_fraction: float = 1.0 / 2 ** 21

    def __post_init__(self) -> None:
        if self.slots_per_epoch <= 0:
            raise ValueError("slots_per_epoch must be positive")
        if self.seconds_per_slot <= 0:
            raise ValueError("seconds_per_slot must be positive")
        if not 0 < self.ejection_balance < self.max_effective_balance:
            raise ValueError(
                "ejection_balance must lie strictly between 0 and the "
                "maximum effective balance"
            )
        if self.inactivity_penalty_quotient <= 0:
            raise ValueError("inactivity_penalty_quotient must be positive")
        if self.inactivity_score_bias <= 0:
            raise ValueError("inactivity_score_bias must be positive")
        if self.inactivity_score_recovery < 0:
            raise ValueError("inactivity_score_recovery must be non-negative")
        numerator, denominator = self.supermajority_numerator, self.supermajority_denominator
        if not (0 < numerator < denominator and 2 * numerator >= denominator):
            raise ValueError("the supermajority must lie in [1/2, 1)")
        if self.min_epochs_to_inactivity_penalty < 1:
            raise ValueError("min_epochs_to_inactivity_penalty must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def seconds_per_epoch(self) -> int:
        """Duration of an epoch in seconds."""
        return self.seconds_per_slot * self.slots_per_epoch

    @property
    def supermajority_fraction(self) -> float:
        """The FFG supermajority threshold as a float (2/3 on mainnet)."""
        return self.supermajority_numerator / self.supermajority_denominator

    def epoch_of_slot(self, slot: int) -> int:
        """Return the epoch containing ``slot``."""
        return slot // self.slots_per_epoch

    def start_slot_of_epoch(self, epoch: int) -> int:
        """Return the first slot of ``epoch``."""
        return epoch * self.slots_per_epoch

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def mainnet(cls) -> "SpecConfig":
        """The mainnet-like configuration used by the paper."""
        return cls()

    @classmethod
    def minimal(cls) -> "SpecConfig":
        """A scaled-down configuration for fast unit tests.

        Epochs are 4 slots long and the inactivity penalty quotient is
        divided by 2**12 so that leak dynamics (stake erosion, ejection)
        unfold within tens of epochs instead of thousands, while the update
        rules are bit-for-bit the same code.
        """
        return cls(
            slots_per_epoch=4,
            inactivity_penalty_quotient=2 ** 14,
            base_reward_fraction=1.0 / 2 ** 12,
            attestation_penalty_fraction=1.0 / 2 ** 12,
        )

    def with_overrides(self, **overrides: object) -> "SpecConfig":
        """Return a copy of this configuration with fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """Return the configuration as a plain dictionary (for reports)."""
        return {
            "seconds_per_slot": self.seconds_per_slot,
            "slots_per_epoch": self.slots_per_epoch,
            "max_effective_balance": self.max_effective_balance,
            "ejection_balance": self.ejection_balance,
            "inactivity_score_bias": self.inactivity_score_bias,
            "inactivity_score_recovery": self.inactivity_score_recovery,
            "inactivity_score_recovery_no_leak": self.inactivity_score_recovery_no_leak,
            "inactivity_penalty_quotient": self.inactivity_penalty_quotient,
            "min_epochs_to_inactivity_penalty": self.min_epochs_to_inactivity_penalty,
            "min_slashing_penalty_fraction": self.min_slashing_penalty_fraction,
            "supermajority_fraction": self.supermajority_fraction,
            "bouncing_window_slots": self.bouncing_window_slots,
        }


#: Module-level default configuration (mainnet parameters).
DEFAULT_CONFIG = SpecConfig.mainnet()
