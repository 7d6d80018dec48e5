"""Attestation rewards and penalties (Section 3.3, incentive type ii).

Outside the inactivity leak, timely and correct attestations are rewarded
and missing/late attestations are penalized.  During the leak no attester
rewards are paid (only proposers and sync committees keep theirs, which we
do not model because the paper's analysis ignores them as negligible).

These rewards are *not* what drives the paper's results — the inactivity
penalties dominate during a leak — but they are part of the protocol and
keep the "no leak" baseline realistic (stakes stay pinned near 32 ETH).
The per-validator arithmetic lives in :mod:`repro.core.backend`
(:meth:`~repro.core.backend.StakeBackend.attestation_rewards_epoch_update`)
— the same vectorized kernel family as the inactivity leak — which reads
the state's registry columns directly; this module only builds the
activity masks and copies the new stakes back into the stake column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.core.backend import RewardRules, StakeBackend, get_backend
from repro.spec.state import BeaconState


@dataclass
class RewardSummary:
    """Totals of one epoch of attestation reward/penalty processing."""

    epoch: int
    total_rewards: float = 0.0
    total_penalties: float = 0.0
    rewarded_indices: List[int] = field(default_factory=list)
    penalized_indices: List[int] = field(default_factory=list)


def base_reward(state: BeaconState, validator_index: int) -> float:
    """Per-epoch base reward of a validator, proportional to its stake."""
    validator = state.validators[validator_index]
    return validator.stake * state.config.base_reward_fraction


def attestation_penalty(state: BeaconState, validator_index: int) -> float:
    """Per-epoch penalty for a missing or incorrect attestation."""
    validator = state.validators[validator_index]
    return validator.stake * state.config.attestation_penalty_fraction


def process_attestation_rewards(
    state: BeaconState,
    active_indices: Iterable[int],
    in_leak: Optional[bool] = None,
    backend: Union[str, StakeBackend] = "numpy",
) -> RewardSummary:
    """Apply attestation rewards/penalties for one epoch.

    ``active_indices`` are the validators whose timely, correct attestation
    was included on this chain.  During an inactivity leak no rewards are
    paid (Section 4), but attestation penalties still apply to inactive
    validators; they are orders of magnitude smaller than the inactivity
    penalties, matching the paper's remark that they "tend to be less
    significant".

    Only non-zero credits and deductions are recorded in the summary's
    ``rewarded_indices``/``penalized_indices`` — a zero-stake validator is
    charged nothing and therefore not listed as penalized.
    """
    leak = state.is_in_inactivity_leak() if in_leak is None else in_leak
    summary = RewardSummary(epoch=state.current_epoch)

    registry = state.validators
    ineligible = ~registry.active_mask(state.current_epoch) | registry.slashed
    rules = RewardRules.from_config(state.config)
    outcome = get_backend(backend).attestation_rewards_epoch_update(
        registry.stake, registry.mask_of(active_indices), ineligible, rules, leak
    )
    np.copyto(registry.stake, outcome.stakes)
    summary.total_rewards = outcome.total_rewards
    summary.total_penalties = outcome.total_penalties
    summary.rewarded_indices = registry.index[outcome.rewarded].tolist()
    summary.penalized_indices = registry.index[outcome.penalized].tolist()
    return summary
