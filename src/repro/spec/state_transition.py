"""Epoch processing: the glue between votes, finality, incentives and the leak.

``process_epoch`` takes a chain state, the FFG votes observed for the epoch
on that chain, and the set of validators deemed active, and performs — in
protocol order — justification/finalization, attestation rewards/penalties,
inactivity-score updates and penalties, slashings, and ejections.  Every
stage, justification included, runs array-native on one
:mod:`repro.core.backend` kernel instance resolved here once.

The slot-level simulator (:mod:`repro.sim`) and the branch-level scenario
drivers (:mod:`repro.analysis.partition_scenarios`) both call into this
module, so the paper's mechanisms are exercised by a single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.core.backend import StakeBackend, get_backend
from repro.spec.finality import FFGVotePool, JustificationResult, process_justification
from repro.spec.inactivity import InactivityUpdate, process_inactivity_epoch
from repro.spec.rewards import RewardSummary, process_attestation_rewards
from repro.spec.slashing import SlashingOutcome, apply_slashing
from repro.spec.state import BeaconState
from repro.spec.validator import as_index_array


@dataclass
class EpochReport:
    """Everything that happened while processing one epoch on one chain."""

    epoch: int
    in_leak: bool
    justification: JustificationResult
    rewards: RewardSummary
    inactivity: InactivityUpdate
    slashing: SlashingOutcome
    #: Proportion of active stake held by Byzantine-labelled validators at
    #: the end of the epoch (used by the threshold experiments).
    byzantine_proportion: float = 0.0
    #: Ratio of "active this epoch" stake to total active stake, the
    #: quantity plotted in Figure 3.
    active_stake_ratio: float = 0.0


def active_stake_ratio(state: BeaconState, active_indices: Iterable[int]) -> float:
    """Stake of validators active this epoch over the total active stake."""
    total = state.total_active_stake()
    if total <= 0:
        return 0.0
    return state.stake_of(active_indices) / total


def process_epoch(
    state: BeaconState,
    pool: FFGVotePool,
    active_indices: Iterable[int],
    slashable_indices: Iterable[int] = (),
    epoch: Optional[int] = None,
    backend: Union[str, StakeBackend] = "numpy",
) -> EpochReport:
    """Process one epoch of the chain described by ``state``.

    Parameters
    ----------
    state:
        Chain state, updated in place.  ``state.current_epoch`` must already
        be set to the epoch being processed (the caller advances it).
    pool:
        FFG vote pool holding the checkpoint votes observed on this chain.
    active_indices:
        Validators whose timely and correct (for this chain) attestation was
        observed during the epoch.
    slashable_indices:
        Validators for which slashing evidence was included in a block of
        this chain during the epoch.
    epoch:
        Optional explicit epoch number; defaults to ``state.current_epoch``.
    backend:
        Stake-dynamics backend used by the justification, rewards,
        inactivity and slashing stages (``"numpy"`` default, ``"python"``
        reference); resolved once here so the whole epoch runs on one
        kernel instance.
    """
    at_epoch = state.current_epoch if epoch is None else epoch
    state.current_epoch = at_epoch
    active = as_index_array(active_indices)
    kernel = get_backend(backend, population=len(state.validators))

    # The leak flag is evaluated before this epoch's justification result,
    # i.e. on the epochs-without-finality streak carried into the epoch.
    in_leak = state.is_in_inactivity_leak()

    justification = process_justification(state, pool, at_epoch, backend=kernel)
    rewards = process_attestation_rewards(
        state, active, in_leak=in_leak, backend=kernel
    )
    inactivity = process_inactivity_epoch(
        state, active, in_leak=in_leak, backend=kernel
    )
    slashing = apply_slashing(state, slashable_indices, backend=kernel)

    ratio = active_stake_ratio(state, active)
    report = EpochReport(
        epoch=at_epoch,
        in_leak=in_leak,
        justification=justification,
        rewards=rewards,
        inactivity=inactivity,
        slashing=slashing,
        byzantine_proportion=state.byzantine_stake_proportion(),
        active_stake_ratio=ratio,
    )
    return report


def advance_epoch(state: BeaconState) -> int:
    """Move the state to the next epoch and return the new epoch number."""
    state.current_epoch += 1
    return state.current_epoch
