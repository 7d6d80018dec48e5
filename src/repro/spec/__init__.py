"""Gasper-style Ethereum PoS protocol substrate.

This package implements, from scratch, every protocol mechanism the paper's
analysis depends on: the beacon-chain data model, committees, LMD-GHOST
fork choice, Casper FFG justification/finalization, attestation rewards,
slashing, and the inactivity leak.
"""

from repro.spec.attestation import Attestation
from repro.spec.block import BeaconBlock
from repro.spec.blocktree import BlockTree, UnknownBlockError
from repro.spec.checkpoint import Checkpoint, FFGVote, GENESIS_CHECKPOINT
from repro.spec.committees import DutyScheduler, EpochDuties
from repro.spec.config import DEFAULT_CONFIG, SpecConfig
from repro.spec.finality import (
    FFGVotePool,
    JustificationResult,
    conflicting_finalized_checkpoints,
    process_justification,
    safety_violated,
)
from repro.spec.forkchoice import LatestMessage, Store, branch_heads, fork_exists
from repro.spec.properties import (
    PropertyReport,
    PropertyVerdict,
    check_availability,
    check_byzantine_threshold,
    check_liveness,
    check_safety,
    check_simulation_properties,
)
from repro.spec.inactivity import (
    InactivityUpdate,
    discrete_ejection_epoch,
    discrete_stake_trajectory,
    process_inactivity_epoch,
)
from repro.spec.rewards import RewardSummary, process_attestation_rewards
from repro.spec.slashing import (
    SlashingDetector,
    SlashingEvidence,
    SlashingOutcome,
    apply_slashing,
    detect_and_slash,
)
from repro.spec.state import BeaconState
from repro.spec.state_transition import (
    EpochReport,
    advance_epoch,
    process_epoch,
)
from repro.spec.types import GENESIS_ROOT, Root
from repro.spec.validator import (
    Validator,
    byzantine_proportion,
    make_registry,
    stake_proportion,
    total_stake,
)

__all__ = [
    "Attestation",
    "BeaconBlock",
    "BeaconState",
    "BlockTree",
    "Checkpoint",
    "DEFAULT_CONFIG",
    "DutyScheduler",
    "EpochDuties",
    "EpochReport",
    "FFGVote",
    "FFGVotePool",
    "GENESIS_CHECKPOINT",
    "GENESIS_ROOT",
    "InactivityUpdate",
    "JustificationResult",
    "LatestMessage",
    "PropertyReport",
    "PropertyVerdict",
    "RewardSummary",
    "Root",
    "SlashingDetector",
    "SlashingEvidence",
    "SlashingOutcome",
    "SpecConfig",
    "Store",
    "UnknownBlockError",
    "Validator",
    "advance_epoch",
    "apply_slashing",
    "branch_heads",
    "byzantine_proportion",
    "check_availability",
    "check_byzantine_threshold",
    "check_liveness",
    "check_safety",
    "check_simulation_properties",
    "conflicting_finalized_checkpoints",
    "detect_and_slash",
    "discrete_ejection_epoch",
    "discrete_stake_trajectory",
    "fork_exists",
    "make_registry",
    "process_epoch",
    "process_inactivity_epoch",
    "process_justification",
    "process_attestation_rewards",
    "safety_violated",
    "stake_proportion",
    "total_stake",
]
