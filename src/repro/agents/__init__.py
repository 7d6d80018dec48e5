"""Validator agents: honest behaviours and Byzantine attack strategies."""

from repro.agents.base import (
    AgentContext,
    AttestationBatchAction,
    ProposalAction,
    ValidatorAgent,
)
from repro.agents.byzantine import (
    AlternatingAgent,
    BouncingAgent,
    ByzantineAgent,
    DoubleVotingAgent,
)
from repro.agents.honest import HonestAgent, IntermittentAgent, OfflineAgent
from repro.agents.profiles import IntermittentValidator, LazyValidator

__all__ = [
    "AgentContext",
    "AlternatingAgent",
    "AttestationBatchAction",
    "BouncingAgent",
    "ByzantineAgent",
    "DoubleVotingAgent",
    "HonestAgent",
    "IntermittentAgent",
    "IntermittentValidator",
    "LazyValidator",
    "OfflineAgent",
    "ProposalAction",
    "ValidatorAgent",
]
