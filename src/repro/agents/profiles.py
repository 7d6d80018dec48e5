"""Stochastic honest-behaviour profiles: lazy and intermittent validators.

The AztecProtocol slashing-sim distinguishes HONEST / LAZY / BYZANTINE
behaviour profiles with per-deadline timing; this module adds the two
non-ideal *honest* profiles on the agent seam:

* :class:`LazyValidator` — attests, but late (a seeded per-slot delay on
  the publication) and sometimes not at all (a seeded miss draw),
* :class:`IntermittentValidator` — flips online/offline per epoch from a
  seeded coin instead of the deterministic schedule of
  :class:`~repro.agents.honest.IntermittentAgent`.

Both draw from the same counter-based hash streams as the latency models
(:mod:`repro.network.latency`): a decision is a pure function of
``(profile seed, slot-or-epoch, validator index)``, never of RNG call
order — so the grouped and per-node engines, which interrogate agents in
different orders, make byte-identical decisions.  Both profiles return
``committee_key() is None``: their actions are per-validator (each has
its own delay and miss stream), so each is a cluster of one and its vote
travels as a one-row batch in both sharding modes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.agents.base import (
    AgentContext,
    AttestationBatchAction,
    ProposalAction,
    ValidatorAgent,
)
from repro.network.latency import _mix_scalar, hashed_uniform_scalar

#: Domain tags keeping the profiles' hash streams disjoint from each
#: other and from the latency models'.
_LAZY_TAG = 0x1A27
_INTERMITTENT_TAG = 0x1F7E


class LazyValidator(ValidatorAgent):
    """An honest validator with missed and late attestation windows.

    Per attestation duty the profile draws, from its seeded stream,
    whether the attestation is skipped entirely (probability
    ``miss_rate``) and otherwise how late it is published (uniform in
    ``[0, max_delay)`` seconds after the attestation deadline).  The late
    vote still reflects the validator's view *at the deadline* — laziness
    here is slow publication, not slow observation.  Proposals are made
    on time: the profile models attestation sloppiness, the dominant
    real-world failure mode.
    """

    def __init__(
        self,
        validator_index: int,
        miss_rate: float = 0.1,
        max_delay: float = 4.0,
        seed: int = 0,
    ) -> None:
        super().__init__(validator_index)
        if not 0.0 <= miss_rate <= 1.0:
            raise ValueError("miss_rate must lie in [0, 1]")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.miss_rate = float(miss_rate)
        self.max_delay = float(max_delay)
        self.seed = int(seed)

    def _duty_draws(self, slot: int) -> Tuple[bool, float]:
        """(missed, publication delay) for this validator's duty at ``slot``."""
        key = _mix_scalar(self.seed, _LAZY_TAG, slot, self.validator_index)
        missed = hashed_uniform_scalar(_mix_scalar(key, 1)) < self.miss_rate
        delay = hashed_uniform_scalar(_mix_scalar(key, 2)) * self.max_delay
        return missed, delay

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer:
            return []
        return [ProposalAction(block=ctx.node.build_block(slot=ctx.slot))]

    def attest_committee(
        self, ctx: AgentContext, members: Sequence[int]
    ) -> List[AttestationBatchAction]:
        missed, delay = self._duty_draws(ctx.slot)
        if missed:
            return []
        batch = ctx.node.attestation_batch_for(slot=ctx.slot, validators=members)
        return [AttestationBatchAction(batch=batch, delay=delay)]


class IntermittentValidator(ValidatorAgent):
    """An honest validator that is online in a seeded-random set of epochs.

    Each epoch the profile flips a seeded coin: with probability
    ``online_probability`` the validator performs its duties normally,
    otherwise it behaves like :class:`~repro.agents.honest.OfflineAgent`
    for the whole epoch.  Unlike the deterministic periodic
    ``IntermittentAgent``, every validator has its own independent
    online/offline trajectory.
    """

    def __init__(
        self,
        validator_index: int,
        online_probability: float = 0.75,
        seed: int = 0,
    ) -> None:
        super().__init__(validator_index)
        if not 0.0 <= online_probability <= 1.0:
            raise ValueError("online_probability must lie in [0, 1]")
        self.online_probability = float(online_probability)
        self.seed = int(seed)

    def is_online(self, epoch: int) -> bool:
        """Seeded per-epoch availability draw for this validator."""
        key = _mix_scalar(self.seed, _INTERMITTENT_TAG, epoch, self.validator_index)
        return hashed_uniform_scalar(key) < self.online_probability

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer or not self.is_online(ctx.epoch):
            return []
        return [ProposalAction(block=ctx.node.build_block(slot=ctx.slot))]

    def attest_committee(
        self, ctx: AgentContext, members: Sequence[int]
    ) -> List[AttestationBatchAction]:
        if not self.is_online(ctx.epoch):
            return []
        batch = ctx.node.attestation_batch_for(slot=ctx.slot, validators=members)
        return [AttestationBatchAction(batch=batch)]
