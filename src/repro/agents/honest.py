"""Honest (protocol-following) validator agents.

Every honest committee member sharing a view attests identically (same
head, same FFG link), so the engine calls
:meth:`HonestAgent.attest_committee` once per view group and the whole
cluster's votes travel as one :class:`~repro.core.attestation_batch.AttestationBatch`.
The Byzantine strategies (:mod:`repro.agents.byzantine`) batch the same
way, one batch per branch they vote on.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.agents.base import (
    AgentContext,
    AttestationBatchAction,
    ProposalAction,
    ValidatorAgent,
)


class HonestAgent(ValidatorAgent):
    """Follows the protocol: proposes on its head, attests its view."""

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer:
            return []
        block = ctx.node.build_block(slot=ctx.slot)
        return [ProposalAction(block=block)]

    def committee_key(self) -> Optional[Hashable]:
        return "honest"

    def attest_committee(
        self, ctx: AgentContext, members: Sequence[int]
    ) -> List[AttestationBatchAction]:
        batch = ctx.node.attestation_batch_for(slot=ctx.slot, validators=members)
        return [AttestationBatchAction(batch=batch)]


class OfflineAgent(ValidatorAgent):
    """A crashed or unreachable validator: never proposes nor attests.

    Used to model honest validators that are simply down (they are deemed
    inactive on every chain and leak accordingly).
    """

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        return []

    def committee_key(self) -> Optional[Hashable]:
        return "offline"

    def attest_committee(
        self, ctx: AgentContext, members: Sequence[int]
    ) -> List[AttestationBatchAction]:
        return []


class IntermittentAgent(ValidatorAgent):
    """An honest validator that is only online every ``period`` epochs.

    With ``period=2`` this reproduces the "semi-active" behaviour of
    Section 4.3 for an honest validator with poor connectivity.
    """

    def __init__(self, validator_index: int, period: int = 2, phase: int = 0) -> None:
        super().__init__(validator_index)
        if period < 1:
            raise ValueError("period must be at least 1")
        self.period = period
        self.phase = phase % period

    def _online(self, epoch: int) -> bool:
        return epoch % self.period == self.phase

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer or not self._online(ctx.epoch):
            return []
        block = ctx.node.build_block(slot=ctx.slot)
        return [ProposalAction(block=block)]

    def committee_key(self) -> Optional[Hashable]:
        # Agents with the same period/phase are online in the same epochs,
        # so their committee votes remain uniform within a view.
        return ("intermittent", self.period, self.phase)

    def attest_committee(
        self, ctx: AgentContext, members: Sequence[int]
    ) -> List[AttestationBatchAction]:
        if not self._online(ctx.epoch):
            return []
        batch = ctx.node.attestation_batch_for(slot=ctx.slot, validators=members)
        return [AttestationBatchAction(batch=batch)]
