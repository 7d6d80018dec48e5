"""Byzantine validator agents implementing the paper's attack strategies.

All Byzantine agents are coordinated by the adversary: they know the
partition membership (the adversary is unaffected by partitions) and they
can target messages at one partition or withhold them for later release.

* :class:`DoubleVotingAgent` — Section 5.2.1: attest on both branches every
  epoch (slashable once the evidence crosses the healed partition).
* :class:`AlternatingAgent` — Sections 5.2.2 / 5.2.3: semi-active on each
  branch, alternating every epoch (never slashable); optionally "bursts"
  two consecutive epochs on a branch to finalize it.
* :class:`BouncingAgent` — Section 5.3: withholds votes and releases them at
  epoch boundaries to keep honest validators bouncing between branches.
* :class:`SwayerByzantine` — the Gasper balancing attack (Neu/Tas/Tse,
  referenced by the paper's related-work discussion): an adversarial
  proposer shows two competing blocks to two halves of the honest
  validators over a *healthy* network, and "swayer" votes keep the halves
  balanced so neither branch ever reaches a supermajority.

**Committee keys.**  Every validator of one attack votes alike: all
members of a slot committee sharing a view cast the same vote on the same
branches with the same routing.  Each agent class therefore decides its
votes once per slot as a list of :class:`BranchVote` (``branch_votes``),
and :meth:`CoalitionAgent.attest_committee` turns that list into one
:class:`~repro.agents.base.AttestationBatchAction` per branch for a
whole committee cluster (a cluster of one gives exactly one validator's
votes).  The engine clusters committee members by ``committee_key`` per
view group, so the key must be sound and cheap: two agents share a key
only if they would vote identically from the same view, and computing
and hashing it is O(1).  It is the identity of the coalition object the
attack's agents share through :meth:`CoalitionAgent.for_validator` —
never a hash of an index tuple — plus, for :class:`AlternatingAgent`,
its burst state.
"""

from __future__ import annotations

import copy
from abc import abstractmethod
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.agents.base import (
    AgentContext,
    AttestationBatchAction,
    ProposalAction,
    ValidatorAgent,
)
from repro.spec.checkpoint import Checkpoint
from repro.spec.types import Root


class BranchVote(NamedTuple):
    """One branch's vote at a slot: what to vote for and how to route it.

    ``head``/``source`` of ``None`` take the voting view's own fork-choice
    head and justified checkpoint; the routing fields mean what they mean
    on :class:`~repro.agents.base.AttestationBatchAction`.
    """

    head: Optional[Root] = None
    source: Optional[Checkpoint] = None
    audience: Optional[str] = None
    withhold: bool = False
    recipients: Optional[Tuple[int, ...]] = None
    delay: float = 0.0


class CoalitionAgent(ValidatorAgent):
    """An adversary-controlled agent voting as part of a coordinated attack.

    Subclasses decide a slot's votes in :meth:`branch_votes`, and
    :meth:`attest_committee` builds a cluster's actions from it.
    :meth:`committee_key` returns the ``coalition`` object the attack's
    agents share (identity-hashed, O(1)).
    """

    #: Shared, identity-hashed token of the attack this agent belongs to.
    coalition: Hashable

    @property
    def is_byzantine(self) -> bool:
        return True

    def for_validator(self, validator_index: int) -> "CoalitionAgent":
        """An agent of the same attack acting as ``validator_index``.

        Shares this agent's coalition (membership maps, audiences) instead
        of copying it, so a coalition of thousands holds one copy, and the
        twins share a committee key.
        """
        twin = copy.copy(self)
        twin.validator_index = validator_index
        return twin

    @abstractmethod
    def branch_votes(self, ctx: AgentContext) -> List[BranchVote]:
        """This slot's votes, one per branch voted on (the one decision path)."""

    def committee_key(self) -> Optional[Hashable]:
        return self.coalition

    def attest_committee(
        self, ctx: AgentContext, members: Sequence[int]
    ) -> List[AttestationBatchAction]:
        return [
            AttestationBatchAction(
                batch=ctx.node.attestation_batch_for(
                    slot=ctx.slot, validators=members, head=vote.head, source=vote.source
                ),
                audience=vote.audience,
                withhold=vote.withhold,
                recipients=vote.recipients,
                delay=vote.delay,
            )
            for vote in self.branch_votes(ctx)
        ]


class Coalition:
    """The partition map of one partition attack, built once and shared.

    Hashes and compares by identity: it is the committee key of every
    agent of the attack (see :meth:`CoalitionAgent.for_validator`).
    """

    __slots__ = ("members", "member_arrays", "names")

    def __init__(self, partition_members: Dict[str, Set[int]]) -> None:
        if not partition_members:
            raise ValueError("Byzantine agents need the partition membership map")
        self.members = {
            name: frozenset(members) for name, members in partition_members.items()
        }
        #: Sorted member index arrays per partition, for the vectorized
        #: vote scans of the agents.
        self.member_arrays = {
            name: np.asarray(sorted(members), dtype=np.int64)
            for name, members in self.members.items()
        }
        self.names = list(self.members)


class ByzantineAgent(CoalitionAgent):
    """Base class for the partition attacks' adversary-controlled agents."""

    def __init__(
        self,
        validator_index: int,
        partition_members: Dict[str, Set[int]],
    ) -> None:
        super().__init__(validator_index)
        self.coalition = Coalition(partition_members)

    @property
    def partition_names(self) -> List[str]:
        return self.coalition.names

    # ------------------------------------------------------------------
    def branch_head_for_partition(self, ctx: AgentContext, partition: str) -> Root:
        """Head of the branch built by the given partition, from the local tree.

        Byzantine validators are bridge nodes, so their tree contains the
        blocks of both partitions.  The branch "belonging" to a partition is
        identified by the proposer of its most recent non-genesis block.
        """
        members = self.coalition.members[partition]
        tree = ctx.node.store.tree
        best: Optional[Root] = None
        best_slot = -1
        for leaf in tree.leaves():
            block = tree.get(leaf)
            # Walk down until a non-genesis block proposed by a partition member.
            current = block
            while True:
                if not current.is_genesis() and current.proposer_index in members:
                    if block.slot > best_slot:
                        best = leaf
                        best_slot = block.slot
                    break
                if current.is_genesis():
                    break
                current = tree.get(current.parent_root)
        if best is not None:
            return best
        # No partition-specific branch yet: fall back to the local head.
        return ctx.node.head()

    def source_checkpoint_for_branch(self, ctx: AgentContext, head: Root, partition: str):
        """The FFG source to use when attesting on the branch of ``head``.

        The adversary crafts each branch's attestation so that its source
        matches what that branch's honest validators consider justified —
        otherwise the Byzantine vote would not contribute to the branch's
        supermajority links.  Being connected to both partitions, the agent
        simply mirrors the most advanced source used by the partition's own
        validators (restricted to checkpoints on this branch); genesis is the
        fallback.
        """
        tree = ctx.node.store.tree
        member_array = self.coalition.member_arrays[partition]
        root_of = ctx.node.pool.flat.root_of
        best = None
        for epoch in sorted(ctx.node.attestations_by_epoch, reverse=True):
            columns = ctx.node.attestations_by_epoch[epoch]
            validators, source_epochs, source_roots, _ = columns.arrays()
            from_members = np.isin(validators, member_array)
            if from_members.any():
                # Ancestry is checked once per distinct source root, then
                # the row filter runs as one array comparison.
                usable_roots = [
                    root_id
                    for root_id in np.unique(source_roots[from_members]).tolist()
                    if root_of(root_id) in tree
                    and tree.is_ancestor(root_of(root_id), head)
                ]
                rows = np.nonzero(
                    from_members & np.isin(source_roots, usable_roots)
                )[0]
                if rows.size:
                    # argmax keeps the first maximum, matching the original
                    # ingestion-order walk ("only replace when strictly
                    # greater").
                    pick = rows[int(np.argmax(source_epochs[rows]))]
                    candidate = Checkpoint(
                        epoch=int(source_epochs[pick]),
                        root=root_of(int(source_roots[pick])),
                    )
                    if best is None or candidate.epoch > best.epoch:
                        best = candidate
            if best is not None and best.epoch > 0:
                break
        if best is not None:
            return best
        # Fall back to checkpoints justified in the agent's own state that lie
        # on this branch (genesis always qualifies).
        state = ctx.node.state
        fallback = state.finalized_checkpoints[0]
        for epoch in sorted(state.justified_checkpoints):
            checkpoint = state.justified_checkpoints[epoch]
            if checkpoint.root in tree and tree.is_ancestor(checkpoint.root, head):
                if checkpoint.epoch > fallback.epoch:
                    fallback = checkpoint
        return fallback

    def branch_vote(
        self, ctx: AgentContext, partition: str, head: Optional[Root] = None, **routing
    ) -> BranchVote:
        """The branch-consistent vote for one partition's branch.

        ``head`` skips the branch-head walk when the caller already has it.
        """
        if head is None:
            head = self.branch_head_for_partition(ctx, partition)
        source = self.source_checkpoint_for_branch(ctx, head, partition)
        return BranchVote(head=head, source=source, **routing)

    def _partition_for_epoch(self, epoch: int) -> str:
        """Alternation helper: even epochs -> first partition, odd -> second."""
        return self.partition_names[epoch % len(self.partition_names)]


class DoubleVotingAgent(ByzantineAgent):
    """Attests (and proposes) on every branch each epoch — slashable behaviour."""

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer:
            return []
        actions: List[ProposalAction] = []
        for partition in self.partition_names:
            parent = self.branch_head_for_partition(ctx, partition)
            block = ctx.node.build_block(
                slot=ctx.slot, parent=parent, branch_tag=partition, include_evidence=False
            )
            actions.append(ProposalAction(block=block, audience=partition))
        return actions

    def branch_votes(self, ctx: AgentContext) -> List[BranchVote]:
        return [
            self.branch_vote(ctx, partition, audience=partition)
            for partition in self.partition_names
        ]


class AlternatingAgent(ByzantineAgent):
    """Semi-active on both branches, alternating each epoch (non-slashable).

    With ``finalize_when_possible=True`` the agent implements the Section
    5.2.2 strategy: once it observes that its vote would push a branch over
    the supermajority, it stays on that branch for two consecutive epochs to
    finalize it, then switches to the other branch.  With the flag off it
    implements the Section 5.2.3 strategy (never finalize, grow beta).
    """

    def __init__(
        self,
        validator_index: int,
        partition_members: Dict[str, Set[int]],
        finalize_when_possible: bool = False,
    ) -> None:
        super().__init__(validator_index, partition_members)
        self.finalize_when_possible = finalize_when_possible
        self._burst_partition: Optional[str] = None
        self._burst_epochs_left = 0

    def _current_partition(self, ctx: AgentContext) -> str:
        if self._burst_partition is not None and self._burst_epochs_left > 0:
            return self._burst_partition
        return self._partition_for_epoch(ctx.epoch)

    def on_epoch_start(self, ctx: AgentContext) -> None:
        if self._burst_epochs_left > 0:
            self._burst_epochs_left -= 1
            if self._burst_epochs_left == 0:
                self._burst_partition = None
        if self.finalize_when_possible and self._burst_partition is None:
            # Heuristic trigger: if this node's local chain justified the
            # previous epoch, staying two epochs on the same branch will
            # produce consecutive justifications and finalize it.
            if ctx.node.state.is_justified(max(0, ctx.epoch - 1)):
                self._burst_partition = self._partition_for_epoch(ctx.epoch)
                self._burst_epochs_left = 2

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer:
            return []
        partition = self._current_partition(ctx)
        parent = self.branch_head_for_partition(ctx, partition)
        block = ctx.node.build_block(
            slot=ctx.slot, parent=parent, branch_tag=partition, include_evidence=False
        )
        return [ProposalAction(block=block, audience=partition)]

    def committee_key(self) -> Optional[Hashable]:
        # The burst state picks the branch, so twins out of step with each
        # other must not share a cluster.
        return (self.coalition, self._burst_partition, self._burst_epochs_left)

    def branch_votes(self, ctx: AgentContext) -> List[BranchVote]:
        partition = self._current_partition(ctx)
        return [self.branch_vote(ctx, partition, audience=partition)]


class BouncingAgent(ByzantineAgent):
    """Withholds votes and releases them to keep honest validators bouncing.

    Each epoch the agent votes for the branch that the honest majority is
    *not* currently on and hands the attestation to the adversary
    (``withhold=True``).  The simulation engine releases all withheld votes
    at the start of the next epoch, at which point they tip the fork choice
    of part of the honest validators towards the other branch — the bounce.
    """

    def _losing_branch(self, ctx: AgentContext) -> Tuple[str, Root]:
        """The partition whose branch has the lighter honest support, and
        that branch's head.

        Vectorized over the store's latest-vote arrays: one mask per
        partition instead of a walk over every recorded message.
        """
        epochs, root_ids = ctx.node.store.latest_vote_view()
        stakes = ctx.node.stake_array()
        capacity = epochs.shape[0]
        heads: Dict[str, Root] = {}
        weights: Dict[str, float] = {}
        for partition in self.partition_names:
            head = heads[partition] = self.branch_head_for_partition(ctx, partition)
            head_id = ctx.node.store.root_id_of(head)
            if head_id is None:
                weights[partition] = 0.0
                continue
            members = self.coalition.member_arrays[partition]
            members = members[(members < capacity) & (members < stakes.shape[0])]
            supporting = members[
                (epochs[members] >= 0) & (root_ids[members] == head_id)
            ]
            weights[partition] = float(stakes[supporting].sum())
        losing = min(self.partition_names, key=lambda name: weights.get(name, 0.0))
        return losing, heads[losing]

    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer:
            return []
        partition, parent = self._losing_branch(ctx)
        block = ctx.node.build_block(
            slot=ctx.slot, parent=parent, branch_tag=partition, include_evidence=False
        )
        # The proposal itself is published immediately: it is the withheld
        # attestations that do the bouncing.
        return [ProposalAction(block=block)]

    def branch_votes(self, ctx: AgentContext) -> List[BranchVote]:
        partition, head = self._losing_branch(ctx)
        return [self.branch_vote(ctx, partition, head=head, withhold=True)]


class SwayerByzantine(CoalitionAgent):
    """Balancing-attack agent: split proposal plus swaying votes.

    Unlike the partition-based agents above, this strategy needs no
    network partition at all — the network is healthy and the fork is
    manufactured purely with *targeted* messages (``recipients`` actions),
    which is what exercises the engine's dynamic view splitting:

    1. At ``split_slot`` the adversarial proposer publishes two competing
       blocks on the same parent, tagged ``tag_left``/``tag_right``; the
       left block goes to the left half of the honest validators (plus
       every Byzantine validator, so the adversary's view group never
       splits), the right block to the right half.
    2. From then on, swayers in each slot's committee vote for the
       currently *lighter* tagged branch and show that vote only to the
       honest half supporting the *heavier* branch (plus the Byzantine
       validators), optionally ``sway_delay`` seconds late — just in time
       to flip that half's fork choice before its own attestation duty,
       keeping the two branches balanced.
    3. An adversarial proposer after the split extends the lighter branch
       and broadcasts, feeding both halves material to stay split on.

    Until two tagged branches exist, votes are withheld (released at the
    next epoch start to everyone — audience-uniform, so no view splits).
    """

    def __init__(
        self,
        validator_index: int,
        left: Sequence[int],
        right: Sequence[int],
        byzantine: Sequence[int],
        split_slot: int = 1,
        sway_delay: float = 0.0,
        tag_left: str = "balance-left",
        tag_right: str = "balance-right",
    ) -> None:
        super().__init__(validator_index)
        self.left = tuple(sorted(left))
        self.right = tuple(sorted(right))
        self.byzantine = tuple(sorted(byzantine))
        self.split_slot = split_slot
        self.sway_delay = sway_delay
        self.tag_left = tag_left
        self.tag_right = tag_right
        # Targeted-send audiences, built once: each half plus every
        # Byzantine validator (so the adversary's own view never splits).
        self._left_audience = self.left + self.byzantine
        self._right_audience = self.right + self.byzantine
        # Every setting above is shared by the twins of ``for_validator``,
        # so a fresh token identifies the attack.
        self.coalition = object()

    # ------------------------------------------------------------------
    def _tagged_branch_heads(self, ctx: AgentContext) -> Dict[str, Root]:
        """Highest-slot leaf per balancing tag, from the local tree.

        A leaf belongs to the branch of the first tagged ancestor on its
        path to genesis (the split blocks and all swayer extensions carry
        the tag, honest extensions do not).
        """
        tree = ctx.node.store.tree
        tags = {self.tag_left, self.tag_right}
        heads: Dict[str, Root] = {}
        best_slot: Dict[str, int] = {}
        for leaf in tree.leaves():
            current = tree.get(leaf)
            while True:
                if current.branch_tag in tags:
                    tag = current.branch_tag
                    leaf_slot = tree.get(leaf).slot
                    if leaf_slot > best_slot.get(tag, -1):
                        best_slot[tag] = leaf_slot
                        heads[tag] = leaf
                    break
                if current.is_genesis():
                    break
                current = tree.get(current.parent_root)
        return heads

    def _lighter_and_heavier(
        self, ctx: AgentContext, heads: Dict[str, Root]
    ) -> Tuple[str, str]:
        """Tags of the (lighter, heavier) branch by attesting stake.

        Ties go to the left branch as lighter — a fixed rule every swayer
        computes identically from the shared Byzantine view.
        """
        left_weight = ctx.node.branch_weight(heads[self.tag_left])
        right_weight = ctx.node.branch_weight(heads[self.tag_right])
        if left_weight <= right_weight:
            return self.tag_left, self.tag_right
        return self.tag_right, self.tag_left

    def _audience_of(self, tag: str) -> Tuple[int, ...]:
        """The honest half behind ``tag`` (left for ``tag_left``, else
        right) plus every Byzantine validator."""
        return self._left_audience if tag == self.tag_left else self._right_audience

    # ------------------------------------------------------------------
    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        if not ctx.is_proposer:
            return []
        if ctx.slot == self.split_slot:
            parent = ctx.node.head()
            left_block = ctx.node.build_block(
                slot=ctx.slot,
                parent=parent,
                branch_tag=self.tag_left,
                include_evidence=False,
            )
            right_block = ctx.node.build_block(
                slot=ctx.slot,
                parent=parent,
                branch_tag=self.tag_right,
                include_evidence=False,
            )
            return [
                ProposalAction(block=left_block, recipients=self._left_audience),
                ProposalAction(block=right_block, recipients=self._right_audience),
            ]
        heads = self._tagged_branch_heads(ctx)
        if len(heads) < 2:
            # No split yet (or it never reached us): propose honestly.
            return [ProposalAction(block=ctx.node.build_block(slot=ctx.slot))]
        lighter, _ = self._lighter_and_heavier(ctx, heads)
        block = ctx.node.build_block(
            slot=ctx.slot,
            parent=heads[lighter],
            branch_tag=lighter,
            include_evidence=False,
        )
        return [ProposalAction(block=block)]

    def branch_votes(self, ctx: AgentContext) -> List[BranchVote]:
        heads = self._tagged_branch_heads(ctx)
        if len(heads) < 2:
            # Keep powder dry until both split blocks are visible.
            return [BranchVote(withhold=True)]
        lighter, heavier = self._lighter_and_heavier(ctx, heads)
        return [
            BranchVote(
                head=heads[lighter],
                recipients=self._audience_of(heavier),
                delay=self.sway_delay,
            )
        ]
