"""Tests for the validator agents (honest and Byzantine)."""

import pytest

from repro.agents.base import AgentContext
from repro.agents.byzantine import AlternatingAgent, BouncingAgent, DoubleVotingAgent
from repro.agents.honest import HonestAgent, IntermittentAgent, OfflineAgent
from repro.network.message import Message
from repro.sim.node import Node
from repro.spec.attestation import attestations_from_batch
from repro.spec.block import BeaconBlock
from repro.spec.committees import DutyScheduler
from repro.spec.config import SpecConfig
from repro.spec.types import GENESIS_ROOT
from repro.spec.validator import make_registry

CONFIG = SpecConfig.minimal()
PARTITIONS = {"branch-1": {0, 1, 2}, "branch-2": {3, 4, 5}}


def make_node(validator_index: int = 7) -> Node:
    return Node(validator_index=validator_index, registry=make_registry(8, CONFIG), config=CONFIG)


def make_context(
    node: Node,
    slot: int = 1,
    is_proposer: bool = True,
) -> AgentContext:
    scheduler = DutyScheduler(CONFIG, seed="agents")
    registry = make_registry(8, CONFIG)
    return AgentContext(
        validator_index=node.validator_index,
        slot=slot,
        epoch=CONFIG.epoch_of_slot(slot),
        time=float(slot) * CONFIG.seconds_per_slot,
        node=node,
        duties=scheduler.duties_for_epoch(CONFIG.epoch_of_slot(slot), registry),
        is_proposer=is_proposer,
        partition_names=list(PARTITIONS),
    )


def attest(agent, ctx: AgentContext):
    """The agent's votes as a cluster of one: its own validator only."""
    return agent.attest_committee(ctx, [ctx.validator_index])


def vote_of(action):
    """The single attestation a one-row batch action stands for."""
    (attestation,) = attestations_from_batch(action.batch)
    return attestation


def feed_fork(node: Node, slot: int = 1):
    """Give the node two branches, one proposed by each partition."""
    a = BeaconBlock.create(slot=slot, proposer_index=0, parent_root=GENESIS_ROOT, branch_tag="p1")
    b = BeaconBlock.create(slot=slot, proposer_index=3, parent_root=GENESIS_ROOT, branch_tag="p2")
    node.receive(Message.block(a, sender=0, sent_at=0.0))
    node.receive(Message.block(b, sender=3, sent_at=0.0))
    return a, b


class TestHonestAgent:
    def test_proposes_only_when_proposer(self):
        node = make_node()
        agent = HonestAgent(node.validator_index)
        assert agent.propose(make_context(node, is_proposer=False)) == []
        actions = agent.propose(make_context(node, is_proposer=True))
        assert len(actions) == 1
        assert actions[0].audience is None

    def test_attests_its_head(self):
        node = make_node()
        a, _ = feed_fork(node)
        agent = HonestAgent(node.validator_index)
        actions = attest(agent, make_context(node))
        assert len(actions) == 1
        assert vote_of(actions[0]).head_root == node.head()
        assert not actions[0].withhold

    def test_not_byzantine(self):
        assert not HonestAgent(0).is_byzantine


class TestOfflineAndIntermittent:
    def test_offline_agent_does_nothing(self):
        node = make_node()
        agent = OfflineAgent(node.validator_index)
        ctx = make_context(node)
        assert agent.propose(ctx) == [] and attest(agent, ctx) == []

    def test_intermittent_agent_active_every_other_epoch(self):
        node = make_node()
        agent = IntermittentAgent(node.validator_index, period=2, phase=0)
        epoch0 = make_context(node, slot=1)
        epoch1 = make_context(node, slot=1 + CONFIG.slots_per_epoch)
        assert attest(agent, epoch0)
        assert attest(agent, epoch1) == []

    def test_intermittent_rejects_bad_period(self):
        with pytest.raises(ValueError):
            IntermittentAgent(0, period=0)


class TestDoubleVotingAgent:
    def test_attests_once_per_branch(self):
        node = make_node()
        a, b = feed_fork(node)
        agent = DoubleVotingAgent(node.validator_index, PARTITIONS)
        actions = attest(agent, make_context(node))
        assert len(actions) == 2
        heads = {vote_of(action).head_root for action in actions}
        assert heads == {a.root, b.root}
        audiences = {action.audience for action in actions}
        assert audiences == {"branch-1", "branch-2"}

    def test_pair_of_attestations_is_slashable(self):
        # The two branches must differ at an epoch boundary for the two
        # checkpoint votes to conflict: fork at the first slot of epoch 1.
        node = make_node()
        feed_fork(node, slot=CONFIG.slots_per_epoch)
        agent = DoubleVotingAgent(node.validator_index, PARTITIONS)
        first, second = map(
            vote_of, attest(agent, make_context(node, slot=CONFIG.slots_per_epoch + 1))
        )
        assert first.target != second.target
        assert first.is_slashable_with(second)

    def test_proposes_on_both_branches(self):
        node = make_node()
        a, b = feed_fork(node)
        agent = DoubleVotingAgent(node.validator_index, PARTITIONS)
        actions = agent.propose(make_context(node, slot=2))
        assert len(actions) == 2
        parents = {action.block.parent_root for action in actions}
        assert parents == {a.root, b.root}

    def test_requires_partition_map(self):
        with pytest.raises(ValueError):
            DoubleVotingAgent(0, {})

    def test_is_byzantine(self):
        assert DoubleVotingAgent(0, PARTITIONS).is_byzantine


class TestAlternatingAgent:
    def test_alternates_partitions_by_epoch_parity(self):
        node = make_node()
        feed_fork(node)
        agent = AlternatingAgent(node.validator_index, PARTITIONS)
        epoch0 = make_context(node, slot=1)
        epoch1 = make_context(node, slot=1 + CONFIG.slots_per_epoch)
        action0 = attest(agent, epoch0)[0]
        action1 = attest(agent, epoch1)[0]
        assert action0.audience == "branch-1"
        assert action1.audience == "branch-2"

    def test_single_attestation_per_epoch_is_not_slashable(self):
        node = make_node()
        feed_fork(node)
        agent = AlternatingAgent(node.validator_index, PARTITIONS)
        action0 = attest(agent, make_context(node, slot=1))[0]
        action1 = attest(agent, make_context(node, slot=1 + CONFIG.slots_per_epoch))[0]
        assert not vote_of(action0).is_slashable_with(vote_of(action1))

    def test_burst_when_finalizer_enabled(self):
        node = make_node()
        feed_fork(node)
        agent = AlternatingAgent(node.validator_index, PARTITIONS, finalize_when_possible=True)
        node.state.record_justification(node.checkpoint_of_epoch(0))
        ctx = make_context(node, slot=1 + CONFIG.slots_per_epoch)
        agent.on_epoch_start(ctx)
        assert agent._burst_partition is not None


class TestBouncingAgent:
    def test_withholds_attestations(self):
        node = make_node()
        feed_fork(node)
        agent = BouncingAgent(node.validator_index, PARTITIONS)
        actions = attest(agent, make_context(node))
        assert len(actions) == 1
        assert actions[0].withhold

    def test_targets_losing_branch(self):
        node = make_node()
        a, b = feed_fork(node)
        # Two honest validators of branch-1 voted for their branch; branch-2
        # has no support, so it is the losing branch the attacker props up.
        for validator in (0, 1):
            batch = node.attestation_batch_for(slot=1, validators=[validator], head=a.root)
            node.receive(Message.attestation_batch(batch, sender=validator, sent_at=1.0))
        agent = BouncingAgent(node.validator_index, PARTITIONS)
        action = attest(agent, make_context(node))[0]
        assert vote_of(action).head_root == b.root
