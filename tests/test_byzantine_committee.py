"""Differential suite: each member's own vote is the oracle for its cluster's.

Every Byzantine strategy decides a slot's votes once per branch
(``branch_votes``) and builds one batch per branch for a whole committee
cluster (``attest_committee``).  The cluster leader's batches, expanded,
must give exactly the rows each member produces when asked alone — a
cluster of one, ``attest_committee(own context, [member])`` — with the
same routing (``audience``/``withhold``/``recipients``/``delay``), for
random committee subsets taken from a live simulation's adversary view.
"""

import numpy as np
import pytest

from repro.agents.byzantine import (
    AlternatingAgent,
    BouncingAgent,
    CoalitionAgent,
    DoubleVotingAgent,
    SwayerByzantine,
)
from repro.sim.scenarios import (
    build_balancing_attack_simulation,
    build_partitioned_simulation,
)
from repro.spec.attestation import attestations_from_batch

ROUTING = ("audience", "withhold", "recipients", "delay")
SUBSETS_PER_SLOT = 6


def attester_context(engine, index, slot):
    """The engine's context for ``index`` at ``slot``'s attestation deadline."""
    return engine._context_for(index, slot, engine.clock.attestation_deadline(slot))


def random_subsets(members, rng, count=SUBSETS_PER_SLOT):
    members = np.asarray(members)
    for _ in range(count):
        size = int(rng.integers(1, len(members) + 1))
        yield [int(index) for index in rng.choice(members, size=size, replace=False)]


def assert_committee_matches_members(engine, members, slot):
    """One ``attest_committee`` call equals the members' singleton calls.

    Both sides go through ``attest_committee``, so each batch is also
    checked against the branch vote it was built from: its head and
    source are the vote's, or the view's own head and justified
    checkpoint where the vote leaves them open, and its routing is the
    vote's.
    """
    leader = engine.agents[members[0]]
    leader_ctx = attester_context(engine, members[0], slot)
    batch_actions = leader.attest_committee(leader_ctx, members)
    node = leader_ctx.node
    votes = leader.branch_votes(leader_ctx)
    assert len(votes) == len(batch_actions)
    for vote, batch_action in zip(votes, batch_actions):
        head = vote.head if vote.head is not None else node.head()
        source = vote.source
        if source is None:
            source = node.state.current_justified_checkpoint
        assert batch_action.batch.head_root == head
        assert batch_action.batch.source == source
        for field in ROUTING:
            assert getattr(batch_action, field) == getattr(vote, field), field
    singles = [
        engine.agents[index].attest_committee(
            attester_context(engine, index, slot), [index]
        )
        for index in members
    ]
    assert batch_actions
    for actions in singles:
        assert len(actions) == len(batch_actions)
    for branch, batch_action in enumerate(batch_actions):
        rows = attestations_from_batch(batch_action.batch)
        assert [row.validator_index for row in rows] == members
        for row, actions in zip(rows, singles):
            single = actions[branch]
            assert attestations_from_batch(single.batch) == [row]
            for field in ROUTING:
                assert getattr(single, field) == getattr(batch_action, field), field
    return batch_actions


def adversary_view_members(engine):
    """The Byzantine validators, all sharing one view (and one committee key)."""
    byzantine = engine.byzantine_indices()
    assert len({engine.group_of[index] for index in byzantine}) == 1
    assert len({engine.agents[index].committee_key() for index in byzantine}) == 1
    return byzantine


PARTITION_STRATEGIES = [
    ("double-voting", DoubleVotingAgent),
    ("alternating", AlternatingAgent),
    ("alternating-finalizer", AlternatingAgent),
    ("bouncing", BouncingAgent),
]


def partition_engine(strategy, epochs, gst_epoch=10 ** 6):
    engine = build_partitioned_simulation(
        n_validators=32,
        p0=0.5,
        byzantine_fraction=0.25,
        byzantine_strategy=strategy,
        gst_epoch=gst_epoch,
    )
    if epochs:
        engine.run(epochs)
    return engine


class TestPartitionAttacks:
    @pytest.mark.parametrize(
        "strategy, cls",
        PARTITION_STRATEGIES,
        ids=[entry[0] for entry in PARTITION_STRATEGIES],
    )
    @pytest.mark.parametrize("gst_epoch", [10 ** 6, 1], ids=["partitioned", "healed"])
    def test_batches_expand_to_member_votes(self, strategy, cls, gst_epoch):
        epochs = 2
        engine = partition_engine(strategy, epochs, gst_epoch=gst_epoch)
        members = adversary_view_members(engine)
        assert all(type(engine.agents[index]) is cls for index in members)
        rng = np.random.default_rng(len(strategy) + gst_epoch)
        last = epochs * engine.config.slots_per_epoch - 1
        for slot in (last, last + 1):
            for subset in random_subsets(members, rng):
                assert_committee_matches_members(engine, subset, slot)

    def test_fresh_engine_votes_from_genesis(self):
        engine = partition_engine("double-voting", epochs=0)
        members = adversary_view_members(engine)
        actions = assert_committee_matches_members(engine, members, slot=1)
        assert [action.audience for action in actions] == ["branch-1", "branch-2"]

    @pytest.mark.parametrize(
        "burst", [(None, 0), ("branch-1", 2), ("branch-2", 1)], ids=str
    )
    def test_alternating_both_burst_states(self, burst):
        engine = partition_engine("alternating-finalizer", epochs=2)
        members = adversary_view_members(engine)
        for index in members:
            agent = engine.agents[index]
            agent._burst_partition, agent._burst_epochs_left = burst
        names = engine.agents[members[0]].partition_names
        slots_per_epoch = engine.config.slots_per_epoch
        rng = np.random.default_rng(7)
        for slot in (2 * slots_per_epoch - 1, 2 * slots_per_epoch, 3 * slots_per_epoch):
            # Outside a burst the branch alternates with the epoch's parity.
            expected = burst[0] or names[(slot // slots_per_epoch) % 2]
            for subset in random_subsets(members, rng):
                actions = assert_committee_matches_members(engine, subset, slot)
                assert [action.audience for action in actions] == [expected]

    def test_burst_state_is_part_of_the_key(self):
        engine = partition_engine("alternating-finalizer", epochs=0)
        first, second = adversary_view_members(engine)[:2]
        agents = engine.agents
        assert agents[first].committee_key() == agents[second].committee_key()
        agents[second]._burst_partition = "branch-2"
        agents[second]._burst_epochs_left = 2
        assert agents[first].committee_key() != agents[second].committee_key()


class TestBalancingAttack:
    @pytest.mark.parametrize("sway_delay", [0.0, 2.0])
    def test_before_the_split_votes_are_withheld(self, sway_delay):
        engine = build_balancing_attack_simulation(n_validators=32, sway_delay=sway_delay)
        members = adversary_view_members(engine)
        rng = np.random.default_rng(3)
        for slot in (0, 1):
            for subset in random_subsets(members, rng):
                (action,) = assert_committee_matches_members(engine, subset, slot)
                assert action.withhold and action.recipients is None

    @pytest.mark.parametrize("sway_delay", [0.0, 2.0])
    def test_after_the_split_votes_sway(self, sway_delay):
        engine = build_balancing_attack_simulation(n_validators=32, sway_delay=sway_delay)
        engine.run(2)
        members = adversary_view_members(engine)
        swayer = engine.agents[members[0]]
        audiences = {swayer._left_audience, swayer._right_audience}
        rng = np.random.default_rng(5)
        last = 2 * engine.config.slots_per_epoch - 1
        for slot in (last, last + 1, last + 2):
            for subset in random_subsets(members, rng):
                (action,) = assert_committee_matches_members(engine, subset, slot)
                assert not action.withhold
                assert action.recipients in audiences
                assert action.delay == sway_delay


class TestCoalitionSharing:
    def test_partition_builder_shares_one_coalition(self):
        engine = partition_engine("double-voting", epochs=0)
        byzantine = engine.byzantine_indices()
        coalitions = {id(engine.agents[index].coalition) for index in byzantine}
        assert len(coalitions) == 1
        assert [engine.agents[index].validator_index for index in byzantine] == byzantine

    def test_separately_built_attacks_never_share_a_key(self):
        partitions = {"branch-1": {0, 1}, "branch-2": {2, 3}}
        one = DoubleVotingAgent(4, partitions)
        other = DoubleVotingAgent(5, partitions)
        assert one.committee_key() != other.committee_key()
        assert one.for_validator(5).committee_key() == one.committee_key()

    def test_swayer_twins_share_the_key(self):
        swayer = SwayerByzantine(4, left=(0, 1), right=(2, 3), byzantine=(4, 5))
        twin = swayer.for_validator(5)
        assert twin.validator_index == 5 and swayer.validator_index == 4
        assert twin.committee_key() is swayer.committee_key()
        assert twin._left_audience is swayer._left_audience

    def test_engine_uses_the_committee_path(self, monkeypatch):
        """The engine asks the adversary's view once per slot, for all its
        committee members together, never member by member."""
        calls = []
        original = CoalitionAgent.attest_committee

        def recording(self, ctx, members):
            calls.append((ctx.slot, list(members)))
            return original(self, ctx, members)

        monkeypatch.setattr(CoalitionAgent, "attest_committee", recording)
        engine = build_partitioned_simulation(
            n_validators=32,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="double-voting",
        )
        result = engine.run(2)
        assert result.epochs_run == 2
        members = adversary_view_members(engine)
        slots_per_epoch = engine.config.slots_per_epoch
        expected = []
        for slot in range(2 * slots_per_epoch):
            duties = engine.scheduler.duties_for_epoch(
                slot // slots_per_epoch, engine.registry
            )
            committee = duties.committee_for_slot(slot, slots_per_epoch)
            voters = [index for index in committee if index in members]
            if voters:
                expected.append((slot, voters))
        assert calls == expected
        assert any(len(voters) > 1 for _, voters in calls)
