"""Unit tests for dynamic view splitting and its plumbing.

The differential suite (``test_sim_view_groups.py``) pins the end-to-end
grouped==per-node contract for scenarios that fragment; this file tests
the mechanics in isolation:

* ``_ensure_exact_audience`` copy-on-write splits exactly the partially
  covered groups, duplicates in-flight/withheld traffic, and preserves
  the representative-is-min-member convention;
* the adversary's audience caches, exact-validator memos included, are
  invalidated on every topology change (the staleness regression);
* the inclusion horizon bounds the attestation backlog and rebases
  member cursors without changing what proposers include.
"""

import numpy as np
import pytest

from repro.agents.honest import OfflineAgent
from repro.network.latency import FixedJitter
from repro.network.message import Message
from repro.network.partition import PartitionSchedule
from repro.sim.engine import SimulationEngine
from repro.sim.node import INCLUSION_HORIZON_EPOCHS, Node
from repro.sim.scenarios import (
    build_honest_simulation,
    build_partitioned_simulation,
)
from repro.spec.config import SpecConfig
from repro.spec.validator import make_registry


def _offline_engine(n: int = 8) -> SimulationEngine:
    """A healthy network of silent validators: one 'global' view group."""
    config = SpecConfig.minimal()
    registry = make_registry(n, config)
    return SimulationEngine(
        registry=registry,
        agents={i: OfflineAgent(i) for i in range(n)},
        schedule=PartitionSchedule.fully_connected(delta=1.0),
        config=config,
        view_sharding=True,
    )


def _attestation_message(engine: SimulationEngine, group: str = "global"):
    view = engine.views[group]
    batch = view.attestation_batch_for(slot=1, validators=[view.members[0]])
    return Message.attestation_batch(batch, sender=view.members[0], sent_at=0.0)


def _pending(engine: SimulationEngine, endpoint: int):
    """In-flight ``(deliver_at, message_id)`` stream of one endpoint, sorted."""
    return sorted(
        (delivery.deliver_at, delivery.message.message_id)
        for delivery in engine.network._queue
        if delivery.recipient == endpoint
    )


def _withheld(engine: SimulationEngine, endpoint: int):
    """Withheld message ids addressed to ``endpoint``, in withhold order."""
    return [
        message.message_id
        for message, recipient in engine.network._withheld
        if recipient == endpoint
    ]


def validator_states(result):
    """Every validator's final state: the state of the view it belongs to."""
    return {
        index: result.view_states[name]
        for name, members in result.view_groups.items()
        for index in members
    }


class TestSplitMechanics:
    def test_partial_audience_splits_group(self):
        engine = build_honest_simulation(n_validators=12)
        message = _attestation_message(engine)
        engine.adversary.send_to_validators(message, (0, 1, 2, 3))
        assert set(engine.view_groups) == {"global", "global/4"}
        assert engine.view_groups["global"] == (0, 1, 2, 3)
        assert engine.view_groups["global/4"] == tuple(range(4, 12))
        # Representative = min(members) on both children; facades and
        # endpoint maps rebound for the moved side.
        for name, members in engine.view_groups.items():
            assert engine.views[name].validator_index == min(members)
            assert engine.views[name].members == members
        assert engine.group_of[5] == "global/4"
        assert engine.nodes[5].node is engine.views["global/4"]
        assert engine._endpoint_of[5] == 4
        # The split happened *before* scheduling: only the covered side's
        # endpoint receives the diverging message.
        assert [m for _, m in _pending(engine, 0)] == [message.message_id]
        assert _pending(engine, 4) == []
        (event,) = engine.view_events
        assert event.kind == "split"
        assert (event.parent, event.child) == ("global", "global/4")
        assert event.members == tuple(range(4, 12))

    def test_full_or_empty_audience_does_not_split(self):
        engine = build_honest_simulation(n_validators=12)
        engine.adversary.send_to_validators(
            _attestation_message(engine), tuple(range(12))
        )
        assert set(engine.view_groups) == {"global"}
        assert engine.view_events == []

    def test_split_duplicates_in_flight_and_withheld_traffic(self):
        engine = build_honest_simulation(n_validators=12)
        in_flight = _attestation_message(engine)
        withheld = _attestation_message(engine)
        engine.network.broadcast(in_flight)
        engine.adversary.withhold(withheld, range(12))
        diverging = _attestation_message(engine)
        engine.adversary.send_to_validators(diverging, (0, 1, 2, 3))
        # Both children must observe the identical pre-split stream; the
        # diverging message itself reaches only the covered child.
        pending_old = _pending(engine, 0)
        pending_new = _pending(engine, 4)
        assert pending_new == [(1.0, in_flight.message_id)]
        assert pending_old == pending_new + [(1.0, diverging.message_id)]
        assert _withheld(engine, 0) == [withheld.message_id]
        assert _withheld(engine, 4) == [withheld.message_id]

    def test_per_node_mode_never_splits(self):
        engine = build_honest_simulation(n_validators=8, view_sharding=False)
        engine.adversary.send_to_validators(
            _attestation_message(engine, group=next(iter(engine.views))), (0, 1, 2)
        )
        assert len(engine.views) == 8
        assert engine.view_events == []


class TestCachedMemberArrays:
    """The transport reads each view's cached ``member_array``."""

    @staticmethod
    def _jitter_engine(fresh_arrays: bool) -> SimulationEngine:
        engine = build_honest_simulation(
            n_validators=12, latency_model=FixedJitter(base=0.5, jitter=6.0, seed=2)
        )
        if fresh_arrays:
            engine.network.set_view_hooks(
                lambda endpoint: np.array(
                    engine._view_by_endpoint[endpoint].members, dtype=np.int64
                ),
                engine._ensure_exact_audience,
            )
        return engine

    @staticmethod
    def _schedule(engine: SimulationEngine):
        return sorted(
            (delivery.recipient, delivery.deliver_at) for delivery in engine.network._queue
        )

    def test_split_keeps_member_arrays_in_step(self):
        engine = self._jitter_engine(fresh_arrays=False)
        engine.adversary.send_to_validators(_attestation_message(engine), (0, 1, 2, 3))
        assert len(engine.views) >= 2
        for view in engine.views.values():
            assert view.member_array.dtype == np.int64
            assert view.member_array.tolist() == list(view.members)
            assert not view.member_array.flags.writeable

    def test_broadcast_after_split_matches_fresh_arrays(self):
        engines = [self._jitter_engine(fresh) for fresh in (False, True)]
        for engine in engines:
            engine.adversary.send_to_validators(_attestation_message(engine), (0, 1, 2, 3))
            engine.network.broadcast(_attestation_message(engine, group="global"))
        cached, fresh = engines
        assert cached.view_groups == fresh.view_groups
        assert len(cached.views) > 2, "the jitter must split views again"
        assert self._schedule(cached) == self._schedule(fresh)


class TestAdversaryCacheInvalidation:
    """Satellite regression: `_audience_endpoints` must never go stale."""

    def test_notify_topology_changed_clears_cache(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        adversary = engine.adversary
        adversary._audience_endpoints("branch-1", True)
        assert adversary._audience_cache
        adversary.notify_topology_changed()
        assert adversary._audience_cache == {}

    def test_resolver_reinstall_routes_through_invalidation(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        adversary = engine.adversary
        adversary._audience_endpoints("branch-1", True)
        adversary.set_endpoint_resolver(lambda index: 99)
        assert adversary._audience_cache == {}
        assert adversary.resolve_endpoints((0, 1, 2)) == (99,)

    def test_split_refreshes_partition_audiences(self):
        # The regression this PR fixes: after a view split, a cached
        # partition audience would keep addressing only the old endpoint,
        # silently skipping the freshly split group.
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        adversary = engine.adversary
        before = adversary._audience_endpoints("branch-1", False)
        members = engine.view_groups["branch-1"]
        view = engine.views["branch-1"]
        message = Message.attestation_batch(
            view.attestation_batch_for(slot=1, validators=[members[0]]),
            sender=members[0],
            sent_at=0.0,
        )
        adversary.send_to_validators(message, members[:2])
        after = adversary._audience_endpoints("branch-1", False)
        assert after != before
        assert set(after) > set(before)
        new_rep = min(set(members) - set(members[:2]))
        assert new_rep in after


def _pending_ids(engine, endpoint):
    return [message_id for _, message_id in _pending(engine, endpoint)]


class _ReadRecordingDict(dict):
    """A dict that counts lookups, to prove a code path never consults it."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


class TestTargetedSendMemo:
    """Exact-validator audiences are memoized until the topology changes."""

    def test_repeat_audience_skips_the_split_hook(self):
        engine = _offline_engine()
        adversary = engine.adversary
        calls = []
        hook = adversary._split_hook
        adversary.set_split_hook(lambda targets: calls.append(targets) or hook(targets))
        for _ in range(3):
            adversary.send_to_validators(_attestation_message(engine), tuple(range(8)))
        assert len(calls) == 1

    def test_repeat_after_split_resolves_current_endpoints(self):
        engine = _offline_engine()
        adversary = engine.adversary
        everyone = tuple(range(8))
        adversary.send_to_validators(_attestation_message(engine), everyone)
        assert adversary._audience_cache[everyone] == (0,)
        adversary.send_to_validators(_attestation_message(engine), (0, 1, 2))
        assert set(engine.view_groups) == {"global", "global/3"}
        again = _attestation_message(engine)
        adversary.send_to_validators(again, everyone)
        assert adversary._audience_cache[everyone] == (0, 3)
        assert again.message_id in _pending_ids(engine, 0)
        assert again.message_id in _pending_ids(engine, 3)

    def test_modeled_latency_buckets_never_read_the_memo(self):
        engine = build_honest_simulation(
            n_validators=12, latency_model=FixedJitter(base=0.5, jitter=6.0, seed=2)
        )
        memo = _ReadRecordingDict()
        engine.adversary._audience_cache = memo
        result = engine.run(2)
        assert result.split_events(), "wide jitter must split views via the buckets"
        assert memo.reads == 0
        assert memo == {}


class TestInclusionHorizon:
    """Satellite: the ~2-epoch inclusion horizon bounds the backlog."""

    def test_prune_drops_expired_columns_and_rebases_cursors(self):
        config = SpecConfig.minimal()  # 4-slot epochs
        view = Node(
            validator_index=0,
            registry=make_registry(8, config),
            config=config,
            members=(0, 1),
        )
        # Two attestations targeting epoch 0, two targeting epoch 2.
        for validator, slot in ((4, 1), (5, 2), (6, 9), (7, 10)):
            batch = view.attestation_batch_for(slot=slot, validators=[validator])
            view.receive(
                Message.attestation_batch(batch, sender=validator, sent_at=float(slot))
            )
        # Member 0 consumes the whole log; member 1 consumes nothing.
        assert len(view.build_block(slot=11, proposer=0).attestations) == 4
        view._prune_inclusion_horizon(2)  # horizon 2 -> cutoff epoch 1
        assert set(view.attestations_by_epoch) == {2}
        assert all(a.target_epoch >= 1 for a in view._inclusion_log)
        # Cursors point at the same logical position: the caught-up member
        # re-includes nothing, the fresh member sees only the survivors.
        assert view.build_block(slot=11, proposer=0).attestations == ()
        assert len(view.build_block(slot=11, proposer=1).attestations) == 2

    def test_horizon_bounds_columns_in_a_long_run(self):
        engine = build_honest_simulation(n_validators=12)
        engine.run(6)
        assert INCLUSION_HORIZON_EPOCHS == 2
        for view in engine.views.values():
            assert len(view.attestations_by_epoch) <= INCLUSION_HORIZON_EPOCHS + 1
            assert all(epoch >= 4 for epoch in view.attestations_by_epoch)

    def test_horizon_identical_across_sharding_modes(self):
        grouped = build_honest_simulation(n_validators=10).run(5)
        per_node = build_honest_simulation(n_validators=10, view_sharding=False).run(5)
        assert grouped.snapshots == per_node.snapshots
        grouped_states = validator_states(grouped)
        per_node_states = validator_states(per_node)
        assert set(grouped_states) == set(per_node_states)
        for index, state in grouped_states.items():
            assert state == per_node_states[index]
