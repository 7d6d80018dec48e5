"""Tests for the slot-level simulation engine and scenario builders."""

import pytest

from repro.agents.honest import HonestAgent
from repro.sim.engine import SimulationEngine
from repro.sim.scenarios import (
    build_behavior_mix_simulation,
    build_honest_simulation,
    build_offline_fraction_simulation,
    build_partitioned_simulation,
)
from repro.spec.config import SpecConfig
from repro.spec.validator import make_registry


class TestEngineConstruction:
    def test_requires_agent_per_validator(self):
        registry = make_registry(4, SpecConfig.minimal())
        agents = {0: HonestAgent(0)}
        with pytest.raises(ValueError):
            SimulationEngine(registry=registry, agents=agents, config=SpecConfig.minimal())

    def test_rejects_nonpositive_epochs(self):
        engine = build_honest_simulation(n_validators=6)
        with pytest.raises(ValueError):
            engine.run(0)

    def test_honest_and_byzantine_indices(self):
        engine = build_partitioned_simulation(
            n_validators=10, byzantine_fraction=0.2, byzantine_strategy="double-voting"
        )
        assert len(engine.byzantine_indices()) == 2
        assert len(engine.honest_indices()) == 8


class TestHealthyNetwork:
    def test_liveness_finalized_chain_grows(self):
        engine = build_honest_simulation(n_validators=10)
        result = engine.run(6)
        assert result.liveness_held(min_progress=2)
        assert not result.safety_violated()

    def test_all_honest_nodes_agree_on_finalized_chain(self):
        engine = build_honest_simulation(n_validators=8)
        result = engine.run(5)
        finalized = {state.finalized_checkpoint for state in result.honest_states()}
        assert len(finalized) == 1

    def test_no_leak_in_healthy_network(self):
        engine = build_honest_simulation(n_validators=8)
        result = engine.run(7)
        assert result.leak_epochs() == []

    def test_stakes_do_not_collapse(self):
        engine = build_honest_simulation(n_validators=8)
        result = engine.run(5)
        representative = result.honest_states()[0]
        assert all(v.stake > 31.0 for v in representative.validators)

    def test_snapshots_recorded_each_epoch(self):
        engine = build_honest_simulation(n_validators=8)
        result = engine.run(4)
        assert [s.epoch for s in result.snapshots] == [0, 1, 2, 3]


class TestSnapshotRecord:
    """``result.snapshots`` is the run's per-epoch record of the paper's observables."""

    def test_finality_lags_by_the_pipeline_depth(self):
        result = build_honest_simulation(n_validators=10).run(6)
        finalized = [max(s.finalized_epoch_by_node.values()) for s in result.snapshots]
        assert finalized == sorted(finalized)
        assert finalized[-1] >= 4
        # The lag settles at the FFG pipeline depth (2 epochs).
        assert result.snapshots[-1].epoch - finalized[-1] <= 2

    def test_partition_stalls_finality_on_every_validator(self):
        result = build_partitioned_simulation(n_validators=10, p0=0.5).run(6)
        for snapshot in result.snapshots:
            assert sorted(snapshot.finalized_epoch_by_node) == list(range(10))
            assert set(snapshot.finalized_epoch_by_node.values()) == {0}

    def test_leak_runs_to_the_end_once_started(self):
        engine = build_partitioned_simulation(n_validators=10, p0=0.5)
        result = engine.run(8)
        leak = result.leak_epochs()
        assert leak == list(range(leak[0], 8))
        assert leak[0] >= engine.config.min_epochs_to_inactivity_penalty
        assert leak == [s.epoch for s in result.snapshots if s.any_in_leak]

    def test_byzantine_proportion_series_has_one_entry_per_epoch(self):
        engine = build_partitioned_simulation(
            n_validators=12, p0=0.5, byzantine_fraction=0.25, byzantine_strategy="alternating"
        )
        series = engine.run(6).byzantine_proportion_series()
        assert len(series) == 6
        assert all(value == pytest.approx(0.25, abs=1e-3) for value in series)

    def test_healthy_run_records_no_safety_violation(self):
        result = build_honest_simulation(n_validators=8).run(5)
        assert not any(s.safety_violated for s in result.snapshots)
        assert result.first_safety_violation_epoch() is None


class TestOfflineValidators:
    def test_large_offline_fraction_stalls_finality_and_starts_leak(self):
        engine = build_offline_fraction_simulation(n_validators=10, offline_fraction=0.4)
        result = engine.run(8)
        # Finality cannot progress with only 60% of the stake attesting...
        assert result.max_finalized_epoch() == 0
        # ...so the inactivity leak eventually starts.
        assert result.leak_epochs()

    def test_small_offline_fraction_keeps_liveness(self):
        engine = build_offline_fraction_simulation(n_validators=10, offline_fraction=0.2)
        result = engine.run(6)
        assert result.liveness_held(min_progress=1)

    def test_offline_validators_leak_stake(self):
        engine = build_offline_fraction_simulation(n_validators=10, offline_fraction=0.4)
        result = engine.run(10)
        state = result.honest_states()[0]
        offline_stakes = [v.stake for v in state.validators[6:]]
        online_stakes = [v.stake for v in state.validators[:6]]
        assert max(offline_stakes) < min(online_stakes)


class TestPartitionedNetwork:
    def test_partition_halts_finalization(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        result = engine.run(6)
        assert result.max_finalized_epoch() == 0
        assert result.leak_epochs()

    def test_each_side_builds_its_own_branch(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        engine.run(4)
        node_side_1 = engine.nodes[engine.honest_indices()[0]]
        node_side_2 = engine.nodes[engine.honest_indices()[-1]]
        assert node_side_1.head() != node_side_2.head()

    def test_gst_heals_partition_and_finality_resumes(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5, gst_epoch=2)
        result = engine.run(8)
        assert result.max_finalized_epoch() > 0
        assert not result.safety_violated()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            build_partitioned_simulation(byzantine_strategy="teleporting")

    def test_strategy_without_byzantine_rejected(self):
        with pytest.raises(ValueError):
            build_partitioned_simulation(byzantine_fraction=0.0, byzantine_strategy="bouncing")


class TestDoubleVotingAttack:
    def test_double_voters_get_slashed_after_gst(self):
        engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="double-voting",
            gst_epoch=3,
        )
        result = engine.run(8)
        # After the partition heals, honest nodes see the conflicting
        # attestations and slash the equivocating validators.
        assert result.slashed_indices
        assert result.slashed_indices <= set(result.byzantine_indices)

    def test_double_voters_not_slashed_before_gst(self):
        engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="double-voting",
            gst_epoch=10 ** 6,
        )
        result = engine.run(4)
        assert not result.slashed_indices


class TestBouncingAttack:
    def test_withheld_votes_flow_through_adversary(self):
        engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="bouncing",
            gst_epoch=1,
        )
        result = engine.run(5)
        assert result.transport_stats.withheld > 0


class TestEpochStartHook:
    """Only agents whose class overrides ``on_epoch_start`` are called."""

    #: Digest of the snapshots and view events of the run below, recorded
    #: when every agent still got a context at every epoch start.  The
    #: finalizer's hook steers its votes, so a skipped hook changes it.
    DIGEST = "542b4026ab6b3d455853733b1722f2cb"

    def test_overriding_agents_get_their_hook_every_epoch(self, monkeypatch):
        import hashlib

        from repro.agents.base import ValidatorAgent
        from repro.agents.byzantine import AlternatingAgent

        inherited, calls = [], []
        monkeypatch.setattr(
            ValidatorAgent, "on_epoch_start", lambda agent, ctx: inherited.append(ctx)
        )
        original = AlternatingAgent.on_epoch_start

        def recording(agent, ctx):
            calls.append(ctx)
            original(agent, ctx)

        monkeypatch.setattr(AlternatingAgent, "on_epoch_start", recording)
        engine = build_partitioned_simulation(
            n_validators=24,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="alternating-finalizer",
            gst_epoch=6,
            seed="epoch-start-hook",
        )
        epochs = 10
        result = engine.run(epochs)

        history = repr((result.snapshots, result.view_events)).encode()
        assert hashlib.blake2b(history, digest_size=16).hexdigest() == self.DIGEST
        assert not inherited  # honest agents inherit the no-op: no context
        byzantine = engine.byzantine_indices()
        assert len(calls) == epochs * len(byzantine)
        slots = engine.config.slots_per_epoch
        for k, ctx in enumerate(calls):
            epoch, index = divmod(k, len(byzantine))
            slot = epoch * slots
            duties = engine.scheduler.duties_for_epoch(epoch, engine.registry)
            assert ctx.validator_index == byzantine[index]
            assert (ctx.slot, ctx.epoch) == (slot, epoch)
            assert ctx.time == engine.clock.start_of_slot(slot)
            assert ctx.node is engine.nodes[ctx.validator_index]
            assert ctx.duties is duties
            assert ctx.is_proposer == (duties.proposers[0] == ctx.validator_index)
            assert ctx.duties.committee_for_slot(ctx.slot, slots) == (
                duties.attestation_committees[0]
            )
            assert ctx.partition_names == tuple(engine.schedule.partition_names())


class TestRoutedVotePins:
    """Digests of runs whose votes include lone, per-validator ones.

    The stochastic behaviour profiles vote one validator at a time, the
    bouncing attack's withheld votes are released across the healed
    partition, and the double-voting partition's blocks carry single
    rows.  Each pin is the blake2b digest of the run's snapshots and view
    events plus its transport counters, recorded while lone votes still
    travelled as per-validator attestation messages: repackaging them
    must not move a single byte.
    """

    PINS = {
        "behavior-mix": (
            lambda: build_behavior_mix_simulation(
                n_validators=64, lazy_fraction=0.25, intermittent_fraction=0.25
            ),
            4,
            "eef9ad68890f744450bbaef011c85978",
            dict(sent=136, delivered=136, withheld=0, delayed_across_partition=0,
                 adversary_delayed=0, lazy_delayed=52, latency_delayed=0),
        ),
        "bouncing": (
            lambda: build_partitioned_simulation(
                n_validators=24,
                p0=0.5,
                byzantine_fraction=0.25,
                byzantine_strategy="bouncing",
                gst_epoch=1,
            ),
            5,
            "404fa4eb2fcb972eaa88c6a027bc6922",
            dict(sent=59, delivered=216, withheld=48, delayed_across_partition=9,
                 adversary_delayed=0, lazy_delayed=0, latency_delayed=0),
        ),
        "double-voting": (
            lambda: build_partitioned_simulation(
                n_validators=64,
                p0=0.5,
                byzantine_fraction=0.33,
                byzantine_strategy="double-voting",
                config=SpecConfig.minimal(),
            ),
            25,
            "c55c42011f767f8689f2e6d1a585b4d2",
            dict(sent=524, delivered=1048, withheld=0, delayed_across_partition=274,
                 adversary_delayed=0, lazy_delayed=0, latency_delayed=0),
        ),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_run_matches_pin(self, name):
        import hashlib
        from dataclasses import asdict

        build, epochs, digest, stats = self.PINS[name]
        result = build().run(epochs)
        history = repr((result.snapshots, result.view_events)).encode()
        assert hashlib.blake2b(history, digest_size=16).hexdigest() == digest
        assert asdict(result.transport_stats) == stats


class TestAttestationPublishOrder:
    """Lone votes publish first, in committee order; clusters follow.

    Agents without a committee key (the stochastic profiles) vote one
    validator at a time; keyed agents vote once per (view group, key)
    cluster.  Message ids grow in publication order and the transport
    breaks delivery-time ties by message id, so this order reaches every
    view and every pinned digest.
    """

    @staticmethod
    def _mixed_engine(view_sharding):
        from repro.agents.honest import IntermittentAgent, OfflineAgent
        from repro.agents.profiles import IntermittentValidator, LazyValidator

        config = SpecConfig.minimal()
        registry = make_registry(40, config)
        kinds = (
            lambda i: HonestAgent(i),
            lambda i: LazyValidator(i, miss_rate=0.0, max_delay=2.0, seed=3),
            lambda i: IntermittentValidator(i, online_probability=1.0, seed=5),
            lambda i: IntermittentAgent(i, period=1),
            lambda i: OfflineAgent(i),
        )
        agents = {v.index: kinds[v.index % len(kinds)](v.index) for v in registry}
        return SimulationEngine(
            registry, agents, config=config, view_sharding=view_sharding
        )

    @pytest.mark.parametrize("view_sharding", [True, False])
    def test_lone_votes_then_clusters_in_first_appearance_order(self, view_sharding):
        from repro.network.message import MessageKind

        engine = self._mixed_engine(view_sharding)
        published = {}
        broadcast = engine.network.broadcast

        def recording(message, *args, **kwargs):
            if message.kind is not MessageKind.BLOCK:
                published.setdefault(engine._current_slot, []).append(message)
            return broadcast(message, *args, **kwargs)

        engine.network.broadcast = recording
        engine.run(2)

        config = engine.config
        assert len(published) == 2 * config.slots_per_epoch
        for slot, messages in published.items():
            duties = engine.scheduler.duties_for_epoch(
                config.epoch_of_slot(slot), engine.registry
            )
            committee = duties.committee_for_slot(slot, config.slots_per_epoch)
            solo = [(i,) for i in committee if engine.agents[i].committee_key() is None]
            clusters = {}
            for i in committee:
                key = engine.agents[i].committee_key()
                if key is not None and key != "offline":
                    clusters.setdefault((engine.group_of[i], key), []).append(i)
            assert solo and clusters
            expected = solo + [tuple(members) for members in clusters.values()]
            assert [tuple(m.payload.validators.tolist()) for m in messages] == expected
            ids = [m.message_id for m in messages]
            assert ids == sorted(ids)
            assert max(ids[: len(solo)]) < min(ids[len(solo) :])
