"""Differential suite: view-sharded runs are bit-identical to per-node runs.

The tentpole claim of the view-sharding refactor is that validators on the
same partition side perceive the identical message stream, so simulating
one ``Node`` per view group loses nothing.  These tests pin that claim by
running every scenario family twice — ``view_sharding=True`` (grouped) and
``view_sharding=False`` (one node per validator) — and comparing

* the per-epoch snapshots (finalized epochs per node, Byzantine
  proportion, leak flags, Safety flags),
* the final :class:`BeaconState` of every validator (stakes, inactivity
  scores, justified/finalized checkpoint maps — full value equality),
* the slashed sets, and
* the Safety verdict,

for bitwise-equal results.  A second axis checks that the ``"python"``
reference backend agrees with ``"numpy"`` inside the grouped engine.
"""

import pytest

from repro.network.latency import FixedJitter
from repro.sim.scenarios import (
    SCENARIO_PRESETS,
    build_balancing_attack_simulation,
    build_behavior_mix_simulation,
    build_honest_simulation,
    build_offline_fraction_simulation,
    build_partitioned_simulation,
    build_preset,
)
from repro.spec.config import SpecConfig

AGGRESSIVE_LEAK = SpecConfig.minimal().with_overrides(inactivity_penalty_quotient=2 ** 7)

#: (id, builder, kwargs, epochs) — every scenario family the repo ships.
SCENARIOS = [
    ("healthy", build_honest_simulation, {"n_validators": 12}, 6),
    (
        "offline",
        build_offline_fraction_simulation,
        {"n_validators": 10, "offline_fraction": 0.4},
        8,
    ),
    ("partition", build_partitioned_simulation, {"n_validators": 12, "p0": 0.5}, 6),
    (
        "partition-heals",
        build_partitioned_simulation,
        {"n_validators": 12, "p0": 0.5, "gst_epoch": 2},
        8,
    ),
    (
        "partition-uneven",
        build_partitioned_simulation,
        {"n_validators": 15, "p0": 0.6},
        6,
    ),
    (
        "safety-violation",
        build_partitioned_simulation,
        {"n_validators": 12, "p0": 0.5, "config": AGGRESSIVE_LEAK},
        14,
    ),
    (
        "double-voting",
        build_partitioned_simulation,
        {
            "n_validators": 12,
            "p0": 0.5,
            "byzantine_fraction": 0.25,
            "byzantine_strategy": "double-voting",
            "gst_epoch": 3,
        },
        8,
    ),
    (
        "double-voting-no-heal",
        build_partitioned_simulation,
        {
            "n_validators": 12,
            "p0": 0.5,
            "byzantine_fraction": 0.25,
            "byzantine_strategy": "double-voting",
        },
        4,
    ),
    (
        "alternating",
        build_partitioned_simulation,
        {
            "n_validators": 16,
            "p0": 0.5,
            "byzantine_fraction": 0.25,
            "byzantine_strategy": "alternating",
            "gst_epoch": 4,
        },
        10,
    ),
    (
        "alternating-finalizer",
        build_partitioned_simulation,
        {
            "n_validators": 16,
            "p0": 0.5,
            "byzantine_fraction": 0.25,
            "byzantine_strategy": "alternating-finalizer",
        },
        8,
    ),
    (
        "bouncing",
        build_partitioned_simulation,
        {
            "n_validators": 12,
            "p0": 0.5,
            "byzantine_fraction": 0.25,
            "byzantine_strategy": "bouncing",
            "gst_epoch": 1,
        },
        5,
    ),
    # Balancing scenarios run over a *healthy* network: the fork exists
    # purely through targeted sends, so the grouped engine must split its
    # single honest view dynamically — the tentpole of the refactor.
    (
        "balancing",
        build_balancing_attack_simulation,
        {"n_validators": 16},
        4,
    ),
    (
        "balancing-sway-delay",
        build_balancing_attack_simulation,
        {"n_validators": 16, "sway_delay": 2.0},
        4,
    ),
    (
        "balancing-uneven",
        build_balancing_attack_simulation,
        {"n_validators": 12, "byzantine_fraction": 0.25},
        4,
    ),
    # Latency-model scenarios: per-validator sampled delivery times must
    # not break the grouped==per-node contract.  Default parameters keep
    # every latency inside one phase window (no splits); the wide-jitter
    # entry deliberately scatters deliveries across phase boundaries so
    # equivalence must survive latency-induced view splits.
    (
        "healthy-jitter",
        build_honest_simulation,
        {"n_validators": 12, "latency_model": "jitter"},
        4,
    ),
    (
        "healthy-lognormal",
        build_honest_simulation,
        {"n_validators": 12, "latency_model": "lognormal", "latency_seed": 3},
        4,
    ),
    (
        "healthy-gossip",
        build_honest_simulation,
        {"n_validators": 16, "latency_model": "gossip"},
        4,
    ),
    (
        "partition-gossip",
        build_partitioned_simulation,
        {"n_validators": 12, "p0": 0.5, "latency_model": "gossip"},
        4,
    ),
    # Byzantine committee votes travel as one batch per branch whose
    # sender is one member; gossip delivery times must not depend on it.
    (
        "balancing-gossip",
        build_balancing_attack_simulation,
        {"n_validators": 16, "latency_model": "gossip"},
        4,
    ),
    (
        "balancing-gossip-sway-delay",
        build_balancing_attack_simulation,
        {"n_validators": 16, "latency_model": "gossip", "sway_delay": 2.0},
        4,
    ),
    (
        "double-voting-gossip",
        build_partitioned_simulation,
        {
            "n_validators": 12,
            "p0": 0.5,
            "byzantine_fraction": 0.25,
            "gst_epoch": 2,
            "byzantine_strategy": "double-voting",
            "latency_model": "gossip",
        },
        4,
    ),
    (
        "partition-lognormal-heals",
        build_partitioned_simulation,
        {"n_validators": 12, "p0": 0.5, "gst_epoch": 2, "latency_model": "lognormal"},
        6,
    ),
    (
        "wide-jitter-splits",
        build_honest_simulation,
        {
            "n_validators": 12,
            "latency_model": FixedJitter(base=0.5, jitter=6.0, seed=2),
        },
        4,
    ),
    # Behavior profiles: lazy (missed/late attestations) and intermittent
    # (whole epochs offline) honest validators take the per-validator
    # dispatch path; their seeded draws must agree across sharding modes.
    (
        "behavior-mix",
        build_behavior_mix_simulation,
        {"n_validators": 16, "lazy_fraction": 0.25, "intermittent_fraction": 0.25},
        6,
    ),
    (
        "behavior-gossip",
        build_behavior_mix_simulation,
        {
            "n_validators": 16,
            "lazy_fraction": 0.25,
            "intermittent_fraction": 0.25,
            "latency_model": "gossip",
        },
        4,
    ),
]

SCENARIO_IDS = [scenario[0] for scenario in SCENARIOS]

#: Scenarios re-run on the pure-python kernel backend (kept to the
#: families that exercise distinct code paths, for runtime).
PYTHON_BACKEND_IDS = {
    "healthy",
    "partition",
    "double-voting",
    "bouncing",
    "balancing",
    "healthy-gossip",
    "wide-jitter-splits",
    "behavior-mix",
}


def validator_states(result):
    """Every validator's final state: the state of the view it belongs to."""
    return {
        index: result.view_states[name]
        for name, members in result.view_groups.items()
        for index in members
    }


def assert_runs_equivalent(grouped, per_node):
    assert grouped.epochs_run == per_node.epochs_run
    assert grouped.honest_indices == per_node.honest_indices
    assert grouped.byzantine_indices == per_node.byzantine_indices
    # Per-epoch global observables, bit-for-bit.
    assert grouped.snapshots == per_node.snapshots
    # Full final-state value equality for every validator's view.
    grouped_states = validator_states(grouped)
    per_node_states = validator_states(per_node)
    assert set(grouped_states) == set(per_node_states)
    for index, state in grouped_states.items():
        assert state == per_node_states[index], (
            f"final state of validator {index} diverged"
        )
    assert grouped.slashed_indices == per_node.slashed_indices
    assert grouped.safety_violated() == per_node.safety_violated()
    assert grouped.first_safety_violation_epoch() == per_node.first_safety_violation_epoch()
    assert grouped.leak_epochs() == per_node.leak_epochs()


class TestGroupedEquivalence:
    @pytest.mark.parametrize(
        "name, builder, kwargs, epochs", SCENARIOS, ids=SCENARIO_IDS
    )
    def test_grouped_matches_per_node(self, name, builder, kwargs, epochs):
        grouped = builder(view_sharding=True, **kwargs).run(epochs)
        per_node = builder(view_sharding=False, **kwargs).run(epochs)
        assert_runs_equivalent(grouped, per_node)

    @pytest.mark.parametrize(
        "name, builder, kwargs, epochs", SCENARIOS, ids=SCENARIO_IDS
    )
    def test_grouped_topology_only_grows_by_splits(self, name, builder, kwargs, epochs):
        engine = builder(view_sharding=True, **kwargs)
        initial_groups = len(engine.view_groups)
        result = engine.run(epochs)
        # The final groups partition the validator set: each index once.
        members = sorted(i for group in result.view_groups.values() for i in group)
        assert members == sorted(v.index for v in engine.registry)
        # Every topology change is a split, and each adds one group.
        assert len(result.view_groups) == initial_groups + len(result.split_events())
        assert result.peak_view_count == len(result.view_groups)
        # Every transport endpoint resolves to a live view, and every live
        # view is reachable through its representative's endpoint.
        live = {id(view) for view in engine.views.values()}
        for endpoint in engine.network.participants:
            assert id(engine._view_by_endpoint[endpoint]) in live
        assert sorted(engine.network.participants) == sorted(
            view.validator_index for view in engine.views.values()
        )

    @pytest.mark.parametrize(
        "name, builder, kwargs, epochs",
        [s for s in SCENARIOS if s[0] in PYTHON_BACKEND_IDS],
        ids=sorted(PYTHON_BACKEND_IDS & set(SCENARIO_IDS), key=SCENARIO_IDS.index),
    )
    def test_python_backend_matches_numpy(self, name, builder, kwargs, epochs):
        numpy_run = builder(view_sharding=True, backend="numpy", **kwargs).run(epochs)
        python_run = builder(view_sharding=True, backend="python", **kwargs).run(epochs)
        assert_runs_equivalent(numpy_run, python_run)

    @pytest.mark.parametrize(
        "name, builder, kwargs, epochs",
        [s for s in SCENARIOS if s[0] in {"partition", "bouncing", "balancing"}],
        ids=["partition", "bouncing", "balancing"],
    )
    def test_per_node_python_backend_matches(self, name, builder, kwargs, epochs):
        # The full 2x2 (sharding x backend) closes on these two families.
        grouped = builder(view_sharding=True, backend="python", **kwargs).run(epochs)
        per_node = builder(view_sharding=False, backend="python", **kwargs).run(epochs)
        assert_runs_equivalent(grouped, per_node)


class TestMixedAgentClusters:
    def _build(self, view_sharding: bool):
        # Honest, intermittent (two phases) and offline agents mixed in one
        # healthy network: a slot committee clusters into several batches
        # per view, exercising the (group, committee key) dispatch.
        from repro.agents.honest import HonestAgent, IntermittentAgent, OfflineAgent
        from repro.network.partition import PartitionSchedule
        from repro.sim.engine import SimulationEngine
        from repro.spec.validator import make_registry

        config = SpecConfig.minimal()
        registry = make_registry(12, config)
        agents = {}
        for validator in registry:
            index = validator.index
            if index < 6:
                agents[index] = HonestAgent(index)
            elif index < 9:
                agents[index] = IntermittentAgent(index, period=2, phase=index % 2)
            elif index < 11:
                agents[index] = OfflineAgent(index)
            else:
                agents[index] = HonestAgent(index)
        return SimulationEngine(
            registry=registry,
            agents=agents,
            schedule=PartitionSchedule.fully_connected(delta=1.0),
            config=config,
            view_sharding=view_sharding,
        )

    def test_mixed_clusters_match_per_node(self):
        grouped = self._build(view_sharding=True).run(6)
        per_node = self._build(view_sharding=False).run(6)
        assert_runs_equivalent(grouped, per_node)


class TestInPartitionByzantine:
    """Byzantine validators *inside* a partition (not bridges).

    The adversary's partition-targeted audiences include every Byzantine
    validator, so a Byzantine partition member receives cross-branch
    traffic its honest partition peers never see — it must get its own
    view group or the honest side would ingest equivocating votes and
    mint slashing evidence that per-node simulation never produces.
    """

    def _build(self, view_sharding: bool):
        from repro.agents.byzantine import DoubleVotingAgent
        from repro.agents.honest import HonestAgent
        from repro.network.partition import PartitionSchedule
        from repro.sim.engine import SimulationEngine
        from repro.spec.validator import make_registry

        config = SpecConfig.minimal()
        registry = make_registry(12, config)
        # Validator 0 is Byzantine but a *member* of branch-1 (no bridges).
        schedule = PartitionSchedule.two_way_split(
            honest_indices=list(range(12)),
            active_fraction=0.5,
            gst=10 ** 9,
            delta=1.0,
            bridge_indices=[],
        )
        partition_members = {
            name: set(schedule.members_of(name)) for name in schedule.partition_names()
        }
        agents = {index: HonestAgent(index) for index in range(12)}
        agents[0] = DoubleVotingAgent(0, partition_members)
        return SimulationEngine(
            registry=registry,
            agents=agents,
            schedule=schedule,
            config=config,
            view_sharding=view_sharding,
        )

    def test_in_partition_byzantine_gets_own_view(self):
        engine = self._build(view_sharding=True)
        assert "branch-1-byzantine" in engine.view_groups
        assert engine.view_groups["branch-1-byzantine"] == (0,)
        assert 0 not in engine.view_groups["branch-1"]

    def test_in_partition_byzantine_matches_per_node(self):
        grouped = self._build(view_sharding=True).run(6)
        per_node = self._build(view_sharding=False).run(6)
        assert_runs_equivalent(grouped, per_node)
        # Before any heal, the honest side must not have slashed anyone.
        assert grouped.slashed_indices == set()


class TestAttestationBatchValue:
    def test_batch_equality_and_hash_are_content_based(self):
        import numpy as np
        from repro.core.attestation_batch import AttestationBatch
        from repro.spec.checkpoint import Checkpoint
        from repro.spec.types import GENESIS_ROOT, Root

        source = Checkpoint(epoch=0, root=GENESIS_ROOT)
        target = Checkpoint(epoch=1, root=Root.from_label("target"))
        first = AttestationBatch(
            slot=5, head_root=target.root, source=source, target=target,
            validators=np.array([1, 2, 3]),
        )
        second = AttestationBatch(
            slot=5, head_root=target.root, source=source, target=target,
            validators=np.array([1, 2, 3]),
        )
        third = AttestationBatch(
            slot=5, head_root=target.root, source=source, target=target,
            validators=np.array([1, 2, 4]),
        )
        assert first == second and hash(first) == hash(second)
        assert first != third
        assert first != "not a batch"
        assert len({first, second, third}) == 2


class TestViewGroupStructure:
    def test_healthy_network_is_one_view(self):
        engine = build_honest_simulation(n_validators=12)
        assert len(engine.views) == 1
        assert set(engine.view_groups["global"]) == set(range(12))

    def test_partition_yields_two_views(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        assert set(engine.view_groups) == {"branch-1", "branch-2"}

    def test_byzantine_bridge_gets_its_own_view(self):
        engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="double-voting",
        )
        assert set(engine.view_groups) == {"branch-1", "branch-2", "bridge-byzantine"}
        assert set(engine.view_groups["bridge-byzantine"]) == set(
            engine.byzantine_indices()
        )

    def test_partition_named_bridge_does_not_collide(self):
        # A partition literally named "bridge" must not be overwritten by
        # the bridge class's derived group name.
        from repro.agents.honest import HonestAgent
        from repro.network.partition import Partition, PartitionSchedule
        from repro.sim.engine import SimulationEngine
        from repro.spec.validator import make_registry

        config = SpecConfig.minimal()
        registry = make_registry(6, config)
        schedule = PartitionSchedule(
            partitions=(
                Partition(name="bridge", members=frozenset({0, 1})),
                Partition(name="other", members=frozenset({2, 3})),
            ),
            gst=10 ** 9,
            delta=1.0,
        )
        agents = {i: HonestAgent(i) for i in range(6)}
        engine = SimulationEngine(
            registry=registry, agents=agents, schedule=schedule, config=config
        )
        assert set(engine.view_groups["bridge"]) == {0, 1}
        groups = {frozenset(m) for m in engine.view_groups.values()}
        assert frozenset({4, 5}) in groups  # the real bridge class survives
        assert sorted(engine.group_of) == list(range(6))

    def test_sharding_off_gives_one_node_per_validator(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5, view_sharding=False)
        assert len(engine.views) == 12

    def test_group_members_share_state_object(self):
        engine = build_partitioned_simulation(n_validators=12, p0=0.5)
        result = engine.run(4)
        members = engine.view_groups["branch-1"]
        states = validator_states(result)
        assert len({id(states[index]) for index in members}) == 1
        assert {name: id(state) for name, state in result.view_states.items()} == {
            name: id(view.state) for name, view in engine.views.items()
        }
        assert result.view_groups == engine.view_groups

    def test_honest_views_are_the_views_with_honest_members(self):
        engine = build_partitioned_simulation(
            n_validators=12,
            p0=0.5,
            byzantine_fraction=0.25,
            byzantine_strategy="alternating",
        )
        result = engine.run(3)
        assert set(result.view_states) == set(result.view_groups)
        honest = set(result.honest_indices)
        assert result.honest_views == [
            name for name, members in result.view_groups.items() if honest & set(members)
        ]
        assert "bridge-byzantine" not in result.honest_views
        assert [id(state) for state in result.honest_states()] == [
            id(result.view_states[name]) for name in result.honest_views
        ]

    def test_per_node_result_holds_one_state_per_validator(self):
        result = build_honest_simulation(n_validators=6, view_sharding=False).run(2)
        assert len(result.view_states) == 6
        assert sorted(validator_states(result)) == list(range(6))
        assert len({id(state) for state in result.view_states.values()}) == 6

    def test_finalized_epoch_readers_agree_with_last_snapshot(self):
        # The readers take the honest views' states; the snapshot records
        # each validator's finalized epoch. They must tell the same story.
        engine = build_partitioned_simulation(n_validators=12, p0=0.5, gst_epoch=2)
        result = engine.run(6)
        last = result.snapshots[-1].finalized_epoch_by_node
        honest = [last[index] for index in result.honest_indices]
        assert result.max_finalized_epoch() == max(honest)
        assert result.min_finalized_epoch() == min(honest)
        assert result.max_finalized_epoch() > 0

    def test_grouped_transport_schedules_fewer_deliveries(self):
        grouped = build_partitioned_simulation(n_validators=16, p0=0.5)
        per_node = build_partitioned_simulation(n_validators=16, p0=0.5, view_sharding=False)
        grouped.run(4)
        per_node.run(4)
        assert grouped.network.stats.delivered < per_node.network.stats.delivered / 4

    def test_member_inclusion_cursors_are_independent(self):
        # Two members of a fresh view build blocks: both include the same
        # seen attestations (independent consumption), and a member's
        # second block starts after its first (cursor advanced).
        from repro.sim.node import Node
        from repro.network.message import Message
        from repro.spec.block import BeaconBlock
        from repro.spec.types import GENESIS_ROOT
        from repro.spec.validator import make_registry

        config = SpecConfig.minimal()
        view = Node(
            validator_index=0,
            registry=make_registry(8, config),
            config=config,
            members=(0, 1, 2, 3),
        )
        block = BeaconBlock.create(slot=1, proposer_index=4, parent_root=GENESIS_ROOT)
        view.receive(Message.block(block, sender=4, sent_at=0.0))
        for validator in (4, 5, 6):
            batch = view.attestation_batch_for(slot=1, validators=[validator])
            view.receive(Message.attestation_batch(batch, sender=validator, sent_at=1.0))
        first = view.build_block(slot=2, proposer=0)
        second = view.build_block(slot=2, proposer=1)
        assert len(first.attestations) == 3
        assert first.attestations == second.attestations
        follow_up = view.build_block(slot=3, proposer=0)
        assert follow_up.attestations == ()


class TestBalancingStructure:
    """The balancing scenario is the canonical dynamic-split exercise."""

    def test_grouped_run_fragments_once_and_stays_bounded(self):
        engine = build_balancing_attack_simulation(n_validators=16)
        # Before slot 1 the healthy network is one honest view (+ the
        # Byzantine coordination group).
        assert len(engine.views) == 2
        result = engine.run(4)
        splits = result.split_events()
        assert len(splits) == 1
        (event,) = splits
        assert event.kind == "split"
        assert event.parent == "global"
        assert event.slot == 1
        # Left honest half + right honest half + Byzantine group: peak
        # live views stay O(branches), never O(N).
        assert result.peak_view_count == 3
        assert set(result.view_groups[event.child]) == set(event.members)

    def test_split_preserves_representative_convention(self):
        engine = build_balancing_attack_simulation(n_validators=16)
        engine.run(2)
        for name, members in engine.view_groups.items():
            assert engine.views[name].validator_index == min(members)
            assert engine.views[name].members == tuple(sorted(members))

    def test_per_node_run_records_no_view_events(self):
        result = build_balancing_attack_simulation(
            n_validators=16, view_sharding=False
        ).run(2)
        assert result.view_events == []


class TestLatencyViewStructure:
    """How sampled latencies interact with view sharding."""

    def test_default_models_do_not_fragment_views(self):
        # Default parameters keep every latency within one phase window:
        # the healthy network must stay a single view (this pins the
        # origin-pays-one-hop rule — a zero-latency self-delivery would
        # split the proposer out of its group on every message).
        for model in ("jitter", "lognormal", "gossip"):
            result = build_honest_simulation(
                n_validators=16, latency_model=model
            ).run(3)
            assert result.peak_view_count == 1, model
            assert result.split_events() == []

    def test_wide_jitter_forces_latency_induced_splits(self):
        result = build_honest_simulation(
            n_validators=12, latency_model=FixedJitter(base=0.5, jitter=6.0, seed=2)
        ).run(4)
        assert result.split_events(), "6s jitter must cross phase boundaries"
        assert result.peak_view_count > 1
        assert result.transport_stats.latency_delayed > 0

    def test_behavior_mix_marks_lazy_delays(self):
        result = build_behavior_mix_simulation(
            n_validators=16,
            lazy_fraction=0.5,
            miss_rate=0.0,
            max_delay=4.0,
        ).run(4)
        assert result.transport_stats.lazy_delayed > 0
        assert result.transport_stats.adversary_delayed == 0


class TestMainnetScalePresets:
    def test_presets_are_buildable_small(self):
        # Every preset constructs and runs when shrunk to test size —
        # the full sizes are exercised by benchmarks/bench_slot_sim.py.
        for name in SCENARIO_PRESETS:
            engine = build_preset(name, n_validators=16, config=SpecConfig.minimal())
            result = engine.run(2)
            assert result.epochs_run == 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            build_preset("mainnet-does-not-exist")

    def test_preset_at_scale_constructs(self):
        # Construction at 10k validators: impossible per-node (10⁸ registry
        # entries), cheap with view sharding (2 views).
        engine = build_preset("mainnet-partition-10k")
        assert len(engine.registry) == 10_000
        assert len(engine.views) == 2
