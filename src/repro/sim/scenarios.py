"""Convenience builders for slot-level simulation scenarios.

These assemble a registry, a partition schedule, agents, and an engine for
the settings studied in the paper.  Thanks to view sharding (one simulated
node per partition side instead of one per validator) the same builders
now scale from the historical test sizes (tens of validators) to
mainnet-scale validator counts — see :data:`SCENARIO_PRESETS` for
ready-made large configurations that the per-node engine could not even
construct (10k validators × 10k-validator registries per node).

All builders accept ``view_sharding`` (default ``True``; pass ``False``
for the per-validator fallback used by the differential equivalence suite)
and ``backend`` (``"numpy"`` default, ``"python"`` bit-identical
reference) and forward them to the engine.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.agents.base import ValidatorAgent
from repro.agents.byzantine import (
    AlternatingAgent,
    BouncingAgent,
    DoubleVotingAgent,
    SwayerByzantine,
)
from repro.agents.honest import HonestAgent, OfflineAgent
from repro.agents.profiles import IntermittentValidator, LazyValidator
from repro.network.latency import LatencyModel
from repro.network.partition import PartitionSchedule
from repro.sim.engine import SimulationEngine
from repro.spec.committees import DutyScheduler
from repro.spec.config import SpecConfig
from repro.spec.validator import make_registry

#: Builder-level latency-model argument: ``None`` (legacy uniform delay),
#: a model name (``"uniform"``/``"jitter"``/``"lognormal"``/``"gossip"``),
#: or a :class:`~repro.network.latency.LatencyModel` instance.
LatencySpec = Union[None, str, LatencyModel]

#: Names of the Byzantine strategies the builders know how to instantiate.
BYZANTINE_STRATEGIES = ("none", "double-voting", "alternating", "alternating-finalizer", "bouncing")


def build_honest_simulation(
    n_validators: int = 16,
    config: Optional[SpecConfig] = None,
    seed: str = "repro",
    view_sharding: bool = True,
    backend: str = "numpy",
    latency_model: LatencySpec = None,
    latency_seed: int = 0,
) -> SimulationEngine:
    """A healthy network: all honest validators, no partition.

    This is the Liveness baseline: the finalized chain grows every epoch.
    """
    cfg = config or SpecConfig.minimal()
    registry = make_registry(n_validators, cfg)
    agents: Dict[int, ValidatorAgent] = {
        validator.index: HonestAgent(validator.index) for validator in registry
    }
    schedule = PartitionSchedule.fully_connected(delta=1.0)
    return SimulationEngine(
        registry=registry,
        agents=agents,
        schedule=schedule,
        config=cfg,
        seed=seed,
        view_sharding=view_sharding,
        backend=backend,
        latency_model=latency_model,
        latency_seed=latency_seed,
    )


def build_offline_fraction_simulation(
    n_validators: int = 16,
    offline_fraction: float = 0.4,
    config: Optional[SpecConfig] = None,
    seed: str = "repro",
    view_sharding: bool = True,
    backend: str = "numpy",
    latency_model: LatencySpec = None,
    latency_seed: int = 0,
) -> SimulationEngine:
    """A network where a fraction of honest validators is simply unreachable.

    With more than one-third of the stake offline, finalization stalls and
    the inactivity leak starts — the situation the leak was designed for.
    """
    cfg = config or SpecConfig.minimal()
    registry = make_registry(n_validators, cfg)
    n_offline = int(round(n_validators * offline_fraction))
    agents: Dict[int, ValidatorAgent] = {}
    for validator in registry:
        if validator.index < n_validators - n_offline:
            agents[validator.index] = HonestAgent(validator.index)
        else:
            agents[validator.index] = OfflineAgent(validator.index)
    schedule = PartitionSchedule.fully_connected(delta=1.0)
    return SimulationEngine(
        registry=registry,
        agents=agents,
        schedule=schedule,
        config=cfg,
        seed=seed,
        view_sharding=view_sharding,
        backend=backend,
        latency_model=latency_model,
        latency_seed=latency_seed,
    )


def build_partitioned_simulation(
    n_validators: int = 20,
    p0: float = 0.5,
    byzantine_fraction: float = 0.0,
    byzantine_strategy: str = "none",
    gst_epoch: int = 10 ** 6,
    config: Optional[SpecConfig] = None,
    seed: str = "repro",
    delta: float = 1.0,
    view_sharding: bool = True,
    backend: str = "numpy",
    latency_model: LatencySpec = None,
    latency_seed: int = 0,
) -> SimulationEngine:
    """A partitioned network with an optional Byzantine contingent.

    Parameters
    ----------
    p0:
        Fraction of the honest validators placed in partition ``branch-1``.
    byzantine_fraction:
        Fraction of the registry controlled by the adversary (bridge nodes).
    byzantine_strategy:
        One of ``"none"``, ``"double-voting"`` (Section 5.2.1),
        ``"alternating"`` (Section 5.2.3), ``"alternating-finalizer"``
        (Section 5.2.2) or ``"bouncing"`` (Section 5.3).
    gst_epoch:
        Epoch at which the partition heals (GST).  The default keeps the
        partition for the whole run.
    view_sharding:
        ``True`` (default) simulates one node per view group (two
        partitions plus the Byzantine bridge); ``False`` runs the
        per-validator fallback.
    """
    if byzantine_strategy not in BYZANTINE_STRATEGIES:
        raise ValueError(
            f"unknown byzantine_strategy {byzantine_strategy!r}; "
            f"expected one of {BYZANTINE_STRATEGIES}"
        )
    cfg = config or SpecConfig.minimal()
    registry = make_registry(n_validators, cfg, byzantine_fraction=byzantine_fraction)
    honest_indices = [v.index for v in registry if v.label == "honest"]
    byzantine_indices = [v.index for v in registry if v.label == "byzantine"]
    if byzantine_strategy != "none" and not byzantine_indices:
        raise ValueError("a Byzantine strategy was requested but byzantine_fraction is 0")

    gst_seconds = gst_epoch * cfg.seconds_per_epoch
    schedule = PartitionSchedule.two_way_split(
        honest_indices=honest_indices,
        active_fraction=p0,
        gst=gst_seconds,
        delta=delta,
        bridge_indices=byzantine_indices,
    )
    partition_members = {
        name: set(schedule.members_of(name)) for name in schedule.partition_names()
    }

    agents: Dict[int, ValidatorAgent] = {
        index: HonestAgent(index) for index in honest_indices
    }
    if byzantine_strategy == "none":
        # Byzantine validators that just follow the protocol.
        agents.update((index, HonestAgent(index)) for index in byzantine_indices)
    else:
        # One agent builds the attack's coalition; every Byzantine
        # validator acts through a twin sharing it.
        first = byzantine_indices[0]
        if byzantine_strategy == "double-voting":
            attack = DoubleVotingAgent(first, partition_members)
        elif byzantine_strategy == "alternating":
            attack = AlternatingAgent(first, partition_members)
        elif byzantine_strategy == "alternating-finalizer":
            attack = AlternatingAgent(first, partition_members, finalize_when_possible=True)
        else:  # "bouncing"
            attack = BouncingAgent(first, partition_members)
        agents.update((index, attack.for_validator(index)) for index in byzantine_indices)

    return SimulationEngine(
        registry=registry,
        agents=agents,
        schedule=schedule,
        config=cfg,
        seed=seed,
        view_sharding=view_sharding,
        backend=backend,
        latency_model=latency_model,
        latency_seed=latency_seed,
    )


def build_balancing_attack_simulation(
    n_validators: int = 16,
    byzantine_fraction: float = 0.25,
    config: Optional[SpecConfig] = None,
    seed: str = "repro",
    delta: float = 1.0,
    sway_delay: float = 0.0,
    view_sharding: bool = True,
    backend: str = "numpy",
    max_attempts: int = 256,
    latency_model: LatencySpec = None,
    latency_seed: int = 0,
) -> SimulationEngine:
    """The Gasper balancing attack over a *healthy* network.

    An adversarial slot-1 proposer equivocates two tagged blocks, showing
    one to each half of the honest validators, and Byzantine "swayers" in
    later committees keep the two branches balanced with targeted,
    optionally delayed votes (:class:`~repro.agents.byzantine.SwayerByzantine`).
    There is no partition: the fork lives purely on targeted messages, so
    under ``view_sharding=True`` this is the scenario that exercises
    dynamic view splitting (the single honest group fragments into a left
    and a right view at slot 1; peak live groups stay ~3 at any N).

    The attack needs the slot-1 proposer to be adversarial, so the duty
    seed is *rejection-sampled*: derived seeds ``"{seed}/balancing-{k}"``
    are probed against the deterministic duty schedule until one puts a
    Byzantine validator in the slot-1 proposer role (the same
    role-feasibility question the ``balancing-feasibility`` experiment
    sweeps).  Raises ``ValueError`` when no feasible assignment is found
    within ``max_attempts``.
    """
    cfg = config or SpecConfig.minimal()
    registry = make_registry(n_validators, cfg, byzantine_fraction=byzantine_fraction)
    honest_indices = [v.index for v in registry if v.label == "honest"]
    byzantine_indices = [v.index for v in registry if v.label == "byzantine"]
    if not byzantine_indices:
        raise ValueError("the balancing attack needs byzantine_fraction > 0")
    byzantine_set = set(byzantine_indices)

    split_slot = 1  # slot 0 carries the genesis block; the fork starts at 1.
    scheduler = None
    for attempt in range(max_attempts):
        candidate = DutyScheduler(config=cfg, seed=f"{seed}/balancing-{attempt}")
        duties = candidate.duties_for_epoch(0, registry)
        if duties.proposers[split_slot] in byzantine_set:
            scheduler = candidate
            break
    if scheduler is None:
        raise ValueError(
            f"no duty seed with an adversarial slot-{split_slot} proposer found "
            f"in {max_attempts} attempts (F={len(byzantine_indices)}, N={n_validators})"
        )

    half = len(honest_indices) // 2
    left = tuple(honest_indices[:half])
    right = tuple(honest_indices[half:])
    agents: Dict[int, ValidatorAgent] = {
        index: HonestAgent(index) for index in honest_indices
    }
    swayer = SwayerByzantine(
        byzantine_indices[0],
        left=left,
        right=right,
        byzantine=byzantine_indices,
        split_slot=split_slot,
        sway_delay=sway_delay,
    )
    for index in byzantine_indices:
        agents[index] = swayer.for_validator(index)
    engine = SimulationEngine(
        registry=registry,
        agents=agents,
        schedule=PartitionSchedule.fully_connected(delta=delta),
        config=cfg,
        seed=scheduler.seed,
        view_sharding=view_sharding,
        backend=backend,
        latency_model=latency_model,
        latency_seed=latency_seed,
    )
    # The probe already shuffled epoch 0 for this seed; hand its memo over.
    engine.scheduler = scheduler
    return engine


def build_behavior_mix_simulation(
    n_validators: int = 16,
    lazy_fraction: float = 0.2,
    intermittent_fraction: float = 0.2,
    miss_rate: float = 0.1,
    max_delay: float = 4.0,
    online_probability: float = 0.75,
    profile_seed: int = 0,
    config: Optional[SpecConfig] = None,
    seed: str = "repro",
    view_sharding: bool = True,
    backend: str = "numpy",
    latency_model: LatencySpec = None,
    latency_seed: int = 0,
) -> SimulationEngine:
    """A healthy network with realistic non-ideal honest behaviour.

    The registry is split into three contiguous bands: fully honest
    validators first, then ``lazy_fraction`` lazy validators
    (:class:`~repro.agents.profiles.LazyValidator` — seeded late/missed
    attestations), then ``intermittent_fraction`` intermittent validators
    (:class:`~repro.agents.profiles.IntermittentValidator` — seeded
    per-epoch availability).  Combine with a latency model for the full
    "realistic network" configuration the ROADMAP calls for.
    """
    if lazy_fraction < 0 or intermittent_fraction < 0:
        raise ValueError("behaviour fractions must be non-negative")
    if lazy_fraction + intermittent_fraction > 1.0:
        raise ValueError("behaviour fractions must sum to at most 1")
    cfg = config or SpecConfig.minimal()
    registry = make_registry(n_validators, cfg)
    n_lazy = int(round(n_validators * lazy_fraction))
    n_intermittent = int(round(n_validators * intermittent_fraction))
    n_plain = n_validators - n_lazy - n_intermittent
    agents: Dict[int, ValidatorAgent] = {}
    for validator in registry:
        if validator.index < n_plain:
            agents[validator.index] = HonestAgent(validator.index)
        elif validator.index < n_plain + n_lazy:
            agents[validator.index] = LazyValidator(
                validator.index,
                miss_rate=miss_rate,
                max_delay=max_delay,
                seed=profile_seed,
            )
        else:
            agents[validator.index] = IntermittentValidator(
                validator.index,
                online_probability=online_probability,
                seed=profile_seed,
            )
    return SimulationEngine(
        registry=registry,
        agents=agents,
        schedule=PartitionSchedule.fully_connected(delta=1.0),
        config=cfg,
        seed=seed,
        view_sharding=view_sharding,
        backend=backend,
        latency_model=latency_model,
        latency_seed=latency_seed,
    )


# ----------------------------------------------------------------------
# Mainnet-scale presets
# ----------------------------------------------------------------------
#: Named large-scale scenario configurations.  Each entry maps to a
#: builder plus keyword arguments; the sizes were out of reach before view
#: sharding (the per-node engine needs N registry copies of N validators —
#: 10⁸ objects at 10k — before simulating a single slot).
SCENARIO_PRESETS: Dict[str, Dict[str, Any]] = {
    # The paper's two-branch partition at mainnet validator counts.
    "mainnet-partition-10k": {
        "builder": "partitioned",
        "kwargs": {
            "n_validators": 10_000,
            "p0": 0.5,
            "config": SpecConfig.mainnet(),
        },
    },
    # Partition with a double-voting adversary that gets slashed after GST.
    "mainnet-double-voting-10k": {
        "builder": "partitioned",
        "kwargs": {
            "n_validators": 10_000,
            "p0": 0.5,
            "byzantine_fraction": 0.1,
            "byzantine_strategy": "double-voting",
            "gst_epoch": 3,
            "config": SpecConfig.mainnet(),
        },
    },
    # Alternating (never-slashable) adversary growing beta during the leak.
    "mainnet-alternating-10k": {
        "builder": "partitioned",
        "kwargs": {
            "n_validators": 10_000,
            "p0": 0.5,
            "byzantine_fraction": 0.2,
            "byzantine_strategy": "alternating",
            "config": SpecConfig.mainnet(),
        },
    },
    # Healthy-network liveness baseline at scale.
    "mainnet-healthy-10k": {
        "builder": "honest",
        "kwargs": {
            "n_validators": 10_000,
            "config": SpecConfig.mainnet(),
        },
    },
    # 40% of the stake offline: leak dynamics at scale.
    "mainnet-offline-10k": {
        "builder": "offline",
        "kwargs": {
            "n_validators": 10_000,
            "offline_fraction": 0.4,
            "config": SpecConfig.mainnet(),
        },
    },
    # Balancing attack over a healthy network: the dynamic-view-splitting
    # showcase (peak live view groups ~3 even at 10k validators).
    "mainnet-balancing-10k": {
        "builder": "balancing",
        "kwargs": {
            "n_validators": 10_000,
            "byzantine_fraction": 0.15,
            "config": SpecConfig.mainnet(),
        },
    },
    # Healthy network under GossipSub-style per-hop propagation: the
    # realistic-network benchmark workload (latency models are named, so
    # each build binds a fresh seeded model instance).
    "mainnet-gossip-10k": {
        "builder": "honest",
        "kwargs": {
            "n_validators": 10_000,
            "config": SpecConfig.mainnet(),
            "latency_model": "gossip",
        },
    },
    # Healthy network under heavy-tailed log-normal latency.
    "mainnet-lognormal-10k": {
        "builder": "honest",
        "kwargs": {
            "n_validators": 10_000,
            "config": SpecConfig.mainnet(),
            "latency_model": "lognormal",
        },
    },
    # Gossip propagation plus lazy/intermittent honest behaviour: the
    # full realistic-network configuration of ROADMAP item 2.
    "mainnet-behavior-10k": {
        "builder": "behavior-mix",
        "kwargs": {
            "n_validators": 10_000,
            "lazy_fraction": 0.1,
            "intermittent_fraction": 0.1,
            "config": SpecConfig.mainnet(),
            "latency_model": "gossip",
        },
    },
}

_PRESET_BUILDERS = {
    "honest": build_honest_simulation,
    "offline": build_offline_fraction_simulation,
    "partitioned": build_partitioned_simulation,
    "balancing": build_balancing_attack_simulation,
    "behavior-mix": build_behavior_mix_simulation,
}


def build_preset(name: str, **overrides: Any) -> SimulationEngine:
    """Build a named large-scale scenario from :data:`SCENARIO_PRESETS`.

    ``overrides`` are merged over the preset's keyword arguments, so tests
    can e.g. shrink ``n_validators`` or swap the backend without redefining
    the scenario.
    """
    preset = SCENARIO_PRESETS.get(name)
    if preset is None:
        raise KeyError(
            f"unknown scenario preset {name!r}; expected one of {sorted(SCENARIO_PRESETS)}"
        )
    kwargs = dict(preset["kwargs"])
    kwargs.update(overrides)
    return _PRESET_BUILDERS[preset["builder"]](**kwargs)
