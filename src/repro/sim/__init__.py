"""Slot-level discrete-event simulator of the Ethereum PoS protocol."""

from repro.sim.engine import SimulationEngine
from repro.sim.node import MemberView, Node
from repro.sim.results import EpochSnapshot, SimulationResult
from repro.sim.scenarios import (
    BYZANTINE_STRATEGIES,
    SCENARIO_PRESETS,
    build_honest_simulation,
    build_offline_fraction_simulation,
    build_partitioned_simulation,
    build_preset,
)
from repro.sim.sweeps import (
    ScenarioSpec,
    SweepResult,
    run_sweep,
    summarize_trial,
)

__all__ = [
    "BYZANTINE_STRATEGIES",
    "EpochSnapshot",
    "MemberView",
    "Node",
    "SCENARIO_PRESETS",
    "ScenarioSpec",
    "SimulationEngine",
    "SimulationResult",
    "SweepResult",
    "build_honest_simulation",
    "build_offline_fraction_simulation",
    "build_partitioned_simulation",
    "build_preset",
    "run_sweep",
    "summarize_trial",
]
