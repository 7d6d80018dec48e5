"""Differential network-equivalence harness: the default path is unchanged.

The latency layer must be invisible unless asked for.  This suite pins
that claim three ways, for every scenario preset the repo ships (shrunk
to test size) and on both kernel backends:

* ``latency_model=None`` (the default) and ``latency_model=UniformDelay()``
  produce byte-identical trajectories *and* byte-identical transport
  statistics — ``UniformDelay`` is routed through the exact legacy
  scheduling code, not a lookalike;
* the string spelling ``latency_model="uniform"`` resolves to the same
  thing, so the CLI seam cannot drift from the programmatic one;
* the transport of a default build is provably unmodeled (the legacy
  fast path, no per-recipient sampling).

Any change to transport scheduling that alters default timing, delivery
order, or partition accounting fails this file before it can perturb a
single published number.
"""

import dataclasses

import pytest

from repro.network.latency import UniformDelay
from repro.sim.scenarios import SCENARIO_PRESETS, build_preset
from repro.spec.config import SpecConfig

#: Presets predating the latency layer: their kwargs carry no model, so
#: the None / UniformDelay comparison is exactly "pre-PR vs post-PR".
LEGACY_PRESETS = sorted(
    name
    for name, preset in SCENARIO_PRESETS.items()
    if "latency_model" not in preset["kwargs"]
)

#: Shrink overrides: preset semantics at differential-test size.
SMALL = {"n_validators": 16, "config": SpecConfig.minimal()}
EPOCHS = 3


def run_small(name: str, backend: str = "numpy", **overrides):
    engine = build_preset(name, backend=backend, **SMALL, **overrides)
    return engine, engine.run(EPOCHS)


def validator_states(result):
    """Every validator's final state: the state of the view it belongs to."""
    return {
        index: result.view_states[name]
        for name, members in result.view_groups.items()
        for index in members
    }


def assert_trajectories_identical(first, second):
    assert first.epochs_run == second.epochs_run
    assert first.snapshots == second.snapshots
    first_states = validator_states(first)
    second_states = validator_states(second)
    assert set(first_states) == set(second_states)
    for index, state in first_states.items():
        assert state == second_states[index], (
            f"final state of validator {index} diverged"
        )
    assert first.slashed_indices == second.slashed_indices
    assert first.view_events == second.view_events
    assert first.peak_view_count == second.peak_view_count


def assert_stats_identical(first, second):
    # Full dataclass equality: sent, delivered, and every delay counter.
    assert dataclasses.asdict(first.transport_stats) == dataclasses.asdict(
        second.transport_stats
    )


class TestDefaultPathUnchanged:
    @pytest.mark.parametrize("name", LEGACY_PRESETS)
    def test_uniform_model_is_byte_identical_to_none(self, name):
        _, baseline = run_small(name)
        _, pinned = run_small(name, latency_model=UniformDelay())
        assert_trajectories_identical(baseline, pinned)
        assert_stats_identical(baseline, pinned)

    @pytest.mark.parametrize("name", LEGACY_PRESETS)
    def test_string_spelling_matches_instance(self, name):
        _, named = run_small(name, latency_model="uniform")
        _, pinned = run_small(name, latency_model=UniformDelay())
        assert_trajectories_identical(named, pinned)
        assert_stats_identical(named, pinned)

    @pytest.mark.parametrize(
        "name", ["mainnet-healthy-10k", "mainnet-partition-10k", "mainnet-balancing-10k"]
    )
    def test_python_backend_agrees(self, name):
        _, baseline = run_small(name, backend="python")
        _, pinned = run_small(name, backend="python", latency_model=UniformDelay())
        assert_trajectories_identical(baseline, pinned)
        assert_stats_identical(baseline, pinned)

    def test_default_transport_is_unmodeled(self):
        engine, _ = run_small("mainnet-partition-10k")
        assert engine.latency_model is None
        assert not engine.network._modeled

    def test_uniform_transport_takes_the_legacy_path(self):
        engine, _ = run_small("mainnet-partition-10k", latency_model=UniformDelay())
        assert engine.latency_model is not None
        assert engine.latency_model.is_uniform
        # is_uniform short-circuits _schedule_modeled entirely.
        assert not engine.network._modeled

    def test_per_node_fallback_also_pinned(self):
        _, baseline = run_small("mainnet-partition-10k", view_sharding=False)
        _, pinned = run_small(
            "mainnet-partition-10k", view_sharding=False, latency_model=UniformDelay()
        )
        assert_trajectories_identical(baseline, pinned)
        assert_stats_identical(baseline, pinned)


class TestDefaultCountersStayLegacy:
    def test_new_counters_are_zero_on_the_default_path(self):
        # No model, no lazy agents, no adversary delays: every new counter
        # must sit at exactly zero — the legacy fields carry the traffic.
        _, result = run_small("mainnet-partition-10k")
        stats = result.transport_stats
        assert stats.adversary_delayed == 0
        assert stats.lazy_delayed == 0
        assert stats.latency_delayed == 0
        assert stats.delivered > 0
        assert stats.delayed_across_partition > 0

    def test_healthy_default_has_no_partition_delays(self):
        _, result = run_small("mainnet-healthy-10k")
        stats = result.transport_stats
        assert stats.delayed_across_partition == 0
        assert stats.latency_delayed == 0
