"""Measured slot-level network validation under realistic latency models.

The paper's finalization-time results (Tables 2–3, Figure 6) are derived
under a uniform-delay network.  This module runs the view-sharded slot
simulator at mainnet scale under a configurable latency model and
reports the observables those derivations rest on:

* on a *healthy* network, finalization keeps its normal ~2-epoch lag —
  realistic propagation does not break Liveness (Figure 6's baseline),
* on a *partitioned* network, no epoch finalizes while the partition
  holds — realistic propagation does not leak votes across the split,
  which is the premise of the Table 2/3 timeline equations.

Both helpers return flat dictionaries ready for ``rows()`` export.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

from repro.network.latency import LatencyModel
from repro.sim.scenarios import build_honest_simulation, build_partitioned_simulation
from repro.spec.config import SpecConfig


def _model_name(model: Union[str, LatencyModel]) -> str:
    return model if isinstance(model, str) else type(model).__name__


def measure_healthy_finalization(
    latency_model: Union[str, LatencyModel],
    latency_seed: int = 0,
    n_validators: int = 10_000,
    epochs: int = 4,
    config: Optional[SpecConfig] = None,
) -> Dict[str, object]:
    """Finalization progress of a healthy mainnet-scale network under latency."""
    engine = build_honest_simulation(
        n_validators=n_validators,
        config=config or SpecConfig.mainnet(),
        latency_model=latency_model,
        latency_seed=latency_seed,
    )
    start = time.perf_counter()
    result = engine.run(epochs)
    elapsed = time.perf_counter() - start
    finalized = result.max_finalized_epoch()
    stats = result.transport_stats
    return {
        "scenario": "healthy",
        "latency_model": _model_name(latency_model),
        "latency_seed": latency_seed,
        "n_validators": n_validators,
        "epochs": epochs,
        "finalized_epoch": finalized,
        "finalization_lag_epochs": epochs - 1 - finalized,
        "seconds": elapsed,
        "slots_per_second": epochs * engine.config.slots_per_epoch / elapsed,
        "messages_delivered": stats.delivered,
        "latency_delayed": stats.latency_delayed,
        "peak_view_count": result.peak_view_count,
    }


def measure_partitioned_premise(
    latency_model: Union[str, LatencyModel],
    latency_seed: int = 0,
    n_validators: int = 10_000,
    p0: float = 0.5,
    epochs: int = 2,
    config: Optional[SpecConfig] = None,
) -> Dict[str, object]:
    """The Table 2/3 premise under latency: a partition stalls finalization."""
    engine = build_partitioned_simulation(
        n_validators=n_validators,
        p0=p0,
        config=config or SpecConfig.mainnet(),
        latency_model=latency_model,
        latency_seed=latency_seed,
    )
    start = time.perf_counter()
    result = engine.run(epochs)
    elapsed = time.perf_counter() - start
    stats = result.transport_stats
    return {
        "scenario": "partitioned",
        "latency_model": _model_name(latency_model),
        "latency_seed": latency_seed,
        "n_validators": n_validators,
        "p0": p0,
        "epochs": epochs,
        "finalized_epoch": result.max_finalized_epoch(),
        "finalization_stalled": result.max_finalized_epoch() == 0,
        "seconds": elapsed,
        "slots_per_second": epochs * engine.config.slots_per_epoch / elapsed,
        "messages_delivered": stats.delivered,
        "delayed_across_partition": stats.delayed_across_partition,
        "latency_delayed": stats.latency_delayed,
    }
