"""Table 2: epochs to conflicting finalization with slashable Byzantine behaviour.

For p0 = 0.5 and beta0 in {0, 0.1, 0.15, 0.2, 0.33} the paper reports
4685, 4066, 3622, 3107 and 502 epochs respectively (Equation 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro import constants
from repro.analysis.finalization_time import (
    ByzantineStrategy,
    epochs_to_conflicting_finalization,
)
from repro.analysis.partition_scenarios import run_slashable_byzantine_scenario
from repro.core.trials import PerTaskWorker, plan_task_chunks, run_tasks

PAPER_ROWS: Dict[float, int] = {0.0: 4685, 0.1: 4066, 0.15: 3622, 0.2: 3107, 0.33: 502}


@dataclass
class Table2Result:
    """Measured vs paper epochs for the slashable-Byzantine strategy.

    ``network_validation`` (present when a ``--latency-model`` was
    requested) holds a measured mainnet-scale partitioned slot-simulation
    run under that model, confirming the table's premise — no epoch
    finalizes while the partition holds — under realistic propagation.
    """

    p0: float
    beta0_values: Sequence[float]
    analytical_epochs: Dict[float, int]
    simulated_threshold_epochs: Dict[float, Optional[int]]
    paper_epochs: Dict[float, Optional[int]]
    network_validation: Optional[Dict[str, object]] = None

    def rows(self) -> List[Dict[str, object]]:
        """The Table-2 rows: beta0 and the epoch of conflicting finalization."""
        return [
            {
                "beta0": beta0,
                "epochs_analytical": self.analytical_epochs[beta0],
                "epochs_simulated": self.simulated_threshold_epochs.get(beta0),
                "epochs_paper": self.paper_epochs.get(beta0),
            }
            for beta0 in self.beta0_values
        ]

    def format_text(self) -> str:
        lines = [
            "Table 2 — epochs to conflicting finalization (slashable Byzantine, p0=0.5)",
            f"  {'beta0':>6}  {'analytical':>10}  {'simulated':>10}  {'paper':>6}",
        ]
        for row in self.rows():
            simulated = row["epochs_simulated"]
            lines.append(
                f"  {row['beta0']:>6}  {row['epochs_analytical']:>10}  "
                f"{simulated if simulated is not None else '-':>10}  "
                f"{row['epochs_paper'] if row['epochs_paper'] is not None else '-':>6}"
            )
        if self.network_validation is not None:
            v = self.network_validation
            lines.append(
                f"  network validation ({v['latency_model']}, "
                f"{v['n_validators']} validators, p0={v['p0']}): "
                f"finalization stalled={v['finalization_stalled']}, "
                f"{v['delayed_across_partition']} deliveries held to GST, "
                f"{v['slots_per_second']:.0f} slots/s"
            )
        return "\n".join(lines)


def _simulate_row(p0: float, max_epochs: int, beta0: float) -> Optional[int]:
    """Simulated threshold epoch for one beta0 (picklable for workers)."""
    outcome = run_slashable_byzantine_scenario(beta0=beta0, p0=p0, max_epochs=max_epochs)
    branches = outcome.simulation.branches if outcome.simulation else {}
    threshold_epochs = [
        branch.threshold_epoch
        for branch in branches.values()
        if branch.threshold_epoch is not None
    ]
    return max(threshold_epochs) if len(threshold_epochs) == len(branches) else None


def run(
    beta0_values: Sequence[float] = tuple(PAPER_ROWS),
    p0: float = 0.5,
    include_simulation: bool = True,
    simulation_max_epochs: int = 6000,
    jobs: Optional[int] = None,
    latency_model: Optional[str] = None,
    latency_seed: int = 0,
    latency_validators: int = 10_000,
) -> Table2Result:
    """Reproduce Table 2.

    ``include_simulation`` additionally cross-checks each row against the
    discrete aggregate simulator (scenario 5.2.1), reporting the epoch at
    which the slower branch regains the supermajority; ``jobs`` fans
    those per-beta0 simulations (the dominant cost — thousands of epochs
    each) across worker processes without changing any result.
    ``latency_model`` adds a measured partitioned slot-simulation at
    mainnet scale under the named latency model, re-validating the
    table's partition-stalls-finalization premise under realistic
    propagation.
    """
    analytical = {
        beta0: epochs_to_conflicting_finalization(
            ByzantineStrategy.SLASHING, p0, beta0, constants.PAPER_INACTIVE_EJECTION_EPOCH
        )
        for beta0 in beta0_values
    }
    simulated: Dict[float, Optional[int]] = {}
    if include_simulation:
        thresholds = run_tasks(
            PerTaskWorker(partial(_simulate_row, p0, simulation_max_epochs)),
            plan_task_chunks(beta0_values, chunk_size=1),
            jobs=jobs,
        )
        simulated = dict(zip(beta0_values, thresholds))
    validation: Optional[Dict[str, object]] = None
    if latency_model is not None:
        from repro.experiments.network_measure import measure_partitioned_premise

        validation = measure_partitioned_premise(
            latency_model,
            latency_seed=latency_seed,
            n_validators=latency_validators,
            p0=p0,
        )
    return Table2Result(
        p0=p0,
        beta0_values=list(beta0_values),
        analytical_epochs=analytical,
        simulated_threshold_epochs=simulated,
        paper_epochs={beta0: PAPER_ROWS.get(beta0) for beta0 in beta0_values},
        network_validation=validation,
    )
