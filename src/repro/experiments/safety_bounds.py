"""Section 5.1: the GST upper bound for Safety with only honest validators.

With an even split (p0 = 0.5) both branches regain the supermajority when
the inactive validators are ejected (epoch 4685 in the paper) and finalize
one epoch later (4686): any partition lasting longer than that loses
Safety even without a single Byzantine validator.  This experiment computes
the bound analytically (Equation 6) and cross-checks it with the discrete
aggregate simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import constants
from repro.analysis.finalization_time import ByzantineStrategy, conflicting_finalization_time
from repro.analysis.partition_scenarios import run_all_honest_scenario

#: The paper's headline bound: conflicting finalization at epoch 4686.
PAPER_SAFETY_BOUND_EPOCHS = 4686


@dataclass
class SafetyBoundResult:
    """Analytical and simulated GST upper bound for Safety."""

    p0_values: Sequence[float]
    #: p0 -> analytical threshold epoch of the slower branch (Equation 6).
    analytical_threshold: Dict[float, float]
    #: p0 -> analytical conflicting-finalization epoch (threshold + 1).
    analytical_finalization: Dict[float, float]
    #: p0 -> simulated conflicting-finalization epoch.
    simulated_finalization: Dict[float, Optional[int]]
    paper_bound: int = PAPER_SAFETY_BOUND_EPOCHS

    def rows(self) -> List[Dict[str, object]]:
        return [
            {
                "p0": p0,
                "threshold_epoch": self.analytical_threshold[p0],
                "finalization_epoch_analytical": self.analytical_finalization[p0],
                "finalization_epoch_simulated": self.simulated_finalization.get(p0),
            }
            for p0 in self.p0_values
        ]

    def format_text(self) -> str:
        lines = [
            "Section 5.1 — GST upper bound for Safety (honest validators only)",
            f"  paper bound: {self.paper_bound} epochs (~3 weeks)",
        ]
        for row in self.rows():
            lines.append(
                f"  p0={row['p0']:<4} slower branch crosses 2/3 at "
                f"{row['threshold_epoch']:.0f}, finalizes at "
                f"{row['finalization_epoch_analytical']:.0f} "
                f"(simulated: {row['finalization_epoch_simulated']})"
            )
        return "\n".join(lines)

    def worst_case_bound(self) -> float:
        """The minimum over p0 of the conflicting-finalization epoch.

        The fastest way to lose Safety is the even split; no configuration of
        honest validators can lose it earlier.
        """
        return min(self.analytical_finalization.values())


def run(
    p0_values: Sequence[float] = (0.5, 0.4, 0.3),
    include_simulation: bool = True,
    simulation_max_epochs: int = 6000,
) -> SafetyBoundResult:
    """Compute the Safety upper bound for several honest splits."""
    analytical_threshold: Dict[float, float] = {}
    analytical_finalization: Dict[float, float] = {}
    simulated: Dict[float, Optional[int]] = {}
    for p0 in p0_values:
        result = conflicting_finalization_time(
            ByzantineStrategy.NONE, p0, 0.0, constants.PAPER_INACTIVE_EJECTION_EPOCH
        )
        analytical_threshold[p0] = result.threshold_epoch
        analytical_finalization[p0] = result.finalization_epoch
        if include_simulation:
            outcome = run_all_honest_scenario(p0=p0, max_epochs=simulation_max_epochs)
            simulated[p0] = outcome.conflicting_finalization_epoch
    return SafetyBoundResult(
        p0_values=list(p0_values),
        analytical_threshold=analytical_threshold,
        analytical_finalization=analytical_finalization,
        simulated_finalization=simulated,
    )
