"""Figure 3: evolution of the active-validator stake ratio per initial split p0.

The ratio follows Equation 5 until either the 2/3 supermajority is regained
or the inactive validators are ejected at epoch 4685, at which point the
ratio jumps to 1.  The paper plots p0 in {0.2, 0.3, 0.4, 0.5, 0.6}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro import constants
from repro.analysis.finalization_time import threshold_epoch_honest_only
from repro.leak.dynamics import BranchSimulation
from repro.leak.groups import GroupSpec, always_active, never_active
from repro.leak.ratios import active_ratio_honest_only

PAPER_P0_VALUES = (0.6, 0.5, 0.4, 0.3, 0.2)


@dataclass
class Figure3Result:
    """Analytical and simulated active-ratio series per p0."""

    epochs: Sequence[int]
    p0_values: Sequence[float]
    #: p0 -> analytical ratio series (Equation 5, with the ejection jump).
    analytical_series: Dict[float, List[float]]
    #: p0 -> discrete aggregate-simulation ratio series.
    simulated_series: Dict[float, List[float]]
    #: p0 -> epoch at which 2/3 is regained (analytical, Equation 6).
    threshold_epochs: Dict[float, float]
    ejection_epoch: float = float(constants.PAPER_INACTIVE_EJECTION_EPOCH)

    def rows(self) -> List[Dict[str, object]]:
        """One row per p0 with the 2/3-crossing epoch."""
        return [
            {
                "p0": p0,
                "threshold_epoch_analytical": self.threshold_epochs[p0],
                "final_ratio_analytical": self.analytical_series[p0][-1],
                "final_ratio_simulated": self.simulated_series[p0][-1],
            }
            for p0 in self.p0_values
        ]

    def format_text(self) -> str:
        lines = ["Figure 3 — ratio of active validators during the leak"]
        for row in self.rows():
            lines.append(
                f"  p0={row['p0']:<4} regains 2/3 at epoch "
                f"{row['threshold_epoch_analytical']:.0f} "
                f"(final ratio: analytical={row['final_ratio_analytical']:.3f}, "
                f"simulated={row['final_ratio_simulated']:.3f})"
            )
        return "\n".join(lines)


def _analytical_ratio_with_ejection(t: float, p0: float, ejection_epoch: float) -> float:
    """Equation 5, with the ratio jumping to 1 once inactive validators are ejected."""
    if t >= ejection_epoch:
        return 1.0
    return active_ratio_honest_only(t, p0)


def _simulated_series(p0: float, max_epoch: int, step: int) -> List[float]:
    """Discrete aggregate simulation of one branch with honest split p0."""
    branch = BranchSimulation(
        name="branch-1",
        groups=(
            GroupSpec(name="active", weight=p0, pattern=always_active),
            GroupSpec(name="inactive", weight=1.0 - p0, pattern=never_active),
        ),
    )
    result = branch.run(max_epoch + 1)
    series = result.active_ratio_series()
    return [series[min(epoch, len(series) - 1)] for epoch in range(0, max_epoch + 1, step)]


def run(
    p0_values: Sequence[float] = PAPER_P0_VALUES,
    max_epoch: int = 8000,
    step: int = 20,
    include_simulation: bool = True,
) -> Figure3Result:
    """Reproduce the Figure-3 series for the requested p0 values."""
    ejection = float(constants.PAPER_INACTIVE_EJECTION_EPOCH)
    epochs = list(range(0, max_epoch + 1, step))
    analytical = {
        p0: [_analytical_ratio_with_ejection(float(t), p0, ejection) for t in epochs]
        for p0 in p0_values
    }
    simulated = {
        p0: (_simulated_series(p0, max_epoch, step) if include_simulation else [])
        for p0 in p0_values
    }
    thresholds = {p0: threshold_epoch_honest_only(p0, ejection) for p0 in p0_values}
    return Figure3Result(
        epochs=epochs,
        p0_values=list(p0_values),
        analytical_series=analytical,
        simulated_series=simulated,
        threshold_epochs=thresholds,
        ejection_epoch=ejection,
    )
