"""Ablation experiments beyond the paper's figures.

1. *Discrete vs continuous stake model*: quantifies the gap between the
   continuous ejection epochs (Section 4.3 closed forms) and the discrete
   protocol rules (Equations 1–2 stepped per epoch), which explains the
   difference between our derived 4661 and the paper's 4685 reference.
2. *Sensitivity to p0*: how Tables 2 and 3 change when the honest split is
   not even.
3. *Footnote-12 corner case*: Byzantine validators finalizing just before
   the honest ejection still eject the honest inactive validators while
   keeping more of their own stake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import constants
from repro.analysis.finalization_time import (
    threshold_epoch_non_slashing,
    threshold_epoch_slashing,
)
from repro.leak.ratios import byzantine_proportion, max_byzantine_proportion
from repro.leak.stake import Behavior, continuous_ejection_epoch
from repro.spec.inactivity import discrete_ejection_epoch


@dataclass
class EjectionModelAblation:
    """Discrete vs continuous ejection epochs for the leak behaviours."""

    behaviors: Sequence[str]
    continuous_epochs: Dict[str, Optional[float]]
    discrete_epochs: Dict[str, Optional[int]]
    paper_epochs: Dict[str, Optional[int]]

    def rows(self) -> List[Dict[str, object]]:
        return [
            {
                "behavior": behavior,
                "continuous": self.continuous_epochs[behavior],
                "discrete": self.discrete_epochs[behavior],
                "paper": self.paper_epochs[behavior],
                "relative_gap_vs_paper": (
                    None
                    if self.paper_epochs[behavior] is None
                    or self.discrete_epochs[behavior] is None
                    else abs(self.discrete_epochs[behavior] - self.paper_epochs[behavior])
                    / self.paper_epochs[behavior]
                ),
            }
            for behavior in self.behaviors
        ]


@dataclass
class SplitSensitivity:
    """Crossing times of the slower branch as a function of p0."""

    beta0: float
    p0_values: Sequence[float]
    slashing_epochs: Dict[float, float]
    non_slashing_epochs: Dict[float, float]

    def rows(self) -> List[Dict[str, float]]:
        return [
            {
                "p0": p0,
                "epochs_slashing": self.slashing_epochs[p0],
                "epochs_non_slashing": self.non_slashing_epochs[p0],
            }
            for p0 in self.p0_values
        ]


@dataclass
class EarlyFinalizationCorner:
    """Footnote-12 corner case: finalize right before the honest ejection."""

    p0: float
    beta0: float
    #: Byzantine proportion if they wait for the honest ejection (Eq. 13).
    beta_at_ejection: float
    #: Byzantine proportion if they finalize `lead` epochs before ejection
    #: (honest inactive validators still present but almost drained).
    beta_if_finalizing_early: Dict[int, float]

    def rows(self) -> List[Dict[str, float]]:
        rows = [{"lead_epochs": 0.0, "byzantine_proportion": self.beta_at_ejection}]
        for lead, beta in sorted(self.beta_if_finalizing_early.items()):
            rows.append({"lead_epochs": float(lead), "byzantine_proportion": beta})
        return rows


@dataclass
class AblationResult:
    """All ablations bundled together."""

    ejection_model: EjectionModelAblation
    split_sensitivity: SplitSensitivity
    early_finalization: EarlyFinalizationCorner

    def format_text(self) -> str:
        lines = ["Ablations"]
        lines.append("  [discrete vs continuous ejection epochs]")
        for row in self.ejection_model.rows():
            lines.append(
                f"    {row['behavior']:<12} continuous={row['continuous']}, "
                f"discrete={row['discrete']}, paper={row['paper']}"
            )
        lines.append("  [sensitivity of crossing times to p0]")
        for row in self.split_sensitivity.rows():
            lines.append(
                f"    p0={row['p0']:<5} slashing={row['epochs_slashing']:.0f}, "
                f"non-slashing={row['epochs_non_slashing']:.0f}"
            )
        lines.append("  [footnote-12 corner case: finalize early vs wait for ejection]")
        for row in self.early_finalization.rows():
            lines.append(
                f"    lead={row['lead_epochs']:.0f} epochs before ejection -> "
                f"beta={row['byzantine_proportion']:.4f}"
            )
        return "\n".join(lines)


def run(
    beta0: float = 0.33,
    p0_values: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7),
    early_leads: Sequence[int] = (50, 200, 500, 1000),
) -> AblationResult:
    """Run all three ablations."""
    behaviors = ("active", "semi-active", "inactive")
    behavior_enum = {
        "active": Behavior.ACTIVE,
        "semi-active": Behavior.SEMI_ACTIVE,
        "inactive": Behavior.INACTIVE,
    }
    ejection_model = EjectionModelAblation(
        behaviors=behaviors,
        continuous_epochs={
            name: continuous_ejection_epoch(behavior_enum[name]) for name in behaviors
        },
        discrete_epochs={
            name: discrete_ejection_epoch(name, max_epochs=12_000) for name in behaviors
        },
        paper_epochs={
            "active": None,
            "semi-active": constants.PAPER_SEMI_ACTIVE_EJECTION_EPOCH,
            "inactive": constants.PAPER_INACTIVE_EJECTION_EPOCH,
        },
    )

    split = SplitSensitivity(
        beta0=beta0,
        p0_values=list(p0_values),
        slashing_epochs={
            p0: max(
                threshold_epoch_slashing(p0, beta0),
                threshold_epoch_slashing(1.0 - p0, beta0),
            )
            for p0 in p0_values
        },
        non_slashing_epochs={
            p0: max(
                threshold_epoch_non_slashing(p0, beta0),
                threshold_epoch_non_slashing(1.0 - p0, beta0),
            )
            for p0 in p0_values
        },
    )

    # Both cases at one ejection epoch, the continuous inactive one.
    ejection = ejection_model.continuous_epochs["inactive"]
    p0_corner, beta0_corner = 0.5, 0.25
    corner = EarlyFinalizationCorner(
        p0=p0_corner,
        beta0=beta0_corner,
        beta_at_ejection=max_byzantine_proportion(p0_corner, beta0_corner, ejection),
        beta_if_finalizing_early={
            lead: byzantine_proportion(ejection - lead, p0_corner, beta0_corner)
            for lead in early_leads
        },
    )

    return AblationResult(
        ejection_model=ejection_model,
        split_sensitivity=split,
        early_finalization=corner,
    )
