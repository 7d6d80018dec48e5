"""Ablation: the paper's analysis under alternative penalty mechanisms.

The paper's discussion (Sections 1 and 6) points out that other PoS designs
penalise inactive validators too, and that the interplay of such penalties
with Byzantine behaviour deserves analysis.  This experiment replays the
paper's headline quantities under a family of mechanisms, each a
:class:`~repro.spec.config.SpecConfig` that overrides the penalty quotient
(leak speed), the score dynamics or the quorum:

* how long a partition must last before Safety is lost (Section 5.1 bound),
* when inactive / semi-active validators get ejected (Figure 2),
* the critical Byzantine proportion of Section 5.2.3 (Figure 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.finalization_time import ByzantineStrategy, conflicting_finalization_time
from repro.analysis.threshold import critical_beta0
from repro.leak.stake import Behavior, continuous_ejection_epoch
from repro.spec.config import SpecConfig


@dataclass
class GeneralizedMechanismResult:
    """Headline quantities per penalty mechanism (one config each)."""

    mechanisms: Dict[str, SpecConfig]
    safety_bounds: Dict[str, float]
    inactive_ejections: Dict[str, float]
    semi_active_ejections: Dict[str, Optional[float]]
    critical_beta0s: Dict[str, float]

    def rows(self) -> List[Dict[str, object]]:
        return [
            {
                "mechanism": name,
                "penalty_quotient": float(config.inactivity_penalty_quotient),
                "score_bias": float(config.inactivity_score_bias),
                "safety_bound_epochs": self.safety_bounds[name],
                "inactive_ejection_epoch": self.inactive_ejections[name],
                "semi_active_ejection_epoch": self.semi_active_ejections[name],
                "critical_beta0": self.critical_beta0s[name],
            }
            for name, config in self.mechanisms.items()
        ]

    def format_text(self) -> str:
        lines = ["Generalized penalty mechanisms — Safety bound, ejections, critical beta0"]
        for row in self.rows():
            semi = row["semi_active_ejection_epoch"]
            lines.append(
                f"  {row['mechanism']:<22} "
                f"quotient=2^{math.log2(row['penalty_quotient']):<4.0f} "
                f"safety bound={row['safety_bound_epochs']:>8.0f} epochs, "
                f"ejection (inactive/semi)={row['inactive_ejection_epoch']:>7.0f}/"
                f"{semi if semi is None else format(semi, '.0f'):>7}, "
                f"critical beta0={row['critical_beta0']:.4f}"
            )
        return "\n".join(lines)


DEFAULT_MECHANISMS: Dict[str, SpecConfig] = {
    "ethereum (2**26)": SpecConfig(),
    "aggressive (2**20)": SpecConfig(inactivity_penalty_quotient=2 ** 20),
    "moderate (2**24)": SpecConfig(inactivity_penalty_quotient=2 ** 24),
    "lenient (2**28)": SpecConfig(inactivity_penalty_quotient=2 ** 28, inactivity_score_bias=2),
    "strict quorum (3/4)": SpecConfig(supermajority_numerator=3, supermajority_denominator=4),
}


def run(
    mechanisms: Optional[Dict[str, SpecConfig]] = None,
    p0: float = 0.5,
) -> GeneralizedMechanismResult:
    """Evaluate the headline quantities for every mechanism."""
    chosen = dict(DEFAULT_MECHANISMS if mechanisms is None else mechanisms)
    return GeneralizedMechanismResult(
        mechanisms=chosen,
        safety_bounds={
            name: conflicting_finalization_time(
                ByzantineStrategy.NONE, p0, config=config
            ).finalization_epoch
            for name, config in chosen.items()
        },
        inactive_ejections={
            name: continuous_ejection_epoch(Behavior.INACTIVE, config=config)
            for name, config in chosen.items()
        },
        semi_active_ejections={
            name: continuous_ejection_epoch(Behavior.SEMI_ACTIVE, config=config)
            for name, config in chosen.items()
        },
        critical_beta0s={
            name: critical_beta0(p0, config=config) for name, config in chosen.items()
        },
    )
