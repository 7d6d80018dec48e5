"""Figure 6: time to conflicting finalization vs beta0 for both Byzantine strategies.

The figure sweeps beta0 from 0 to 1/3 and plots, for p0 = 0.5, the epoch at
which conflicting finalization occurs when the Byzantine validators engage
in slashable behaviour (Equation 9) and when they do not (Equation 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.analysis.finalization_time import threshold_epoch_non_slashing, threshold_epoch_slashing
from repro.core.trials import PerTaskWorker, plan_task_chunks, run_tasks


@dataclass
class Figure6Result:
    """Crossing-time curves for the two Byzantine strategies.

    ``network_validation`` (present when a ``--latency-model`` was
    requested) holds a measured mainnet-scale slot-simulation run under
    that model: the finalization lag of a healthy network, confirming
    that the closed-form curves' Liveness baseline survives realistic
    propagation.
    """

    p0: float
    beta0_values: Sequence[float]
    slashing_epochs: List[float]
    non_slashing_epochs: List[float]
    network_validation: Optional[Dict[str, object]] = None

    def rows(self) -> List[Dict[str, float]]:
        """One row per beta0 with both curves."""
        return [
            {
                "beta0": beta0,
                "epochs_slashing": self.slashing_epochs[i],
                "epochs_non_slashing": self.non_slashing_epochs[i],
            }
            for i, beta0 in enumerate(self.beta0_values)
        ]

    def format_text(self) -> str:
        lines = [
            "Figure 6 — time to conflicting finalization vs beta0 (p0=0.5)",
            f"  {'beta0':>6}  {'slashing':>9}  {'non-slashing':>12}",
        ]
        for row in self.rows()[:: max(1, len(self.rows()) // 12)]:
            lines.append(
                f"  {row['beta0']:>6.3f}  {row['epochs_slashing']:>9.0f}  "
                f"{row['epochs_non_slashing']:>12.0f}"
            )
        if self.network_validation is not None:
            v = self.network_validation
            lines.append(
                f"  network validation ({v['latency_model']}, "
                f"{v['n_validators']} validators, {v['epochs']} epochs): "
                f"finalized epoch {v['finalized_epoch']} "
                f"(lag {v['finalization_lag_epochs']}), "
                f"{v['slots_per_second']:.0f} slots/s, "
                f"{v['latency_delayed']} deliveries past the uniform bound"
            )
        return "\n".join(lines)

    def non_slashing_always_slower(self) -> bool:
        """Sanity property: the non-slashable strategy is never faster."""
        return all(
            non_slashing >= slashing - 1e-9
            for slashing, non_slashing in zip(self.slashing_epochs, self.non_slashing_epochs)
        )


def _curve_point(p0: float, beta0: float) -> Tuple[float, float]:
    """Both Figure-6 curves at one beta0 (picklable for worker processes),
    capped at the paper's 4685-epoch ejection."""
    cap = constants.PAPER_INACTIVE_EJECTION_EPOCH
    return (
        threshold_epoch_slashing(p0, beta0, cap),
        threshold_epoch_non_slashing(p0, beta0, cap),
    )


def run(
    beta0_max: float = 0.33,
    n_points: int = 67,
    p0: float = 0.5,
    jobs: Optional[int] = None,
    latency_model: Optional[str] = None,
    latency_seed: int = 0,
    latency_validators: int = 10_000,
    latency_epochs: int = 4,
) -> Figure6Result:
    """Reproduce the Figure-6 curves.

    ``jobs`` fans the beta0 grid across worker processes; the curves are
    closed-form, so results never depend on the parallelism level.  With
    ``latency_model`` set (``"uniform"``, ``"jitter"``,
    ``"lognormal"`` or ``"gossip"``) the closed-form curves are
    accompanied by a measured mainnet-scale (default 10k validators)
    slot-simulation run under that model, validating the Liveness
    baseline the curves extrapolate from.
    """
    beta0_values = [float(b) for b in np.linspace(0.0, beta0_max, n_points)]
    points = run_tasks(
        PerTaskWorker(partial(_curve_point, p0)),
        plan_task_chunks(beta0_values, chunk_size=1),
        jobs=jobs,
    )
    slashing = [point[0] for point in points]
    non_slashing = [point[1] for point in points]
    validation: Optional[Dict[str, object]] = None
    if latency_model is not None:
        from repro.experiments.network_measure import measure_healthy_finalization

        validation = measure_healthy_finalization(
            latency_model,
            latency_seed=latency_seed,
            n_validators=latency_validators,
            epochs=latency_epochs,
        )
    return Figure6Result(
        p0=p0,
        beta0_values=beta0_values,
        slashing_epochs=slashing,
        non_slashing_epochs=non_slashing,
        network_validation=validation,
    )
