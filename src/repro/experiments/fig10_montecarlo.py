"""Monte-Carlo validation of the Figure-10 closed form, as full curves.

Runs the per-validator discrete bouncing-attack simulation (no Gaussian
approximation, score floor and ejection included) and compares the
empirical probability of exceeding the one-third threshold with the
Equation-24 closed form, for several initial Byzantine proportions.
The attack-stopping rule is disabled so the comparison targets the same
conditional quantity the paper plots.

Unlike the paper's single-point validation, the default run records the
exceed probability at many epochs (``record_every``) over 10^2–10^3 trials,
producing the full Figure-10 exceed-probability *curve* per ``beta0``.
The CLI exposes the workload knobs as ``--trials`` and ``--record-every``
(plus ``--jobs``/``--seed`` from the shared runner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.bouncing import BouncingAttackModel
from repro.analysis.montecarlo import BouncingMonteCarlo


def plan_record_epochs(horizon: int, record_every: Optional[int]) -> List[int]:
    """Epochs at which the Monte-Carlo runs record the Byzantine proportion.

    Multiples of ``record_every`` up to ``horizon``, always including the
    horizon itself; ``None`` reproduces the single-point validation.
    """
    if record_every is None:
        return [horizon]
    if record_every <= 0:
        raise ValueError("record_every must be positive")
    epochs = list(range(record_every, horizon + 1, record_every))
    if not epochs or epochs[-1] != horizon:
        epochs.append(horizon)
    return epochs


@dataclass
class Figure10MonteCarloResult:
    """Closed-form vs empirical exceed-probability curves."""

    p0: float
    horizon: int
    n_trials: int
    n_honest: int
    beta0_values: Sequence[float]
    #: Epochs at which the empirical probability was recorded.
    record_epochs: Sequence[int]
    #: beta0 -> epoch -> closed-form P[beta > 1/3] (single branch).
    closed_form_series: Dict[float, Dict[int, float]]
    #: beta0 -> epoch -> closed-form probability doubled for the two branches.
    closed_form_both_series: Dict[float, Dict[int, float]]
    #: beta0 -> epoch -> empirical P[beta > 1/3 on either branch].
    empirical_series: Dict[float, Dict[int, float]]

    # -- horizon-point views (the paper's validation numbers) ----------
    @property
    def closed_form(self) -> Dict[float, float]:
        """beta0 -> closed-form probability at the horizon (single branch)."""
        return {b: series[self.horizon] for b, series in self.closed_form_series.items()}

    @property
    def closed_form_both(self) -> Dict[float, float]:
        """beta0 -> two-branch closed-form probability at the horizon."""
        return {
            b: series[self.horizon]
            for b, series in self.closed_form_both_series.items()
        }

    @property
    def empirical(self) -> Dict[float, float]:
        """beta0 -> empirical either-branch probability at the horizon."""
        return {b: series[self.horizon] for b, series in self.empirical_series.items()}

    def rows(self) -> List[Dict[str, float]]:
        """One row per (beta0, record epoch) — the exported curve."""
        return [
            {
                "beta0": beta0,
                "epoch": epoch,
                "closed_form_single_branch": self.closed_form_series[beta0][epoch],
                "closed_form_both_branches": self.closed_form_both_series[beta0][epoch],
                "empirical_either_branch": self.empirical_series[beta0][epoch],
            }
            for beta0 in self.beta0_values
            for epoch in self.record_epochs
        ]

    def horizon_rows(self) -> List[Dict[str, float]]:
        """One row per beta0, evaluated at the horizon (validation summary)."""
        return [
            {
                "beta0": beta0,
                "closed_form_single_branch": self.closed_form[beta0],
                "closed_form_both_branches": self.closed_form_both[beta0],
                "empirical_either_branch": self.empirical[beta0],
            }
            for beta0 in self.beta0_values
        ]

    def format_text(self) -> str:
        lines = [
            "Figure 10 (validation) — Monte-Carlo vs Equation 24 "
            f"(t={self.horizon}, {self.n_trials} trials x {self.n_honest} honest validators)",
            f"  {'beta0':>8}  {'Eq.24 (1 branch)':>16}  {'Eq.24 (2 branches)':>18}  {'Monte-Carlo':>12}",
        ]
        for row in self.horizon_rows():
            lines.append(
                f"  {row['beta0']:>8.4f}  {row['closed_form_single_branch']:>16.3f}  "
                f"{row['closed_form_both_branches']:>18.3f}  {row['empirical_either_branch']:>12.3f}"
            )
        if len(self.record_epochs) > 1:
            lines.append(
                "  exceed-probability curves (empirical either-branch per epoch):"
            )
            for beta0 in self.beta0_values:
                points = "  ".join(
                    f"t={epoch}: {self.empirical_series[beta0][epoch]:.3f}"
                    for epoch in self.record_epochs
                )
                lines.append(f"    beta0={beta0:.4f}  {points}")
        return "\n".join(lines)

    def max_gap_to_both_branches_form(self) -> float:
        """Largest absolute gap between the doubled closed form and the empirical value."""
        return max(
            abs(self.closed_form_both[beta0] - self.empirical[beta0])
            for beta0 in self.beta0_values
        )


def run(
    beta0_values: Sequence[float] = (1.0 / 3.0, 0.333, 0.33),
    p0: float = 0.5,
    horizon: int = 4000,
    n_trials: int = 512,
    n_honest: int = 256,
    seed: int = 0,
    jobs: Optional[int] = None,
    record_every: Optional[int] = 500,
    batch: Optional[int] = None,
    backend: str = "numpy",
) -> Figure10MonteCarloResult:
    """Compare Equation 24 with the discrete Monte-Carlo simulation.

    ``record_every`` spaces the record epochs of the exceed-probability
    curve (``None`` records only the horizon).  ``jobs`` parallelizes the
    trial chunks of each Monte-Carlo run (``None``/1 serial, <=0 all
    cores), ``batch`` sets the trial-batched kernel width (``None`` = a
    cache-budgeted default) and ``backend`` selects the stake-dynamics
    kernel (``numpy`` or ``python``); seeded
    results are identical at any parallelism or batch level.
    """
    record_epochs = plan_record_epochs(horizon, record_every)
    closed_form_series: Dict[float, Dict[int, float]] = {}
    closed_form_both_series: Dict[float, Dict[int, float]] = {}
    empirical_series: Dict[float, Dict[int, float]] = {}
    for beta0 in beta0_values:
        model = BouncingAttackModel(beta0=beta0, p0=p0)
        closed_form_series[beta0] = {
            epoch: model.exceed_threshold_probability(float(epoch))
            for epoch in record_epochs
        }
        closed_form_both_series[beta0] = {
            epoch: model.exceed_threshold_probability(float(epoch), both_branches=True)
            for epoch in record_epochs
        }
        monte_carlo = BouncingMonteCarlo(
            beta0=beta0,
            p0=p0,
            n_honest=n_honest,
            enforce_stopping=False,
            seed=seed,
            backend=backend,
        )
        result = monte_carlo.run(
            n_trials=n_trials,
            horizon=horizon,
            record_epochs=record_epochs,
            jobs=jobs,
            batch=batch,
        )
        empirical_series[beta0] = result.exceed_probability_curve()
    return Figure10MonteCarloResult(
        p0=p0,
        horizon=horizon,
        n_trials=n_trials,
        n_honest=n_honest,
        beta0_values=list(beta0_values),
        record_epochs=record_epochs,
        closed_form_series=closed_form_series,
        closed_form_both_series=closed_form_both_series,
        empirical_series=empirical_series,
    )
