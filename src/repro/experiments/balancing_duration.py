"""How long the Gasper balancing attack holds balance, swept over
committee size and sway-delay budget.

The ``balancing-feasibility`` experiment answers whether the adversary
can *staff* the attack from a random duty assignment; this experiment
answers the follow-up the ROADMAP's attack library calls for: once
staffed, **how long does the attack actually hold the fork balanced**?
Each grid point runs ``n_trials`` seeded slot-simulation trials of
:func:`repro.sim.scenarios.build_balancing_attack_simulation` through the
trial-parallel sweep engine (:mod:`repro.sim.sweeps`) and reports
hold-duration statistics:

* ``mean/min/max balance_held_epochs`` — leading epochs with no honest
  finalization anywhere (the attack's lifetime),
* ``held_full_horizon_fraction`` — the probability the adversary kept
  balance through the whole simulated horizon,
* ``peak view count`` — how far the honest views fragmented.

The sweep axes are the committee size (via the validator count — one
committee per slot, so ``n_validators = committee_size x slots_per_epoch``)
and the swayers' delay budget (seconds of deliberate lateness on the
balancing votes).  Trials parallelize across worker processes with
``--jobs`` and rows are byte-identical at any parallelism level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.sweeps import ScenarioSpec, SweepResult, run_sweep
from repro.spec.config import SpecConfig


@dataclass
class BalancingDurationResult:
    """Hold-duration statistics per (committee size, sway delay) point."""

    committee_sizes: Sequence[int]
    sway_delays: Sequence[float]
    byzantine_fraction: float
    epochs: int
    n_trials: int
    sweep: SweepResult

    def trial_rows(self) -> List[Dict[str, Any]]:
        """The underlying per-trial sweep rows."""
        return self.sweep.rows()

    def rows(self) -> List[Dict[str, Any]]:
        """One aggregated row per (committee size, sway delay) grid point."""
        aggregates = {summary["scenario"]: summary for summary in self.sweep.aggregate()}
        rows: List[Dict[str, Any]] = []
        for committee_size in self.committee_sizes:
            for sway_delay in self.sway_delays:
                summary = aggregates[_label(committee_size, sway_delay)]
                rows.append(
                    {
                        "committee_size": committee_size,
                        "sway_delay": sway_delay,
                        "byzantine_fraction": self.byzantine_fraction,
                        "epochs": self.epochs,
                        "n_trials": summary["n_trials"],
                        "mean_balance_held_epochs": summary["mean_balance_held_epochs"],
                        "min_balance_held_epochs": summary["min_balance_held_epochs"],
                        "max_balance_held_epochs": summary["max_balance_held_epochs"],
                        "held_full_horizon_fraction": summary[
                            "held_full_horizon_fraction"
                        ],
                        "mean_peak_view_count": summary["mean_peak_view_count"],
                        "any_safety_violated": summary["any_safety_violated"],
                    }
                )
        return rows

    def format_text(self) -> str:
        lines = [
            "Balancing-attack hold duration vs committee size and sway-delay budget",
            f"  ({self.n_trials} trials per point, beta0={self.byzantine_fraction}, "
            f"{self.epochs}-epoch horizon)",
            f"  {'committee':>9}  {'sway delay':>10}  {'held (mean/min/max)':>20}  "
            f"{'P[held full]':>12}  {'views':>6}",
        ]
        for row in self.rows():
            lines.append(
                f"  {row['committee_size']:>9d}  {row['sway_delay']:>10.1f}  "
                f"{row['mean_balance_held_epochs']:>8.2f}/"
                f"{row['min_balance_held_epochs']:>3d}/"
                f"{row['max_balance_held_epochs']:>3d}     "
                f"{row['held_full_horizon_fraction']:>12.2f}  "
                f"{row['mean_peak_view_count']:>6.1f}"
            )
        return "\n".join(lines)


def _label(committee_size: int, sway_delay: float) -> str:
    return f"c{committee_size}-sway{sway_delay:g}"


def run(
    committee_sizes: Sequence[int] = (8, 16),
    sway_delays: Sequence[float] = (0.0, 2.0, 4.0),
    byzantine_fraction: float = 0.2,
    epochs: int = 4,
    n_trials: int = 8,
    seed: int = 0,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> BalancingDurationResult:
    """Sweep balancing-attack hold duration over (committee size, sway delay).

    Committees are per-slot, so a committee of size ``c`` under the
    minimal config (4-slot epochs) means ``4c`` validators.  ``jobs``
    parallelizes the trial grid across worker processes; rows are
    byte-identical at any level.  ``seed`` decorrelates the whole sweep;
    each trial additionally derives its own duty/latency seed from its
    index.
    """
    if not committee_sizes or not sway_delays:
        raise ValueError("committee_sizes and sway_delays must be non-empty")
    config = SpecConfig.minimal()
    specs = []
    for committee_size in committee_sizes:
        if committee_size < 2:
            raise ValueError("committee_size must be at least 2")
        for sway_delay in sway_delays:
            if sway_delay < 0:
                raise ValueError("sway_delay must be non-negative")
            kwargs: Dict[str, Any] = {
                "n_validators": committee_size * config.slots_per_epoch,
                "byzantine_fraction": byzantine_fraction,
                "sway_delay": float(sway_delay),
                "config": config,
            }
            if backend is not None:
                kwargs["backend"] = backend
            specs.append(
                ScenarioSpec(
                    builder="balancing",
                    kwargs=kwargs,
                    epochs=epochs,
                    seed=f"balancing-duration/{seed}",
                    label=_label(committee_size, sway_delay),
                )
            )
    sweep = run_sweep(specs, n_trials, jobs=jobs)
    return BalancingDurationResult(
        committee_sizes=list(committee_sizes),
        sway_delays=[float(d) for d in sway_delays],
        byzantine_fraction=byzantine_fraction,
        epochs=epochs,
        n_trials=n_trials,
        sweep=sweep,
    )
