"""Registry of reproduction experiments, keyed by table/figure id."""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List

from repro.experiments import (
    ablations,
    balancing_duration,
    balancing_feasibility,
    bouncing_duration,
    fig2_stake_trajectories,
    fig3_active_ratio,
    fig6_finalization_times,
    fig7_threshold_region,
    fig8_markov_bounce,
    fig9_stake_distribution,
    fig10_exceed_probability,
    fig10_montecarlo,
    generalized_mechanism,
    recovery_tail,
    safety_bounds,
    sweep_grid,
    table1_scenarios,
    table2_slashing_times,
    table3_nonslashing_times,
)


@dataclass(frozen=True)
class Experiment:
    """A registered reproduction experiment."""

    experiment_id: str
    description: str
    run: Callable[..., object]

    #: Runner-level options an experiment may accept, in display order.
    RUNNER_OPTIONS = (
        "jobs",
        "seed",
        "n_trials",
        "record_every",
        "batch",
        "backend",
        "latency_model",
        "latency_seed",
    )

    def accepted_options(self) -> FrozenSet[str]:
        """Which runner-level options (``jobs``, ``seed``, ``n_trials``,
        ``record_every``, ``batch``, ``backend``, ``latency_model``,
        ``latency_seed``) this run accepts."""
        parameters = inspect.signature(self.run).parameters
        return frozenset(name for name in self.RUNNER_OPTIONS if name in parameters)

    @property
    def parallelizable(self) -> bool:
        """True when the experiment accepts a ``jobs`` option."""
        return "jobs" in self.accepted_options()


EXPERIMENTS: Dict[str, Experiment] = {
    "fig2": Experiment(
        "fig2",
        "Stake trajectories of active/semi-active/inactive validators (Figure 2)",
        fig2_stake_trajectories.run,
    ),
    "fig3": Experiment(
        "fig3",
        "Active-validator stake ratio per initial split p0 (Figure 3)",
        fig3_active_ratio.run,
    ),
    "table1": Experiment(
        "table1",
        "The five analysed scenarios and their outcomes (Table 1)",
        table1_scenarios.run,
    ),
    "table2": Experiment(
        "table2",
        "Epochs to conflicting finalization, slashable Byzantine (Table 2)",
        table2_slashing_times.run,
    ),
    "table3": Experiment(
        "table3",
        "Epochs to conflicting finalization, non-slashable Byzantine (Table 3)",
        table3_nonslashing_times.run,
    ),
    "fig6": Experiment(
        "fig6",
        "Conflicting-finalization time vs beta0, both strategies (Figure 6)",
        fig6_finalization_times.run,
    ),
    "fig7": Experiment(
        "fig7",
        "(p0, beta0) region where the Byzantine proportion can exceed 1/3 (Figure 7)",
        fig7_threshold_region.run,
    ),
    "fig8": Experiment(
        "fig8",
        "Markov bounce model of honest validators and Equation-15 increments (Figure 8)",
        fig8_markov_bounce.run,
    ),
    "fig9": Experiment(
        "fig9",
        "Honest-stake distribution under the bouncing attack at t=4024 (Figure 9)",
        fig9_stake_distribution.run,
    ),
    "fig10": Experiment(
        "fig10",
        "Probability of exceeding 1/3 Byzantine stake over time (Figure 10)",
        fig10_exceed_probability.run,
    ),
    "bouncing-duration": Experiment(
        "bouncing-duration",
        "Bouncing-attack duration probabilities (Section 5.3)",
        bouncing_duration.run,
    ),
    "safety-bound": Experiment(
        "safety-bound",
        "GST upper bound for Safety with only honest validators (Section 5.1)",
        safety_bounds.run,
    ),
    "ablations": Experiment(
        "ablations",
        "Ablations: discrete vs continuous model, p0 sensitivity, footnote-12 corner case",
        ablations.run,
    ),
    "fig10-montecarlo": Experiment(
        "fig10-montecarlo",
        "Monte-Carlo validation of the Figure-10 closed form (Equation 24)",
        fig10_montecarlo.run,
    ),
    "generalized-mechanism": Experiment(
        "generalized-mechanism",
        "The paper's headline quantities under alternative penalty mechanisms",
        generalized_mechanism.run,
    ),
    "recovery-tail": Experiment(
        "recovery-tail",
        "Post-leak recovery tail: residual penalties after finality resumes",
        recovery_tail.run,
    ),
    "sweep-grid": Experiment(
        "sweep-grid",
        "(p0, beta0) sweep of the conflicting-finalization time (Figure-6 extension)",
        sweep_grid.run,
    ),
    "balancing-feasibility": Experiment(
        "balancing-feasibility",
        "Gasper balancing-attack role feasibility over (C, N, F)",
        balancing_feasibility.run,
    ),
    "balancing-duration": Experiment(
        "balancing-duration",
        "Balancing-attack hold duration vs committee size and sway-delay budget",
        balancing_duration.run,
    ),
}


def get(experiment_id: str) -> Experiment:
    """Return the experiment registered under ``experiment_id``."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]


def run(experiment_id: str) -> object:
    """Run the experiment registered under ``experiment_id`` and return its result."""
    return get(experiment_id).run()


def list_ids() -> List[str]:
    """All registered experiment ids."""
    return sorted(EXPERIMENTS)
