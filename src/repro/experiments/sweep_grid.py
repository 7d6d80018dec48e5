"""Full (p0, beta0) sweep of the conflicting-finalization time.

Figure 6 fixes p0 = 0.5 and sweeps beta0; this extension sweeps both
parameters and reports, for each Byzantine strategy, the epoch at which the
*slower* branch of the fork regains a supermajority — a heat-map view of
how the honest split and the Byzantine proportion jointly determine how
fast Safety can be lost.  It also locates, for each beta0, the worst-case
split (which the paper argues is the even one).

When asked for Monte-Carlo trials (``n_trials``), the sweep additionally
re-derives the grid *empirically*: every (p0, beta0) point runs the
trial-batched bouncing-attack simulation and reports the gap between the
Equation-24 closed-form exceed probability and its empirical estimate —
the closed-form-vs-empirical validation the batched kernels make feasible
at every grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.analysis.bouncing import BouncingAttackModel
from repro.analysis.finalization_time import (
    ByzantineStrategy,
    threshold_epoch_non_slashing,
    threshold_epoch_slashing,
)
from repro.analysis.montecarlo import BouncingMonteCarlo
from repro.core.trials import PerTaskWorker, plan_task_chunks, run_tasks


@dataclass
class SweepGridResult:
    """Crossing-time grids for both Byzantine strategies."""

    p0_values: Sequence[float]
    beta0_values: Sequence[float]
    #: grid[i][j] = slower-branch crossing epoch for (p0_values[i], beta0_values[j]).
    slashing_grid: np.ndarray
    non_slashing_grid: np.ndarray
    #: Epoch the optional Monte-Carlo validation evaluated (None = not run).
    mc_horizon: Optional[int] = None
    #: Trials per grid point of the Monte-Carlo validation.
    mc_trials: Optional[int] = None
    #: grid[i][j] = Equation-24 (both branches) exceed probability at mc_horizon.
    exceed_closed_form: Optional[np.ndarray] = None
    #: grid[i][j] = empirical exceed probability at mc_horizon.
    exceed_empirical: Optional[np.ndarray] = None

    @property
    def has_empirical(self) -> bool:
        """True when the Monte-Carlo validation layer was computed."""
        return self.exceed_empirical is not None

    @property
    def exceed_gap(self) -> Optional[np.ndarray]:
        """Absolute closed-form-vs-empirical gap per grid point."""
        if not self.has_empirical:
            return None
        return np.abs(self.exceed_closed_form - self.exceed_empirical)

    def max_exceed_gap(self) -> float:
        """Largest closed-form-vs-empirical gap over the whole grid."""
        if not self.has_empirical:
            raise ValueError("the sweep was run without Monte-Carlo trials")
        return float(np.max(self.exceed_gap))

    def rows(self) -> List[Dict[str, float]]:
        """One row per grid point (flattened), suitable for CSV export."""
        rows = []
        for i, p0 in enumerate(self.p0_values):
            for j, beta0 in enumerate(self.beta0_values):
                row = {
                    "p0": p0,
                    "beta0": beta0,
                    "epochs_slashing": float(self.slashing_grid[i, j]),
                    "epochs_non_slashing": float(self.non_slashing_grid[i, j]),
                }
                if self.has_empirical:
                    row["exceed_closed_form"] = float(self.exceed_closed_form[i, j])
                    row["exceed_empirical"] = float(self.exceed_empirical[i, j])
                    row["exceed_gap"] = float(self.exceed_gap[i, j])
                rows.append(row)
        return rows

    def worst_case_split(self, beta0: float, strategy: str = ByzantineStrategy.SLASHING) -> float:
        """The p0 minimising the crossing time for a given beta0.

        Several splits can tie once the ejection cap binds (every p0 ≤ 0.5
        branch waits for the ejection); ties are broken towards the even
        split, which is the configuration the paper singles out.
        """
        j = int(np.argmin([abs(b - beta0) for b in self.beta0_values]))
        grid = (
            self.slashing_grid
            if strategy == ByzantineStrategy.SLASHING
            else self.non_slashing_grid
        )
        column = grid[:, j]
        minimum = float(np.min(column))
        candidates = [
            i for i in range(len(self.p0_values)) if column[i] <= minimum + 1e-9
        ]
        best = min(candidates, key=lambda i: abs(self.p0_values[i] - 0.5))
        return float(self.p0_values[best])

    def format_text(self) -> str:
        lines = [
            "(p0, beta0) sweep — epochs until the slower branch regains 2/3",
            f"  grid: {len(self.p0_values)} p0 values x {len(self.beta0_values)} beta0 values",
        ]
        header = "  p0\\beta0 " + "".join(f"{b:>8.2f}" for b in self.beta0_values)
        lines.append("  [slashable strategy]")
        lines.append(header)
        for i, p0 in enumerate(self.p0_values):
            lines.append(
                f"  {p0:>8.2f} "
                + "".join(f"{self.slashing_grid[i, j]:>8.0f}" for j in range(len(self.beta0_values)))
            )
        lines.append("  [non-slashable strategy]")
        lines.append(header)
        for i, p0 in enumerate(self.p0_values):
            lines.append(
                f"  {p0:>8.2f} "
                + "".join(
                    f"{self.non_slashing_grid[i, j]:>8.0f}" for j in range(len(self.beta0_values))
                )
            )
        if self.has_empirical:
            gap = self.exceed_gap
            lines.append(
                "  [closed-form vs empirical exceed probability at "
                f"t={self.mc_horizon}, {self.mc_trials} trials/point — |Eq.24 - MC|]"
            )
            lines.append(header)
            for i, p0 in enumerate(self.p0_values):
                lines.append(
                    f"  {p0:>8.2f} "
                    + "".join(
                        f"{gap[i, j]:>8.3f}" for j in range(len(self.beta0_values))
                    )
                )
            lines.append(f"  max gap over the grid: {self.max_exceed_gap():.4f}")
        return "\n".join(lines)


def _grid_cell(point: Tuple[float, float]) -> Tuple[float, float]:
    """Both strategies' slower-branch crossing times at one (p0, beta0) point,
    capped at the paper's 4685-epoch ejection.

    Module-level so the grid can be fanned out to a process pool.
    """
    p0, beta0 = point
    cap = constants.PAPER_INACTIVE_EJECTION_EPOCH
    slashing = max(
        threshold_epoch_slashing(p0, beta0, cap),
        threshold_epoch_slashing(1.0 - p0, beta0, cap),
    )
    non_slashing = max(
        threshold_epoch_non_slashing(p0, beta0, cap),
        threshold_epoch_non_slashing(1.0 - p0, beta0, cap),
    )
    return slashing, non_slashing


def _empirical_exceed_cell(
    point: Tuple[int, float, float],
    n_trials: int,
    horizon: int,
    n_honest: int,
    seed: int,
    batch: Optional[int],
    backend: str,
) -> Tuple[float, float]:
    """Closed-form and empirical exceed probability at one grid point.

    Module-level so the grid can be fanned out to a process pool; each
    point draws from its own deterministic seed (``seed + point index``),
    so the grid is reproducible whatever the parallelism.
    """
    index, p0, beta0 = point
    closed_form = BouncingAttackModel(
        beta0=beta0, p0=p0
    ).exceed_threshold_probability(float(horizon), both_branches=True)
    monte_carlo = BouncingMonteCarlo(
        beta0=beta0,
        p0=p0,
        n_honest=n_honest,
        enforce_stopping=False,
        seed=seed + index,
        backend=backend,
    )
    result = monte_carlo.run(n_trials=n_trials, horizon=horizon, batch=batch)
    return closed_form, result.exceed_probability(horizon)


def run(
    p0_values: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7),
    beta0_values: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.33),
    jobs: Optional[int] = None,
    n_trials: Optional[int] = None,
    horizon: int = 4000,
    n_honest: int = 256,
    seed: int = 0,
    batch: Optional[int] = None,
    backend: str = "numpy",
) -> SweepGridResult:
    """Evaluate both strategies' slower-branch crossing times over the grid.

    ``jobs`` fans the (deterministic) grid points out to a process pool;
    the result never depends on the parallelism level.

    ``n_trials`` switches on the Monte-Carlo validation layer: every grid
    point additionally runs the trial-batched bouncing-attack simulation
    for that many trials (``horizon``, ``n_honest``, ``batch`` and
    ``backend`` set the workload) and the result carries the per-point
    closed-form-vs-empirical exceed-probability gap.
    """
    points = [(p0, beta0) for p0 in p0_values for beta0 in beta0_values]
    # One point per unit, so a few heavy points still spread across workers.
    cells = run_tasks(
        PerTaskWorker(_grid_cell), plan_task_chunks(points, chunk_size=1), jobs=jobs
    )
    grids = np.array(cells).reshape(len(p0_values), len(beta0_values), 2)
    slashing = grids[:, :, 0].copy()
    non_slashing = grids[:, :, 1].copy()

    exceed_closed_form = None
    exceed_empirical = None
    if n_trials is not None:
        if n_trials <= 0:
            raise ValueError("n_trials must be positive")
        indexed = [
            (index, p0, beta0) for index, (p0, beta0) in enumerate(points)
        ]
        exceed_cells = run_tasks(
            PerTaskWorker(_empirical_exceed_cell),
            plan_task_chunks(indexed, chunk_size=1),
            jobs=jobs,
            worker_args=(n_trials, horizon, n_honest, seed, batch, backend),
        )
        exceed = np.array(exceed_cells).reshape(
            len(p0_values), len(beta0_values), 2
        )
        exceed_closed_form = exceed[:, :, 0].copy()
        exceed_empirical = exceed[:, :, 1].copy()

    return SweepGridResult(
        p0_values=list(p0_values),
        beta0_values=list(beta0_values),
        slashing_grid=slashing,
        non_slashing_grid=non_slashing,
        mc_horizon=horizon if n_trials is not None else None,
        mc_trials=n_trials,
        exceed_closed_form=exceed_closed_form,
        exceed_empirical=exceed_empirical,
    )
