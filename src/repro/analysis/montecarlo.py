"""Monte-Carlo simulation of the probabilistic bouncing attack.

The closed forms of Section 5.3 rest on two approximations: the
inactivity-score random walk is replaced by a Gaussian (central limit
theorem) and the score floor at zero is ignored.  This module simulates the
attack *without* those approximations: every honest validator is tracked
individually through the discrete protocol rules (Equations 1–2 with the
floor, the ejection at 16.75 ETH, the 32-ETH cap), the branch assignment is
re-drawn every epoch with probability ``p0``, the Byzantine validators
follow the semi-active alternation, and the attack itself stops as soon as
no Byzantine proposer lands in the first ``j`` slots of an epoch.

It provides the empirical counterparts of Figures 9 and 10 plus the
distribution of the attack's stopping time, and is used by the validation
benchmarks to quantify the quality of the paper's approximations.

The per-epoch arithmetic is delegated to the shared stake-dynamics kernel
(:mod:`repro.core.backend`) through a
:class:`~repro.core.stake_engine.BatchedStakeEngine`: whole *groups* of
seeded trial chunks are stacked into one ``(trials, 2, validators + 1)``
batch so a single kernel call advances thousands of trials on both
branches each epoch.  RNG streams stay per-chunk — each chunk draws from
its own spawned generator in a fixed order — so the results are
bit-identical for a given ``(seed, chunk_size)`` whatever ``jobs`` *and*
whatever ``batch`` (the kernel-batch width is a pure throughput knob; the
regression tests assert both invariances).  Contiguous chunks are grouped
up to the batch width (:func:`~repro.core.trials.group_chunks`), and the
groups are dispatched through the seeded task runner
(:mod:`repro.core.trials`), serially or to a process pool at ``jobs`` > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import constants
from repro.core.backend import StakeBackend, StakeRules, get_backend
from repro.core.stake_engine import BatchedStakeEngine
from repro.core.trials import (
    DEFAULT_CHUNK_SIZE,
    TrialChunk,
    group_chunks,
    plan_chunks,
    run_tasks,
)
from repro.spec.config import SpecConfig

#: Target element count per batched state array (2^15 float64 = 256 KiB):
#: the kernel-batch width is capped so one ``(batch, 2, n + 1)`` matrix
#: stays in cache.  Serial throughput peaks at 16k–33k elements for 32 to
#: 1000 honest validators and falls off past it (README, "Trial-batched
#: kernel layout").
_TARGET_BATCH_ELEMENTS = 2 ** 15


@dataclass
class BouncingTrialResult:
    """Outcome of one simulated bouncing-attack trial."""

    #: Epoch at which the attack stopped (no Byzantine proposer in the window),
    #: or the horizon if it survived the whole simulation.
    stop_epoch: int
    #: Whether the attack was still alive at the horizon.
    survived: bool
    #: Per-recorded-epoch Byzantine stake proportion on branch A.
    byzantine_proportion_branch_a: Dict[int, float]
    #: Per-recorded-epoch Byzantine stake proportion on branch B.
    byzantine_proportion_branch_b: Dict[int, float]
    #: Optional per-recorded-epoch ``(2, n_honest + 1)`` stake snapshots
    #: (honest columns then the Byzantine aggregate, per branch), populated
    #: when the run asked for ``record_stakes`` — the trajectory payload the
    #: batched-vs-per-trial identity tests compare byte for byte.
    stake_snapshots: Optional[Dict[int, np.ndarray]] = None

    def exceeded_threshold_at(
        self, epoch: int, threshold: float = constants.BYZANTINE_SAFETY_THRESHOLD
    ) -> bool:
        """True if beta exceeded ``threshold`` on either branch at ``epoch``."""
        a = self.byzantine_proportion_branch_a.get(epoch)
        b = self.byzantine_proportion_branch_b.get(epoch)
        return (a is not None and a > threshold) or (b is not None and b > threshold)


@dataclass
class BouncingMonteCarloResult:
    """Aggregate of many bouncing-attack trials."""

    beta0: float
    p0: float
    horizon: int
    record_epochs: Sequence[int]
    trials: List[BouncingTrialResult] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def exceed_probability(
        self, epoch: int, threshold: float = constants.BYZANTINE_SAFETY_THRESHOLD
    ) -> float:
        """Empirical P[beta > threshold on either branch] at ``epoch``.

        Conditional on nothing: trials where the attack already stopped do
        not count as exceeding (the leak ends once finalization resumes).
        """
        if not self.trials:
            return 0.0
        hits = sum(
            1
            for trial in self.trials
            if trial.stop_epoch >= epoch and trial.exceeded_threshold_at(epoch, threshold)
        )
        return hits / len(self.trials)

    def conditional_exceed_probability(
        self, epoch: int, threshold: float = constants.BYZANTINE_SAFETY_THRESHOLD
    ) -> float:
        """Empirical P[beta > threshold | the attack is still running at ``epoch``]."""
        alive = [trial for trial in self.trials if trial.stop_epoch >= epoch]
        if not alive:
            return 0.0
        hits = sum(1 for trial in alive if trial.exceeded_threshold_at(epoch, threshold))
        return hits / len(alive)

    def exceed_probability_curve(
        self, threshold: float = constants.BYZANTINE_SAFETY_THRESHOLD
    ) -> Dict[int, float]:
        """The empirical exceed probability at every recorded epoch.

        This is the Figure-10 curve: epoch -> P[beta > threshold on either
        branch], evaluated at each of the run's ``record_epochs``.
        """
        return {
            int(epoch): self.exceed_probability(int(epoch), threshold)
            for epoch in self.record_epochs
        }

    def survival_probability(self, epoch: int) -> float:
        """Empirical P[attack still running at ``epoch``]."""
        if not self.trials:
            return 0.0
        return sum(1 for trial in self.trials if trial.stop_epoch >= epoch) / len(self.trials)

    def mean_stop_epoch(self) -> float:
        """Average epoch at which the attack stopped."""
        if not self.trials:
            return 0.0
        return float(np.mean([trial.stop_epoch for trial in self.trials]))


def _simulate_group(
    group: Sequence[TrialChunk],
    simulator: "BouncingMonteCarlo",
    horizon: int,
    record_epochs: Sequence[int],
    record_stakes: bool,
) -> List[BouncingTrialResult]:
    """Module-level group worker (picklable for the process pool)."""
    return simulator._run_group(group, horizon, record_epochs, record_stakes)


class BouncingMonteCarlo:
    """Simulates the bouncing attack with the discrete protocol rules.

    One chunk of trials is simulated as a single
    ``(trials, 2 branches, n_honest + 1)`` batch — honest validators in the
    first ``n_honest`` columns, the (identical) Byzantine validators
    aggregated in the last — so one vectorized kernel call advances every
    trial of the chunk on both branches each epoch.
    """

    def __init__(
        self,
        beta0: float,
        p0: float = 0.5,
        n_honest: int = 1000,
        config: Optional[SpecConfig] = None,
        window_slots: int = constants.BOUNCING_ATTACK_WINDOW_SLOTS,
        enforce_stopping: bool = True,
        seed: int = 0,
        backend: Union[str, StakeBackend] = "numpy",
    ) -> None:
        if not 0.0 <= beta0 < 1.0:
            raise ValueError("beta0 must lie in [0, 1)")
        if not 0.0 < p0 < 1.0:
            raise ValueError("p0 must lie strictly between 0 and 1")
        if n_honest <= 0:
            raise ValueError("n_honest must be positive")
        self.beta0 = beta0
        self.p0 = p0
        self.n_honest = n_honest
        self.config = config or SpecConfig.mainnet()
        self.window_slots = window_slots
        self.enforce_stopping = enforce_stopping
        self.seed = seed
        self.backend = get_backend(backend)

    # ------------------------------------------------------------------
    def _run_group(
        self,
        group: Sequence[TrialChunk],
        horizon: int,
        record_epochs: Sequence[int],
        record_stakes: bool = False,
    ) -> List[BouncingTrialResult]:
        cfg = self.config
        # Private kernel instance: nothing here reads the penalty totals, so
        # skip their per-epoch reductions without disturbing self.backend.
        kernel = self.backend.clone()
        kernel.track_penalty_totals = False
        n = self.n_honest
        n_trials = sum(chunk.size for chunk in group)

        # One generator — and one fixed per-epoch draw order — per seeded
        # chunk: stacking chunks into a wider kernel batch must not move a
        # single draw between streams, or batched results would stop being
        # bit-identical to per-chunk (and per-trial) runs.
        rngs = [chunk.rng() for chunk in group]
        bounds: List[tuple] = []
        offset = 0
        for chunk in group:
            bounds.append((offset, offset + chunk.size))
            offset += chunk.size

        # Column layout: honest validators 0..n-1, Byzantine aggregate at n.
        # Honest validators carry (1 - beta0) of the weight, Byzantine beta0.
        weights = np.empty(n + 1)
        weights[:n] = (1.0 - self.beta0) / n
        weights[n] = self.beta0

        # Both branches share one (n_trials, 2, n + 1) engine batch — axis 1
        # is the branch (0 = A, 1 = B) — so each epoch is one kernel call
        # for every trial of every chunk in the group.
        engine = BatchedStakeEngine(
            np.full((n_trials, 2, n + 1), cfg.max_effective_balance),
            weights=weights,
            config=cfg,
            backend=kernel,
        )
        active = np.empty((n_trials, 2, n + 1), dtype=bool)
        on_a = np.empty((n_trials, n))
        stop_draws = np.empty(n_trials)

        alive = np.ones(n_trials, dtype=bool)
        stop_epoch = np.full(n_trials, horizon, dtype=int)
        #: epoch -> branch -> per-trial Byzantine proportion.
        recorded: Dict[int, Dict[str, np.ndarray]] = {}
        #: epoch -> (trials, 2, n + 1) stake snapshot (when requested).
        recorded_stakes: Dict[int, np.ndarray] = {}
        record_set = set(int(e) for e in record_epochs)

        def branch_beta(branch_axis: int) -> np.ndarray:
            effective = np.where(
                engine.ejected[:, branch_axis, :],
                0.0,
                engine.stakes[:, branch_axis, :],
            )
            totals = np.sum(effective * weights, axis=-1)
            byz = effective[:, n] * weights[n]
            return np.divide(byz, totals, out=np.zeros(n_trials), where=totals > 0)

        for epoch in range(1, horizon + 1):
            # Attack continuation: a Byzantine proposer must land in one of
            # the first `window_slots` slots of the epoch (proposers drawn
            # by stake).  The Byzantine stake freezes at its ejection value
            # (the share it could still propose with), honest ejected stake
            # counts as zero — matching the per-trial reference semantics.
            # Draw order per chunk and per epoch is fixed: the stop draw
            # (when stopping is enforced) then the branch assignments.
            if self.enforce_stopping:
                for rng, (lo, hi) in zip(rngs, bounds):
                    stop_draws[lo:hi] = rng.random(hi - lo)
                honest_total = np.sum(
                    np.where(
                        engine.ejected[:, 0, :n], 0.0, engine.stakes[:, 0, :n]
                    )
                    * weights[:n],
                    axis=-1,
                )
                byzantine_total = weights[n] * engine.stakes[:, 0, n]
                byzantine_share = byzantine_total / (byzantine_total + honest_total)
                continue_probability = (
                    1.0 - (1.0 - byzantine_share) ** self.window_slots
                )
                stopped_now = alive & (stop_draws > continue_probability)
                stop_epoch[stopped_now] = epoch - 1
                alive &= ~stopped_now
                if not alive.any():
                    break

            # Branch assignment of honest validators this epoch.
            for rng, (lo, hi) in zip(rngs, bounds):
                on_a[lo:hi] = rng.random((hi - lo, n))
            on_a_mask = on_a < self.p0
            byzantine_on_a = epoch % 2 == 0  # semi-active alternation
            active[:, 0, :n] = on_a_mask
            np.logical_not(on_a_mask, out=active[:, 1, :n])
            active[:, 0, n] = byzantine_on_a
            active[:, 1, n] = not byzantine_on_a

            engine.step(active, in_leak=True)

            if epoch in record_set:
                recorded[epoch] = {"A": branch_beta(0), "B": branch_beta(1)}
                if record_stakes:
                    recorded_stakes[epoch] = engine.stakes.copy()

        results: List[BouncingTrialResult] = []
        for trial in range(n_trials):
            record_a = {
                epoch: float(betas["A"][trial])
                for epoch, betas in recorded.items()
                if stop_epoch[trial] >= epoch
            }
            record_b = {
                epoch: float(betas["B"][trial])
                for epoch, betas in recorded.items()
                if stop_epoch[trial] >= epoch
            }
            snapshots = None
            if record_stakes:
                snapshots = {
                    epoch: stakes_at[trial].copy()
                    for epoch, stakes_at in recorded_stakes.items()
                    if stop_epoch[trial] >= epoch
                }
            results.append(
                BouncingTrialResult(
                    stop_epoch=int(stop_epoch[trial]),
                    survived=bool(alive[trial]),
                    byzantine_proportion_branch_a=record_a,
                    byzantine_proportion_branch_b=record_b,
                    stake_snapshots=snapshots,
                )
            )
        return results

    # ------------------------------------------------------------------
    def default_batch(self, n_trials: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
        """Kernel-batch width used when ``run`` is not given one explicitly.

        As many trials as one ``(batch, 2, n_honest + 1)`` state matrix
        fits within the ``_TARGET_BATCH_ELEMENTS`` cache budget, capped at
        ``n_trials`` and never less than one chunk.  Past the budget a wider
        batch runs *slower* per element-epoch, not faster.
        """
        cap = max(1, _TARGET_BATCH_ELEMENTS // (2 * (self.n_honest + 1)))
        return max(chunk_size, min(cap, n_trials))

    def run(
        self,
        n_trials: int,
        horizon: int,
        record_epochs: Optional[Sequence[int]] = None,
        jobs: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        batch: Optional[int] = None,
        record_stakes: bool = False,
    ) -> BouncingMonteCarloResult:
        """Run ``n_trials`` independent attack trials up to ``horizon`` epochs.

        ``jobs`` fans groups of trial chunks out to a process pool
        (``None``/1 = serial, <=0 = all cores) and ``batch`` sets how many
        trials are stacked into one kernel batch (``None`` = a
        cache-budgeted default; ``batch=1`` with ``chunk_size=1`` is the
        per-trial reference path the benchmarks compare against).  The
        chunk plan and per-chunk seeds depend only on ``(n_trials,
        chunk_size, seed)``, so the result is the same whatever the
        parallelism *and* whatever the kernel-batch width.

        ``record_stakes`` attaches the full per-branch stake vector at each
        recorded epoch to every trial — the byte-comparable trajectory used
        by the batching regression tests.
        """
        if n_trials <= 0:
            raise ValueError("n_trials must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        epochs = (
            sorted(set(int(e) for e in record_epochs))
            if record_epochs is not None
            else [horizon]
        )
        groups = group_chunks(
            plan_chunks(n_trials, seed=self.seed, chunk_size=chunk_size),
            batch if batch is not None else self.default_batch(n_trials, chunk_size),
        )
        trials = run_tasks(
            _simulate_group,
            groups,
            jobs=jobs,
            worker_args=(self, horizon, epochs, record_stakes),
        )
        return BouncingMonteCarloResult(
            beta0=self.beta0,
            p0=self.p0,
            horizon=horizon,
            record_epochs=epochs,
            trials=trials,
        )

    # ------------------------------------------------------------------
    def honest_stake_sample(
        self, epoch: int, n_samples: int = 5000, seed: Optional[int] = None
    ) -> np.ndarray:
        """Sample honest stakes at ``epoch`` (the empirical Figure-9 histogram).

        Runs the per-validator dynamics with no attack-stopping so that the
        sample reflects the conditional law used by the paper's Figure 9.
        Ejected validators report a stake of zero.
        """
        rng = np.random.default_rng(self.seed if seed is None else seed)
        rules = StakeRules.from_config(self.config)
        kernel = self.backend
        stakes = np.full(n_samples, self.config.max_effective_balance)
        scores = np.zeros(n_samples)
        ejected = np.zeros(n_samples, dtype=bool)
        for _ in range(epoch):
            active = rng.random(n_samples) < self.p0
            outcome = kernel.epoch_update(
                stakes, scores, active, ejected, rules, in_leak=True
            )
            stakes = np.where(outcome.newly_ejected, 0.0, outcome.stakes)
            scores = outcome.scores
            ejected = outcome.ejected
        return stakes
