"""The probabilistic bouncing attack, revisited with the inactivity leak.

Section 5.3 of the paper revisits the probabilistic bouncing attack of
[Pavloff et al., SAC 2023]: Byzantine validators withhold votes and release
them at opportune times so that honest validators keep "bouncing" between
the two branches of a fork, delaying finality.  Because the attack lasts
longer than 4 epochs it triggers an inactivity leak, so the stakes of
honest validators — randomly inactive on whichever branch they are not on —
erode according to the random-walk model of
:mod:`repro.analysis.randomwalk`, while the Byzantine stake follows the
deterministic semi-active trajectory.

This module collects:

* the feasibility condition on ``p0`` (Equation 14),
* the attack-continuation probability ``(1 - (1-beta0)^j)^k``,
* the Markov bounce model of Figure 8,
* the probability that the Byzantine stake proportion exceeds one-third at
  epoch ``t`` (Equations 23–24, the Figure-10 curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.analysis.distributions import BouncingStakeDistribution
from repro.leak.stake import Behavior, continuous_ejection_epoch, semi_active_stake
from repro.spec.config import DEFAULT_CONFIG, SpecConfig


# ----------------------------------------------------------------------
# Equation 14: feasibility window on p0
# ----------------------------------------------------------------------
def p0_feasibility_window(beta0: float) -> Tuple[float, float]:
    """Bounds on the honest split ``p0`` for the attack to continue (Eq. 14).

    ``(2 - 3 beta0) / (3 (1 - beta0)) < p0 < 2 / (3 (1 - beta0))``:
    (a) the honest validators on the favoured branch must not justify it on
    their own, and (b) together with the withheld Byzantine votes they must
    be able to justify it.
    """
    if not 0.0 <= beta0 < 1.0:
        raise ValueError("beta0 must lie in [0, 1)")
    lower = (2.0 - 3.0 * beta0) / (3.0 * (1.0 - beta0))
    upper = 2.0 / (3.0 * (1.0 - beta0))
    return lower, upper


def is_feasible_split(p0: float, beta0: float) -> bool:
    """True when ``p0`` lies strictly inside the Equation-14 window."""
    lower, upper = p0_feasibility_window(beta0)
    return lower < p0 < upper


# ----------------------------------------------------------------------
# Attack-continuation probability
# ----------------------------------------------------------------------
def continuation_probability_per_epoch(
    beta0: float, window_slots: int = constants.BOUNCING_ATTACK_WINDOW_SLOTS
) -> float:
    """Probability that a Byzantine proposer occupies one of the first j slots.

    The attack continues through an epoch only if at least one of the first
    ``j`` proposers of the epoch is Byzantine, which with stake-proportional
    proposer election happens with probability ``1 - (1 - beta0)^j``.
    """
    if not 0.0 <= beta0 <= 1.0:
        raise ValueError("beta0 must lie in [0, 1]")
    if window_slots < 1:
        raise ValueError("window_slots must be at least 1")
    return 1.0 - (1.0 - beta0) ** window_slots


def attack_duration_probability(
    beta0: float,
    epochs: int,
    window_slots: int = constants.BOUNCING_ATTACK_WINDOW_SLOTS,
) -> float:
    """Probability that the attack lasts at least ``epochs`` epochs.

    ``(1 - (1 - beta0)^j)^k`` — the paper evaluates it at ``k = 7000`` and
    ``beta0 = 1/3`` to obtain ``≈ 1.01e-121``, ruling out strategies that
    need the bounce to last until the Byzantine ejection epoch.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    per_epoch = continuation_probability_per_epoch(beta0, window_slots)
    if per_epoch == 0.0:
        return 0.0 if epochs > 0 else 1.0
    return per_epoch ** epochs


def log10_attack_duration_probability(
    beta0: float,
    epochs: int,
    window_slots: int = constants.BOUNCING_ATTACK_WINDOW_SLOTS,
) -> float:
    """Base-10 logarithm of :func:`attack_duration_probability` (avoids underflow)."""
    per_epoch = continuation_probability_per_epoch(beta0, window_slots)
    if per_epoch <= 0.0:
        return float("-inf") if epochs > 0 else 0.0
    return epochs * math.log10(per_epoch)


def expected_attack_duration(
    beta0: float, window_slots: int = constants.BOUNCING_ATTACK_WINDOW_SLOTS
) -> float:
    """Expected number of epochs the attack persists (geometric stopping)."""
    per_epoch = continuation_probability_per_epoch(beta0, window_slots)
    if per_epoch >= 1.0:
        return float("inf")
    return per_epoch / (1.0 - per_epoch)


# ----------------------------------------------------------------------
# Figure 8: the Markov bounce model of honest validators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MarkovBounceModel:
    """Branch occupancy of an honest validator during the bounce.

    At each epoch the Byzantine release schedule puts a proportion ``p0`` of
    honest validators on branch A and ``1 - p0`` on branch B, independently
    of the past (Figure 8).  From the point of view of one branch, the
    validator is *active* when it lands there and *inactive* otherwise.
    """

    p0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")

    def transition_matrix(self) -> np.ndarray:
        """2x2 transition matrix between branches A and B (rows sum to 1)."""
        return np.array([[self.p0, 1.0 - self.p0], [self.p0, 1.0 - self.p0]])

    def stationary_distribution(self) -> np.ndarray:
        """Stationary occupancy: ``[p0, 1 - p0]`` (the chain is memoryless)."""
        return np.array([self.p0, 1.0 - self.p0])

    def two_epoch_path_probabilities(self) -> Dict[str, float]:
        """Probabilities of the four branch paths over two epochs (Figure 8)."""
        p = self.p0
        return {
            "AA": p * p,
            "AB": p * (1.0 - p),
            "BA": (1.0 - p) * p,
            "BB": (1.0 - p) * (1.0 - p),
        }

    def two_epoch_score_increments(self) -> Dict[int, float]:
        """Equation 15: distribution of the score change over two epochs,
        seen from branch A."""
        p = self.p0
        return {
            8: p * (1.0 - p),
            3: p * p + (1.0 - p) * (1.0 - p),
            -2: p * (1.0 - p),
        }

    def occupancy_after(self, epochs: int, start_on_a: bool = True) -> np.ndarray:
        """Branch occupancy distribution after ``epochs`` epochs."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        state = np.array([1.0, 0.0]) if start_on_a else np.array([0.0, 1.0])
        matrix = self.transition_matrix()
        for _ in range(epochs):
            state = state @ matrix
        return state


# ----------------------------------------------------------------------
# Equations 23–24: probability of exceeding the one-third threshold
# ----------------------------------------------------------------------
@dataclass
class BouncingAttackModel:
    """The full Section-5.3 model: bounce + leak + threshold probability.

    ``config`` (mainnet when ``None``) supplies every leak constant: the
    honest stake law's quotient, balances and score steps, the Byzantine
    semi-active trajectory and ejection, and the penalty rule of
    :meth:`simulate_exceed_probability`.  ``s0`` defaults to its maximum
    effective balance and ``window_slots`` to its bouncing window.
    """

    beta0: float
    p0: float = 0.5
    s0: Optional[float] = None
    window_slots: Optional[int] = None
    config: Optional[SpecConfig] = None
    distribution: BouncingStakeDistribution = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta0 <= 0.5:
            raise ValueError("beta0 must lie in [0, 0.5] for the bouncing model")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError("p0 must lie strictly between 0 and 1")
        self.config = self.config or DEFAULT_CONFIG
        if self.s0 is None:
            self.s0 = self.config.max_effective_balance
        if self.window_slots is None:
            self.window_slots = self.config.bouncing_window_slots
        self.distribution = BouncingStakeDistribution(
            p0=self.p0, s0=self.s0, config=self.config
        )

    # -- stakes -----------------------------------------------------------
    def byzantine_stake(self, t: float) -> float:
        """Byzantine per-validator stake at epoch ``t`` (semi-active trajectory).

        Byzantine validators alternate activity between the two branches, so
        on either branch they follow ``s0 exp(-3 t^2 / 2**28)`` until their
        ejection around epoch 7653.
        """
        ejection = self.byzantine_ejection_epoch()
        if t >= ejection:
            return 0.0
        return semi_active_stake(t, self.s0, self.config)

    def byzantine_ejection_epoch(self) -> float:
        """Epoch at which the Byzantine (semi-active) validators are ejected."""
        ejection = continuous_ejection_epoch(Behavior.SEMI_ACTIVE, self.s0, self.config)
        assert ejection is not None
        return ejection

    # -- threshold probability (Equation 24) ------------------------------
    def exceed_threshold_probability(
        self, t: float, both_branches: bool = False
    ) -> float:
        """Probability that the Byzantine proportion exceeds 1/3 at epoch ``t``.

        Equation 24: ``F̄( 2 beta0 / (1 - beta0) * sB(t), t )`` where ``F̄``
        is the capped stake CDF of the honest validators and ``sB`` the
        Byzantine (semi-active) stake.  With ``both_branches=True`` the
        probability is doubled (capped at 1), reflecting the paper's remark
        that the attack plays out on two branches simultaneously and the
        threshold only needs to break on one of them.
        """
        if t <= 0:
            return 0.0
        if self.beta0 >= 1.0:
            return 1.0
        stake_bound = 2.0 * self.beta0 / (1.0 - self.beta0) * self.byzantine_stake(t)
        if stake_bound <= 0.0:
            # Byzantine validators are ejected; their proportion is zero.
            return 0.0
        probability = self.distribution.capped_cdf(stake_bound, t)
        if both_branches:
            probability = min(1.0, 2.0 * probability)
        return probability

    def exceed_probability_series(
        self, epochs: Sequence[int], both_branches: bool = False
    ) -> List[float]:
        """Evaluate :meth:`exceed_threshold_probability` over many epochs (Figure 10)."""
        return [
            self.exceed_threshold_probability(float(t), both_branches) for t in epochs
        ]

    # -- feasibility and duration -----------------------------------------
    def feasible_p0_window(self) -> Tuple[float, float]:
        """Equation 14 bounds for this ``beta0``."""
        return p0_feasibility_window(self.beta0)

    def is_setup_feasible(self) -> bool:
        """True when the chosen ``p0`` satisfies Equation 14."""
        return is_feasible_split(self.p0, self.beta0)

    def duration_probability(self, epochs: int) -> float:
        """Probability the bounce survives ``epochs`` epochs."""
        return attack_duration_probability(self.beta0, epochs, self.window_slots)

    def log10_duration_probability(self, epochs: int) -> float:
        """Base-10 log of the duration probability (Figure-10 caveat numbers)."""
        return log10_attack_duration_probability(self.beta0, epochs, self.window_slots)

    # -- Monte-Carlo cross-check ------------------------------------------
    def simulate_exceed_probability(
        self,
        t: int,
        n_samples: int = 20_000,
        seed: int = 0,
    ) -> float:
        """Monte-Carlo estimate of the Equation-24 probability.

        Samples honest inactivity-score walks (with the protocol's
        clamp-at-zero rule), converts them to stakes via the discrete
        penalty rule, applies ejection/cap, and compares against the
        Byzantine semi-active stake.  This is the discrete ground truth the
        closed form approximates.
        """
        cfg = self.config
        rng = np.random.default_rng(seed)
        active = rng.random((n_samples, t)) < self.p0
        scores = np.zeros(n_samples)
        stakes = np.full(n_samples, self.s0)
        ejected = np.zeros(n_samples, dtype=bool)
        quotient = float(cfg.inactivity_penalty_quotient)
        bias = float(cfg.inactivity_score_bias)
        recovery = float(cfg.inactivity_score_recovery)
        for epoch in range(t):
            penalties = scores * stakes / quotient
            stakes = np.where(ejected, stakes, np.maximum(0.0, stakes - penalties))
            scores = np.where(
                active[:, epoch], np.maximum(0.0, scores - recovery), scores + bias
            )
            newly_ejected = (~ejected) & (stakes <= cfg.ejection_balance)
            stakes = np.where(newly_ejected, 0.0, stakes)
            ejected |= newly_ejected
        byzantine = self.byzantine_stake(float(t))
        if self.beta0 >= 1.0:
            return 1.0
        bound = 2.0 * self.beta0 / (1.0 - self.beta0) * byzantine
        return float(np.mean(stakes < bound))
