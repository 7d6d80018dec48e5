"""Random-walk model of the inactivity score under the bouncing attack.

During the probabilistic bouncing attack (Section 5.3), an honest validator
lands on one branch or the other each epoch with probabilities ``p0`` and
``1 - p0``.  Seen from one branch, its inactivity score performs a random
walk: +4 when the validator ends up on the *other* branch (inactive here),
-1 when it ends up on this branch (active here).  The paper observes that
the two-epoch increments (Equation 15) are the convolution of two simple
random walks and approximates the score distribution by a Gaussian
(Equation 16) with drift ``V = 3/2`` and diffusion ``D = 25 p0 (1 - p0)``.

This module provides both the exact discrete distribution (computed by
dynamic programming over the walk) and the Gaussian approximation, so the
tests can check the central-limit convergence the paper relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.spec.config import DEFAULT_CONFIG, SpecConfig

#: Score increment when the validator is inactive on the branch (Equation 1).
INACTIVE_STEP = constants.INACTIVITY_SCORE_BIAS
#: Score decrement when the validator is active on the branch (Equation 1).
ACTIVE_STEP = -constants.INACTIVITY_SCORE_RECOVERY_PER_EPOCH


def drift_per_epoch(p0: float = 0.5, config: Optional[SpecConfig] = None) -> float:
    """Mean score increment per epoch, averaged over the two branches.

    Over two epochs the score moves by +8, +3 or −2 with the probabilities
    of Equation 15; the mean increment is +3 per two epochs, i.e. the
    paper's ``V = 3/2`` — independent of ``p0``.  The steps are the
    config's score bias and recovery (mainnet when ``config`` is ``None``).
    """
    _validate_probability(p0)
    cfg = config or DEFAULT_CONFIG
    # On this branch: +bias with prob (1 - p0) [validator went to the other
    # branch], -recovery with prob p0.  Averaged with the complementary
    # branch the drift is (bias - recovery) / 2 = 3/2, the paper's V.
    return (cfg.inactivity_score_bias - cfg.inactivity_score_recovery) / 2.0


def diffusion_coefficient(p0: float = 0.5, config: Optional[SpecConfig] = None) -> float:
    """The paper's diffusion coefficient ``D = 25 p0 (1 - p0)``.

    The 25 is ``(bias + recovery)^2 = (4 + 1)^2``: the squared gap between
    the walk's two steps, read from ``config`` (mainnet when ``None``).
    """
    _validate_probability(p0)
    cfg = config or DEFAULT_CONFIG
    gap = cfg.inactivity_score_bias + cfg.inactivity_score_recovery
    return float(gap ** 2) * p0 * (1.0 - p0)


def _validate_probability(p0: float) -> None:
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")


# ----------------------------------------------------------------------
# Equation 15: two-epoch increments
# ----------------------------------------------------------------------
def two_epoch_increment_distribution(p0: float) -> Dict[int, float]:
    """Probability of the inactivity-score change over two epochs (Eq. 15).

    +8 with probability p0(1-p0) (on the other branch both epochs),
    +3 with probability p0^2 + (1-p0)^2 (one epoch on each branch),
    −2 with probability p0(1-p0) (on this branch both epochs).
    """
    _validate_probability(p0)
    cross = p0 * (1.0 - p0)
    same = p0 * p0 + (1.0 - p0) * (1.0 - p0)
    return {8: cross, 3: same, -2: cross}


# ----------------------------------------------------------------------
# Exact discrete walk distribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WalkDistribution:
    """A discrete distribution over inactivity scores at a fixed epoch."""

    epoch: int
    #: Mapping score -> probability.
    probabilities: Dict[int, float]

    def mean(self) -> float:
        """Mean score."""
        return sum(score * prob for score, prob in self.probabilities.items())

    def variance(self) -> float:
        """Variance of the score."""
        mean = self.mean()
        return sum(
            (score - mean) ** 2 * prob for score, prob in self.probabilities.items()
        )

    def probability_at_least(self, score: int) -> float:
        """P[S >= score]."""
        return sum(prob for s, prob in self.probabilities.items() if s >= score)

    def support(self) -> List[int]:
        """Scores with non-zero probability, sorted."""
        return sorted(self.probabilities)


def exact_score_distribution(
    epochs: int,
    p0: float,
    clamp_at_zero: bool = True,
    on_branch_probability: Optional[float] = None,
) -> WalkDistribution:
    """Exact distribution of the inactivity score after ``epochs`` epochs.

    Per epoch the validator is active on this branch with probability
    ``on_branch_probability`` (defaults to ``p0``) and inactive otherwise.
    When ``clamp_at_zero`` is set (the protocol's rule) the score is floored
    at 0 each epoch; the paper's analytical treatment drops the floor for
    tractability, which this flag lets the tests compare against.
    """
    _validate_probability(p0)
    active_probability = p0 if on_branch_probability is None else on_branch_probability
    _validate_probability(active_probability)
    if epochs < 0:
        raise ValueError("epochs must be non-negative")

    distribution: Dict[int, float] = {0: 1.0}
    for _ in range(epochs):
        updated: Dict[int, float] = {}
        for score, probability in distribution.items():
            # Active on this branch.
            active_score = score + ACTIVE_STEP
            if clamp_at_zero:
                active_score = max(0, active_score)
            updated[active_score] = updated.get(active_score, 0.0) + probability * active_probability
            # Inactive on this branch.
            inactive_score = score + INACTIVE_STEP
            updated[inactive_score] = (
                updated.get(inactive_score, 0.0) + probability * (1.0 - active_probability)
            )
        distribution = updated
    return WalkDistribution(epoch=epochs, probabilities=distribution)


# ----------------------------------------------------------------------
# Equation 16: Gaussian approximation
# ----------------------------------------------------------------------
def gaussian_score_density(
    score: float, t: float, p0: float = 0.5
) -> float:
    """The paper's Gaussian approximation phi(I, t) of the score density (Eq. 16).

    ``phi(I, t) = 1/sqrt(4 pi D t) * exp(-(I - V t)^2 / (4 D t))`` with
    ``V = 3/2`` and ``D = 25 p0 (1 - p0)``.
    """
    if t <= 0:
        raise ValueError("t must be positive for the Gaussian approximation")
    diffusion = diffusion_coefficient(p0)
    drift = drift_per_epoch(p0)
    variance_term = 4.0 * diffusion * t
    return (
        1.0
        / math.sqrt(math.pi * variance_term)
        * math.exp(-((score - drift * t) ** 2) / variance_term)
    )


def gaussian_score_mean(t: float, p0: float = 0.5) -> float:
    """Mean of the Gaussian score approximation: ``V t``."""
    return drift_per_epoch(p0) * t


def gaussian_score_std(t: float, p0: float = 0.5) -> float:
    """Standard deviation of the Gaussian score approximation: ``sqrt(2 D t)``."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return math.sqrt(2.0 * diffusion_coefficient(p0) * t)


def sample_walks(
    epochs: int,
    p0: float,
    n_samples: int,
    seed: int = 0,
    clamp_at_zero: bool = True,
    chunk_rows: Optional[int] = None,
) -> np.ndarray:
    """Monte-Carlo sample of ``n_samples`` inactivity-score walks.

    Used by the validation benchmarks to compare the empirical score (and
    stake) distribution against the paper's closed forms.

    ``chunk_rows`` bounds the working set: samples are drawn and folded in
    row blocks of at most that many walks, so huge sample counts no longer
    materialise an ``(n_samples, epochs)`` matrix at once.  Because the
    full-matrix draw fills its values in C (row-major) order, drawing the
    same rows block by block consumes the generator's stream identically —
    the result is bit-identical whatever ``chunk_rows`` is.
    """
    _validate_probability(p0)
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if chunk_rows is not None and chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    rng = np.random.default_rng(seed)
    block = n_samples if chunk_rows is None else min(chunk_rows, n_samples)
    step_dtype = np.result_type(
        np.asarray(ACTIVE_STEP), np.asarray(INACTIVE_STEP)
    )
    scores = np.empty(n_samples, dtype=float if clamp_at_zero else step_dtype)
    for start in range(0, n_samples, max(block, 1)):
        stop = min(start + block, n_samples)
        active = rng.random((stop - start, epochs)) < p0
        steps = np.where(active, ACTIVE_STEP, INACTIVE_STEP)
        if not clamp_at_zero:
            scores[start:stop] = steps.sum(axis=1)
            continue
        folded = np.zeros(stop - start)
        for epoch in range(epochs):
            folded = np.maximum(0, folded + steps[:, epoch])
        scores[start:stop] = folded
    return scores
