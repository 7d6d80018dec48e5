"""Exceeding the one-third Byzantine safety threshold (Section 5.2.3).

Byzantine validators that are semi-active on both branches can, instead of
finalizing as soon as possible, wait until the honest validators deemed
inactive on the branch are ejected.  At that moment the Byzantine stake
proportion peaks (Equation 13).  This module computes the peak, the set of
``(p0, beta0)`` pairs for which the peak exceeds 1/3 (Figure 7), and the
time at which beta(t) first crosses the threshold (Equation 12).

Every function takes a ``config`` (:class:`~repro.spec.config.SpecConfig`,
``None`` = mainnet) for the leak constants, and an ``ejection_epoch`` that
defaults to the config's continuous inactive ejection (4660.58 on mainnet,
where the paper uses 4685).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import constants
from repro.leak.ratios import (
    byzantine_proportion,
    max_byzantine_proportion,
    min_beta0_to_exceed_threshold,
    resolve_ejection_epoch,
)
from repro.spec.config import SpecConfig

THRESHOLD = constants.BYZANTINE_SAFETY_THRESHOLD


@dataclass(frozen=True)
class ThresholdCrossing:
    """Result of a beta(t) threshold analysis for one (p0, beta0) pair."""

    p0: float
    beta0: float
    #: Peak Byzantine proportion (Equation 13, evaluated at honest ejection).
    beta_max: float
    #: True when the peak is at least 1/3.
    exceeds_threshold: bool
    #: First epoch at which beta(t) >= 1/3, or None if it never does before
    #: the honest ejection epoch.
    crossing_epoch: Optional[float]


def beta_max(
    p0: float,
    beta0: float,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """Maximum Byzantine proportion reachable on the branch (Equation 13)."""
    return max_byzantine_proportion(p0, beta0, ejection_epoch, config)


def exceeds_threshold(
    p0: float,
    beta0: float,
    threshold: float = THRESHOLD,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> bool:
    """True when beta_max(p0, beta0) >= threshold (the Figure-7 condition)."""
    return beta_max(p0, beta0, ejection_epoch, config) >= threshold


def crossing_epoch(
    p0: float,
    beta0: float,
    threshold: float = THRESHOLD,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> Optional[float]:
    """First epoch at which beta(t, p0, beta0) reaches ``threshold`` (Eq. 12).

    The proportion beta(t) of Equation 11 is continuous and, before the
    honest ejection, monotonically approaches its maximum; the crossing (if
    any) is located with Brent's method.  Returns ``None`` when the
    threshold is never reached before ``ejection_epoch``.
    """
    from scipy import optimize  # scipy loads on the first root find only

    ejection_epoch = resolve_ejection_epoch(ejection_epoch, config)

    def gap(t: float) -> float:
        return byzantine_proportion(t, p0, beta0, config) - threshold

    if gap(0.0) >= 0.0:
        return 0.0
    # beta(t) peaks at the ejection epoch: just before ejection the inactive
    # honest stake is smallest relative to the Byzantine stake.
    if gap(ejection_epoch) < 0.0:
        # The continuous pre-ejection proportion never crosses; the jump at
        # ejection (Equation 13) may still cross, which beta_max captures.
        if beta_max(p0, beta0, ejection_epoch, config) >= threshold:
            return ejection_epoch
        return None
    return float(optimize.brentq(gap, 0.0, ejection_epoch, xtol=1e-9, maxiter=200))


def analyse_pair(
    p0: float,
    beta0: float,
    threshold: float = THRESHOLD,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> ThresholdCrossing:
    """Full threshold analysis of one (p0, beta0) pair."""
    ejection_epoch = resolve_ejection_epoch(ejection_epoch, config)
    peak = beta_max(p0, beta0, ejection_epoch, config)
    return ThresholdCrossing(
        p0=p0,
        beta0=beta0,
        beta_max=peak,
        exceeds_threshold=peak >= threshold,
        crossing_epoch=crossing_epoch(p0, beta0, threshold, ejection_epoch, config),
    )


# ----------------------------------------------------------------------
# Figure 7: the feasible region
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThresholdRegion:
    """The (p0, beta0) pairs for which the Byzantine proportion can exceed 1/3."""

    p0_values: Sequence[float]
    beta0_values: Sequence[float]
    #: feasible[i][j] is True when (p0_values[i], beta0_values[j]) satisfies
    #: beta_max >= 1/3 on the branch where the honest-active proportion is p0.
    feasible_branch_1: np.ndarray
    #: Same, for the other branch (honest-active proportion 1 - p0), i.e.
    #: whether the threshold can be exceeded on *both* branches.
    feasible_branch_2: np.ndarray

    def feasible_on_both(self) -> np.ndarray:
        """Pairs for which the threshold is exceeded on both branches simultaneously."""
        return np.logical_and(self.feasible_branch_1, self.feasible_branch_2)

    def min_beta0_both_branches(self) -> float:
        """Smallest beta0 in the grid feasible on both branches."""
        both = self.feasible_on_both()
        feasible_betas = [
            self.beta0_values[j]
            for i in range(len(self.p0_values))
            for j in range(len(self.beta0_values))
            if both[i, j]
        ]
        return min(feasible_betas) if feasible_betas else float("nan")


def compute_threshold_region(
    p0_values: Optional[Sequence[float]] = None,
    beta0_values: Optional[Sequence[float]] = None,
    threshold: float = THRESHOLD,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> ThresholdRegion:
    """Evaluate the Figure-7 feasibility condition over a (p0, beta0) grid."""
    ejection_epoch = resolve_ejection_epoch(ejection_epoch, config)
    p0_grid = np.linspace(0.0, 1.0, 101) if p0_values is None else np.asarray(p0_values)
    beta_grid = (
        np.linspace(0.0, 0.33, 100) if beta0_values is None else np.asarray(beta0_values)
    )
    feasible_1 = np.zeros((len(p0_grid), len(beta_grid)), dtype=bool)
    feasible_2 = np.zeros_like(feasible_1)
    for i, p0 in enumerate(p0_grid):
        for j, beta0 in enumerate(beta_grid):
            feasible_1[i, j] = (
                beta_max(float(p0), float(beta0), ejection_epoch, config) >= threshold
            )
            feasible_2[i, j] = (
                beta_max(1.0 - float(p0), float(beta0), ejection_epoch, config) >= threshold
            )
    return ThresholdRegion(
        p0_values=list(map(float, p0_grid)),
        beta0_values=list(map(float, beta_grid)),
        feasible_branch_1=feasible_1,
        feasible_branch_2=feasible_2,
    )


def critical_beta0(
    p0: float = 0.5,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """The paper's lower bound beta0 = 1/(1 + 4 e^{-3*4685^2/2^28}) ≈ 0.2421.

    For an even honest split (p0 = 0.5) this is the smallest initial
    Byzantine proportion that can eventually exceed one-third on both
    branches (Section 5.2.3).  At the mainnet config's own ejection epoch
    (4660.58) it is 0.241671.
    """
    return min_beta0_to_exceed_threshold(p0, THRESHOLD, ejection_epoch, config)
