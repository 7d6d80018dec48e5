"""Closed-form ratios of active and Byzantine stake during the leak.

These are the paper's Equations 5, 8, 10, 11 and 13, expressed with the
continuous stake functions of :mod:`repro.leak.stake`.  All functions take
the time ``t`` in epochs since the start of the inactivity leak, and a
``config`` (:class:`~repro.spec.config.SpecConfig`, ``None`` = mainnet)
whose leak constants set the decay rates; the exponents quoted below
(``2**25``, ``2**28``) are the mainnet ones.

Notation (Section 5):

* ``p0``    — initial proportion of *honest* validators active on the branch,
* ``beta0`` — initial proportion of Byzantine stake (0 <= beta0 < 1/3),
* on the other branch of the fork, exchange ``p0`` and ``1 - p0``.
"""

from __future__ import annotations

from typing import Optional

from repro import constants
from repro.leak.stake import Behavior, continuous_ejection_epoch, inactive_stake, semi_active_stake
from repro.spec.config import SpecConfig


def _validate_p0(p0: float) -> None:
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")


def _validate_beta0(beta0: float) -> None:
    if not 0.0 <= beta0 < 1.0:
        raise ValueError(f"beta0 must lie in [0, 1), got {beta0}")


def resolve_ejection_epoch(
    ejection_epoch: Optional[float], config: Optional[SpecConfig] = None
) -> float:
    """The given ejection epoch, or else the config's continuous inactive
    ejection (4660.58 on mainnet)."""
    if ejection_epoch is not None:
        return float(ejection_epoch)
    return continuous_ejection_epoch(Behavior.INACTIVE, config=config)


# ----------------------------------------------------------------------
# Equation 5 — honest-only branch
# ----------------------------------------------------------------------
def active_ratio_honest_only(
    t: float, p0: float, config: Optional[SpecConfig] = None
) -> float:
    """Ratio of active stake on a branch with only honest validators (Eq. 5).

    ``p0 / (p0 + (1 - p0) * exp(-t^2 / 2**25))``.
    """
    _validate_p0(p0)
    if t < 0:
        raise ValueError("t must be non-negative")
    numerator = p0
    denominator = p0 + (1.0 - p0) * inactive_stake(t, 1.0, config)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


# ----------------------------------------------------------------------
# Equation 8 — Byzantine active on both branches (slashable behaviour)
# ----------------------------------------------------------------------
def active_ratio_with_slashing_byzantine(
    t: float, p0: float, beta0: float, config: Optional[SpecConfig] = None
) -> float:
    """Ratio of active stake when Byzantine validators attest on both branches (Eq. 8).

    ``(p0(1-b) + b) / (p0(1-b) + b + (1-p0)(1-b) exp(-t^2/2**25))``.
    """
    _validate_p0(p0)
    _validate_beta0(beta0)
    if t < 0:
        raise ValueError("t must be non-negative")
    active = p0 * (1.0 - beta0) + beta0
    inactive = (1.0 - p0) * (1.0 - beta0) * inactive_stake(t, 1.0, config)
    denominator = active + inactive
    if denominator == 0.0:
        return 0.0
    return active / denominator


# ----------------------------------------------------------------------
# Equation 10 — Byzantine semi-active on both branches (non-slashable)
# ----------------------------------------------------------------------
def active_ratio_with_semi_active_byzantine(
    t: float, p0: float, beta0: float, config: Optional[SpecConfig] = None
) -> float:
    """Ratio of active stake when Byzantine validators are semi-active (Eq. 10).

    ``(p0(1-b) + b e^{-3t^2/2**28}) /
      (p0(1-b) + b e^{-3t^2/2**28} + (1-p0)(1-b) e^{-t^2/2**25})``.
    """
    _validate_p0(p0)
    _validate_beta0(beta0)
    if t < 0:
        raise ValueError("t must be non-negative")
    honest_active = p0 * (1.0 - beta0)
    byzantine = beta0 * semi_active_stake(t, 1.0, config)
    honest_inactive = (1.0 - p0) * (1.0 - beta0) * inactive_stake(t, 1.0, config)
    denominator = honest_active + byzantine + honest_inactive
    if denominator == 0.0:
        return 0.0
    return (honest_active + byzantine) / denominator


# ----------------------------------------------------------------------
# Equation 11 — Byzantine stake proportion over time
# ----------------------------------------------------------------------
def byzantine_proportion(
    t: float, p0: float, beta0: float, config: Optional[SpecConfig] = None
) -> float:
    """Byzantine stake proportion beta(t, p0, beta0) on a branch (Eq. 11).

    Byzantine validators are semi-active; honest validators split between
    the active (weight p0) and inactive (weight 1-p0) behaviours.
    """
    _validate_p0(p0)
    _validate_beta0(beta0)
    if t < 0:
        raise ValueError("t must be non-negative")
    byzantine = beta0 * semi_active_stake(t, 1.0, config)
    honest = p0 * (1.0 - beta0) + (1.0 - p0) * (1.0 - beta0) * inactive_stake(t, 1.0, config)
    denominator = honest + byzantine
    if denominator == 0.0:
        return 0.0
    return byzantine / denominator


# ----------------------------------------------------------------------
# Equation 13 — maximum Byzantine proportion, reached at honest ejection
# ----------------------------------------------------------------------
def max_byzantine_proportion(
    p0: float,
    beta0: float,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """Maximum reachable Byzantine proportion beta_max(p0, beta0) (Eq. 13).

    The maximum is attained when the honest validators that are inactive on
    the branch get ejected (at ``ejection_epoch``; by default the config's
    continuous inactive ejection, 4660.58 on mainnet, where the paper
    uses 4685): their stake drops out of the denominator while the
    semi-active Byzantine stake has only decayed by ``exp(-3 t^2 / 2**28)``.
    """
    _validate_p0(p0)
    _validate_beta0(beta0)
    ejection = resolve_ejection_epoch(ejection_epoch, config)
    byzantine = beta0 * semi_active_stake(ejection, 1.0, config)
    denominator = p0 * (1.0 - beta0) + byzantine
    if denominator == 0.0:
        return 0.0
    return byzantine / denominator


def min_beta0_to_exceed_threshold(
    p0: float,
    threshold: float = constants.BYZANTINE_SAFETY_THRESHOLD,
    ejection_epoch: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """Smallest beta0 such that beta_max(p0, beta0) reaches ``threshold``.

    Solving Eq. 13 for beta0 gives
    ``beta0 = 1 / (1 + decay * (1 - threshold) / (threshold * p0))``
    rearranged below; for p0 = 0.5 and the paper's 4685-epoch ejection this
    is the 0.2421 bound quoted in Section 5.2.3 (0.241671 at the mainnet
    config's own 4660.58).
    """
    _validate_p0(p0)
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    decay = semi_active_stake(resolve_ejection_epoch(ejection_epoch, config), 1.0, config)
    if p0 == 0.0:
        return 0.0
    # threshold = b*decay / (p0*(1-b) + b*decay)
    # => threshold * p0 * (1-b) = b * decay * (1 - threshold)
    # => b = threshold*p0 / (threshold*p0 + decay*(1-threshold))... solve:
    numerator = threshold * p0
    denominator = threshold * p0 + decay * (1.0 - threshold)
    return numerator / denominator
