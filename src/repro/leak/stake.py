"""Continuous stake functions during an inactivity leak (Section 4.3).

The paper models the stake of a validator as a continuous, differentiable
function satisfying ``s'(t) = -I(t) * s(t) / 2**26`` (Equation 3) and
derives, for the three reference behaviours:

* active validators:      ``s(t) = s0``
* semi-active validators: ``s(t) = s0 * exp(-3 t^2 / 2**28)``
* inactive validators:    ``s(t) = s0 * exp(-t^2 / 2**25)``

This module exposes those closed forms, their inactivity-score
counterparts, and the ejection-crossing times, together with a generic
integrator for arbitrary inactivity-score profiles (used by the ablation
benchmarks comparing the continuous model to the discrete protocol rules).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import constants
from repro.spec.config import SpecConfig


class Behavior(str, Enum):
    """The three validator behaviours considered by the paper."""

    ACTIVE = "active"
    SEMI_ACTIVE = "semi-active"
    INACTIVE = "inactive"


# ----------------------------------------------------------------------
# Inactivity-score profiles (Section 4.3, bullet list)
# ----------------------------------------------------------------------
def inactivity_score(behavior: Behavior, t: float) -> float:
    """Average inactivity score at epoch ``t`` for the given behaviour.

    Active: I(t) = 0.  Semi-active: I(t) = 3t/2.  Inactive: I(t) = 4t.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if behavior is Behavior.ACTIVE:
        return 0.0
    if behavior is Behavior.SEMI_ACTIVE:
        return 1.5 * t
    return 4.0 * t


# ----------------------------------------------------------------------
# Stake closed forms
# ----------------------------------------------------------------------
def active_stake(t: float, s0: float = constants.MAX_EFFECTIVE_BALANCE_ETH) -> float:
    """Stake of an always-active validator: constant."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return s0


def semi_active_stake(
    t: float,
    s0: float = constants.MAX_EFFECTIVE_BALANCE_ETH,
    quotient: int = constants.INACTIVITY_PENALTY_QUOTIENT,
) -> float:
    """Stake of a semi-active validator: ``s0 * exp(-3 t^2 / (4*quotient))``.

    With the mainnet quotient ``2**26`` this is the paper's
    ``s0 * exp(-3 t^2 / 2**28)``.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    return s0 * math.exp(-3.0 * t * t / (4.0 * quotient))


def inactive_stake(
    t: float,
    s0: float = constants.MAX_EFFECTIVE_BALANCE_ETH,
    quotient: int = constants.INACTIVITY_PENALTY_QUOTIENT,
) -> float:
    """Stake of an inactive validator: ``s0 * exp(-2 t^2 / quotient)``.

    With the mainnet quotient ``2**26`` this is the paper's
    ``s0 * exp(-t^2 / 2**25)``.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    return s0 * math.exp(-2.0 * t * t / quotient)


def stake(behavior: Behavior, t: float, s0: float = constants.MAX_EFFECTIVE_BALANCE_ETH) -> float:
    """Stake at epoch ``t`` for the given behaviour (dispatch helper)."""
    if behavior is Behavior.ACTIVE:
        return active_stake(t, s0)
    if behavior is Behavior.SEMI_ACTIVE:
        return semi_active_stake(t, s0)
    return inactive_stake(t, s0)


def stake_decay_exponent(behavior: Behavior) -> float:
    """Coefficient ``c`` such that ``s(t) = s0 * exp(-c * t^2)``.

    Active: 0.  Semi-active: 3/2**28.  Inactive: 1/2**25 (mainnet constants).
    """
    if behavior is Behavior.ACTIVE:
        return 0.0
    if behavior is Behavior.SEMI_ACTIVE:
        return 3.0 / 2 ** 28
    return 1.0 / 2 ** 25


# ----------------------------------------------------------------------
# Ejection times
# ----------------------------------------------------------------------
def continuous_ejection_epoch(
    behavior: Behavior,
    s0: float = constants.MAX_EFFECTIVE_BALANCE_ETH,
    ejection_balance: float = constants.EJECTION_BALANCE_ETH,
) -> Optional[float]:
    """Epoch at which the continuous stake function crosses the ejection balance.

    Returns ``None`` for active validators (never ejected).  For the mainnet
    constants this evaluates to roughly 4661 epochs (inactive) and 7611
    epochs (semi-active); the paper reports 4685 and 7652 from its own
    numerical evaluation — see the calibration note at the inactive
    ejection-epoch row of the paper-numbers ledger,
    ``tests/test_paper_numbers.py``.
    """
    if behavior is Behavior.ACTIVE:
        return None
    coefficient = stake_decay_exponent(behavior)
    ratio = math.log(s0 / ejection_balance)
    return math.sqrt(ratio / coefficient)


@dataclass(frozen=True)
class StakeTrajectory:
    """A sampled stake trajectory for one behaviour (Figure 2 series)."""

    behavior: Behavior
    epochs: Sequence[int]
    stakes: Sequence[float]
    ejection_epoch: Optional[float]

    def as_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """Return (epochs, stakes) as numpy arrays."""
        return np.asarray(self.epochs), np.asarray(self.stakes)

    def final_stake(self) -> float:
        """Stake at the last sampled epoch."""
        return self.stakes[-1]


def sample_trajectory(
    behavior: Behavior,
    max_epoch: int,
    step: int = 1,
    s0: float = constants.MAX_EFFECTIVE_BALANCE_ETH,
    ejection_balance: float = constants.EJECTION_BALANCE_ETH,
    freeze_after_ejection: bool = True,
) -> StakeTrajectory:
    """Sample the continuous stake function on ``range(0, max_epoch + 1, step)``.

    If ``freeze_after_ejection`` is set (the default, matching Figure 2),
    the stake stops decaying once it crosses the ejection balance because
    the validator has left the active set.
    """
    if max_epoch < 0:
        raise ValueError("max_epoch must be non-negative")
    if step <= 0:
        raise ValueError("step must be positive")
    ejection = continuous_ejection_epoch(behavior, s0, ejection_balance)
    epochs = list(range(0, max_epoch + 1, step))
    stakes: List[float] = []
    for epoch in epochs:
        if freeze_after_ejection and ejection is not None and epoch >= ejection:
            stakes.append(stake(behavior, ejection, s0))
        else:
            stakes.append(stake(behavior, float(epoch), s0))
    return StakeTrajectory(
        behavior=behavior,
        epochs=epochs,
        stakes=stakes,
        ejection_epoch=ejection,
    )


# ----------------------------------------------------------------------
# Generic integrator for arbitrary score profiles
# ----------------------------------------------------------------------
def integrate_stake(
    score_profile: Callable[[float], float],
    max_epoch: int,
    s0: float = constants.MAX_EFFECTIVE_BALANCE_ETH,
    quotient: int = constants.INACTIVITY_PENALTY_QUOTIENT,
    samples_per_epoch: int = 4,
) -> List[float]:
    """Numerically integrate ``s'(t) = -I(t) s(t) / quotient`` (Equation 3).

    ``score_profile`` maps an epoch (float) to the inactivity score.  The
    exact solution is ``s(t) = s0 * exp(-(1/quotient) * \\int_0^t I(u) du)``;
    we integrate the exponent with the trapezoidal rule, which is exact for
    the paper's piecewise-linear score profiles.
    Returns the stake sampled at integer epochs 0..max_epoch.
    """
    if max_epoch < 0:
        raise ValueError("max_epoch must be non-negative")
    grid = np.linspace(0.0, max_epoch, max_epoch * samples_per_epoch + 1)
    scores = np.array([score_profile(float(u)) for u in grid])
    # Cumulative integral of the score.
    cumulative = np.concatenate(
        ([0.0], np.cumsum((scores[1:] + scores[:-1]) / 2.0 * np.diff(grid)))
    )
    stakes_on_grid = s0 * np.exp(-cumulative / quotient)
    epochs = np.arange(0, max_epoch + 1)
    return list(np.interp(epochs, grid, stakes_on_grid))
