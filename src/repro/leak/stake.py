"""Continuous stake functions during an inactivity leak (Section 4.3).

The paper models the stake of a validator as a continuous, differentiable
function satisfying ``s'(t) = -I(t) * s(t) / quotient`` (Equation 3) and
derives, for the three reference behaviours:

* active validators:      ``s(t) = s0``
* semi-active validators: ``s(t) = s0 * exp(-3 t^2 / 2**28)``
* inactive validators:    ``s(t) = s0 * exp(-t^2 / 2**25)``

Those are the mainnet values: every function here reads the score bias, the
score recovery, the penalty quotient and the balances from a
:class:`~repro.spec.config.SpecConfig` (``config=None`` means mainnet), so
the closed forms follow the same parameters as the spec recurrence.  The
module exposes the stakes, their inactivity-score counterparts, the
ejection-crossing times and a generic integrator for arbitrary
inactivity-score profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.spec.config import DEFAULT_CONFIG, SpecConfig


class Behavior(str, Enum):
    """The three validator behaviours considered by the paper."""

    ACTIVE = "active"
    SEMI_ACTIVE = "semi-active"
    INACTIVE = "inactive"


# ----------------------------------------------------------------------
# Inactivity-score profiles (Section 4.3, bullet list)
# ----------------------------------------------------------------------
def inactivity_score(
    behavior: Behavior, t: float, config: Optional[SpecConfig] = None
) -> float:
    """Average inactivity score at epoch ``t`` for the given behaviour.

    Active: I(t) = 0.  Inactive: I(t) = bias * t.  Semi-active, which gains
    the bias and loses the recovery on alternate epochs:
    I(t) = max(0, (bias - recovery) / 2) * t.  On mainnet (bias 4,
    recovery 1) these are 4t and 3t/2.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    cfg = config or DEFAULT_CONFIG
    if behavior is Behavior.ACTIVE:
        return 0.0
    if behavior is Behavior.SEMI_ACTIVE:
        rate = (cfg.inactivity_score_bias - cfg.inactivity_score_recovery) / 2.0
        return max(0.0, rate) * t
    return cfg.inactivity_score_bias * t


# ----------------------------------------------------------------------
# Stake closed forms
# ----------------------------------------------------------------------
def stake_decay_exponent(behavior: Behavior, config: Optional[SpecConfig] = None) -> float:
    """Coefficient ``c`` such that ``s(t) = s0 * exp(-c * t^2)``.

    A score growing as ``rate * t`` integrates to ``c = rate / (2 * quotient)``.
    Mainnet: active 0, semi-active 3/2**28, inactive 1/2**25.
    """
    cfg = config or DEFAULT_CONFIG
    return inactivity_score(behavior, 1.0, cfg) / (2.0 * cfg.inactivity_penalty_quotient)


def stake(
    behavior: Behavior,
    t: float,
    s0: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """Stake at epoch ``t`` for the given behaviour; ``s0`` defaults to the
    config's maximum effective balance."""
    if t < 0:
        raise ValueError("t must be non-negative")
    cfg = config or DEFAULT_CONFIG
    initial = cfg.max_effective_balance if s0 is None else s0
    if behavior is Behavior.ACTIVE:
        return initial
    return initial * math.exp(-stake_decay_exponent(behavior, cfg) * t * t)


def active_stake(
    t: float, s0: Optional[float] = None, config: Optional[SpecConfig] = None
) -> float:
    """Stake of an always-active validator: constant."""
    return stake(Behavior.ACTIVE, t, s0, config)


def semi_active_stake(
    t: float, s0: Optional[float] = None, config: Optional[SpecConfig] = None
) -> float:
    """Stake of a semi-active validator: ``s0 * exp(-3 t^2 / 2**28)`` on mainnet."""
    return stake(Behavior.SEMI_ACTIVE, t, s0, config)


def inactive_stake(
    t: float, s0: Optional[float] = None, config: Optional[SpecConfig] = None
) -> float:
    """Stake of an inactive validator: ``s0 * exp(-t^2 / 2**25)`` on mainnet."""
    return stake(Behavior.INACTIVE, t, s0, config)


# ----------------------------------------------------------------------
# Ejection times
# ----------------------------------------------------------------------
def continuous_ejection_epoch(
    behavior: Behavior,
    s0: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> Optional[float]:
    """Epoch at which the continuous stake function crosses the ejection balance.

    Returns ``None`` for a behaviour whose stake never decays (active
    validators; semi-active ones when the recovery offsets the bias).  For
    the mainnet constants this evaluates to roughly 4661 epochs (inactive)
    and 7611 epochs (semi-active); the paper reports 4685 and 7652 from its
    own numerical evaluation — see the calibration note at the inactive
    ejection-epoch row of the paper-numbers ledger,
    ``tests/test_paper_numbers.py``.
    """
    cfg = config or DEFAULT_CONFIG
    coefficient = stake_decay_exponent(behavior, cfg)
    if coefficient <= 0.0:
        return None
    initial = cfg.max_effective_balance if s0 is None else s0
    return math.sqrt(math.log(initial / cfg.ejection_balance) / coefficient)


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
    s0: Optional[float] = None,
    config: Optional[SpecConfig] = None,
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
    ejection = continuous_ejection_epoch(behavior, s0, config)
    epochs = list(range(0, max_epoch + 1, step))
    stakes: List[float] = []
    for epoch in epochs:
        if freeze_after_ejection and ejection is not None and epoch >= ejection:
            stakes.append(stake(behavior, ejection, s0, config))
        else:
            stakes.append(stake(behavior, float(epoch), s0, config))
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
    s0: Optional[float] = None,
    config: Optional[SpecConfig] = None,
    samples_per_epoch: int = 4,
) -> List[float]:
    """Numerically integrate ``s'(t) = -I(t) s(t) / quotient`` (Equation 3),
    with the config's penalty quotient.

    ``score_profile`` maps an epoch (float) to the inactivity score.  The
    exact solution is ``s(t) = s0 * exp(-(1/quotient) * \\int_0^t I(u) du)``;
    we integrate the exponent with the trapezoidal rule, which is exact for
    the paper's piecewise-linear score profiles.
    Returns the stake sampled at integer epochs 0..max_epoch.
    """
    if max_epoch < 0:
        raise ValueError("max_epoch must be non-negative")
    cfg = config or DEFAULT_CONFIG
    initial = cfg.max_effective_balance if s0 is None else s0
    grid = np.linspace(0.0, max_epoch, max_epoch * samples_per_epoch + 1)
    scores = np.array([score_profile(float(u)) for u in grid])
    # Cumulative integral of the score.
    cumulative = np.concatenate(
        ([0.0], np.cumsum((scores[1:] + scores[:-1]) / 2.0 * np.diff(grid)))
    )
    stakes_on_grid = initial * np.exp(-cumulative / cfg.inactivity_penalty_quotient)
    epochs = np.arange(0, max_epoch + 1)
    return list(np.interp(epochs, grid, stakes_on_grid))
