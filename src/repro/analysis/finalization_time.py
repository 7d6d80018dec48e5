"""Time to (conflicting) finalization during the inactivity leak.

Implements the paper's Equations 6 and 9 (closed forms) and the numerical
solution of Equation 10, i.e. the number of epochs after the start of the
inactivity leak at which a branch regains a supermajority of active stake,
for the three settings studied in Section 5:

* honest validators only (Section 5.1, Equation 6),
* Byzantine validators active on both branches — slashable behaviour
  (Section 5.2.1, Equation 9, Table 2),
* Byzantine validators semi-active on both branches — non-slashable
  behaviour (Section 5.2.2, Equation 10 solved numerically, Table 3).

The "conflicting finalization" time of a fork is the time at which the
*slowest* branch finalizes; one extra epoch is needed after the threshold
crossing to finalize the preceding justified checkpoint (the paper's 4685
→ 4686 remark).

Every function takes a ``config`` (:class:`~repro.spec.config.SpecConfig`,
``None`` = mainnet) for the leak constants and the quorum, and caps each
crossing time at ``ejection_cap``: by default the config's continuous
inactive ejection (4660.58 on mainnet, where the paper uses 4685).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.leak.ratios import active_ratio_with_semi_active_byzantine, resolve_ejection_epoch
from repro.leak.stake import Behavior, stake_decay_exponent
from repro.spec.config import DEFAULT_CONFIG, SpecConfig


class ByzantineStrategy:
    """Names of the Byzantine strategies whose crossing times we compute."""

    NONE = "honest-only"
    SLASHING = "slashing"
    NON_SLASHING = "non-slashing"


def _validate_inputs(p0: float, beta0: float) -> None:
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")
    if not 0.0 <= beta0 < 1.0:
        raise ValueError(f"beta0 must lie in [0, 1), got {beta0}")


# ----------------------------------------------------------------------
# Equations 6 and 9 — honest-only, and Byzantine active on both branches
# ----------------------------------------------------------------------
def threshold_epoch_slashing(
    p0: float,
    beta0: float,
    ejection_cap: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """Epochs until the branch regains the supermajority with double-voting
    Byzantine stake (Eq. 9).

    With quorum ``n/d`` the ratio of Eq. 8 reaches it once
    ``exp(-c t^2) <= p_eff / (odds (1 - p0))``, where
    ``p_eff = p0 + beta0/(1-beta0)``, ``odds = n/(d-n)`` and
    ``c = bias / (2 quotient)``; on mainnet (odds 2, c = 1/2**25) that is
    ``t = min( sqrt(2**25 [ln(2(1-p0)) - ln(p0 + beta0/(1-beta0))]), cap )``.
    A branch that holds the quorum from the start needs 0 epochs; an empty
    one recovers only at the cap.
    """
    _validate_inputs(p0, beta0)
    cfg = config or DEFAULT_CONFIG
    cap = resolve_ejection_epoch(ejection_cap, cfg)
    numerator, denominator = cfg.supermajority_numerator, cfg.supermajority_denominator
    needed = numerator / (denominator - numerator) * (1.0 - p0)
    effective_active = p0 + beta0 / (1.0 - beta0)
    if effective_active >= needed:
        return 0.0
    if effective_active <= 0.0:
        return cap
    argument = math.log(needed) - math.log(effective_active)
    return min(math.sqrt(argument / stake_decay_exponent(Behavior.INACTIVE, cfg)), cap)


def threshold_epoch_honest_only(
    p0: float,
    ejection_cap: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """Epochs until a branch with honest-active proportion ``p0`` regains the
    supermajority (Eq. 6): Eq. 9 with no Byzantine stake.

    ``t = min( sqrt(2**25 [ln(2(1-p0)) - ln(p0)]), cap )`` on mainnet for
    0 < p0 < 2/3; 0 from 2/3 up, and the cap at ``p0 == 0``.
    """
    return threshold_epoch_slashing(p0, 0.0, ejection_cap, config)


# ----------------------------------------------------------------------
# Equation 10 — Byzantine semi-active (non-slashable), numeric solve
# ----------------------------------------------------------------------
def threshold_epoch_non_slashing(
    p0: float,
    beta0: float,
    ejection_cap: Optional[float] = None,
    tolerance: float = 1e-9,
    config: Optional[SpecConfig] = None,
) -> float:
    """Epochs until the branch regains the supermajority with semi-active
    Byzantine stake.

    Equation 10 has no closed-form crossing time; we find the root of
    ``ratio(t) - quorum`` with Brent's method on ``[0, cap]``.  If the
    ratio never reaches the quorum before the ejection cap, the cap is
    returned (at that point the honest inactive validators are ejected and
    the ratio jumps above it).
    """
    from scipy import optimize  # scipy loads on the first root find only

    _validate_inputs(p0, beta0)
    cfg = config or DEFAULT_CONFIG
    cap = resolve_ejection_epoch(ejection_cap, cfg)
    quorum = cfg.supermajority_fraction

    def gap(t: float) -> float:
        return active_ratio_with_semi_active_byzantine(t, p0, beta0, cfg) - quorum

    if gap(0.0) >= 0.0:
        return 0.0
    if gap(cap) < 0.0:
        return cap
    return float(optimize.brentq(gap, 0.0, cap, xtol=tolerance, maxiter=200))


# ----------------------------------------------------------------------
# Conflicting finalization of the whole fork
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConflictingFinalization:
    """Summary of a conflicting-finalization computation for one fork."""

    strategy: str
    p0: float
    beta0: float
    #: Threshold-crossing epoch of the branch with honest proportion p0.
    branch_1_epoch: float
    #: Threshold-crossing epoch of the branch with honest proportion 1-p0.
    branch_2_epoch: float
    #: Epoch at which the slowest branch crosses the threshold.
    threshold_epoch: float
    #: Epoch of conflicting finalization (threshold + 1, the extra epoch
    #: needed to finalize the preceding justified checkpoint).
    finalization_epoch: float


def _threshold_for(
    strategy: str,
    p0: float,
    beta0: float,
    ejection_cap: Optional[float],
    config: Optional[SpecConfig],
) -> float:
    if strategy in (ByzantineStrategy.NONE, ByzantineStrategy.SLASHING):
        return threshold_epoch_slashing(p0, beta0, ejection_cap, config)
    if strategy == ByzantineStrategy.NON_SLASHING:
        return threshold_epoch_non_slashing(p0, beta0, ejection_cap, config=config)
    raise ValueError(f"unknown Byzantine strategy {strategy!r}")


def conflicting_finalization_time(
    strategy: str,
    p0: float = 0.5,
    beta0: float = 0.0,
    ejection_cap: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> ConflictingFinalization:
    """Epochs until both branches of the fork finalize (Safety is lost).

    The fork splits honest validators into proportions ``p0`` and ``1-p0``;
    the Byzantine strategy determines how the adversary's stake counts on
    each branch.  Conflicting finalization is reached when the *slower*
    branch finalizes, one epoch after its threshold crossing.  ``config``
    sets the leak constants and quorum (``None`` = mainnet); ``ejection_cap``
    defaults to its continuous inactive ejection.
    """
    if strategy == ByzantineStrategy.NONE and beta0 != 0.0:
        raise ValueError("the honest-only strategy requires beta0 == 0")
    branch_1 = _threshold_for(strategy, p0, beta0, ejection_cap, config)
    branch_2 = _threshold_for(strategy, 1.0 - p0, beta0, ejection_cap, config)
    threshold = max(branch_1, branch_2)
    return ConflictingFinalization(
        strategy=strategy,
        p0=p0,
        beta0=beta0,
        branch_1_epoch=branch_1,
        branch_2_epoch=branch_2,
        threshold_epoch=threshold,
        finalization_epoch=threshold + 1.0,
    )


def epochs_to_conflicting_finalization(
    strategy: str,
    p0: float = 0.5,
    beta0: float = 0.0,
    ejection_cap: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> int:
    """The integer epoch count reported in Tables 2 and 3 (threshold epoch, rounded up)."""
    result = conflicting_finalization_time(strategy, p0, beta0, ejection_cap, config)
    return int(math.ceil(result.threshold_epoch - 1e-9))


def speedup_over_honest_baseline(
    strategy: str,
    beta0: float,
    p0: float = 0.5,
    ejection_cap: Optional[float] = None,
    config: Optional[SpecConfig] = None,
) -> float:
    """How much faster Safety is broken compared to the honest-only baseline.

    The paper quotes "approximately ten times faster" for the slashing
    strategy at beta0 = 0.33 and "approximately eight times faster" for the
    non-slashable strategy.
    """
    baseline = conflicting_finalization_time(
        ByzantineStrategy.NONE, p0, 0.0, ejection_cap, config
    ).threshold_epoch
    attacked = conflicting_finalization_time(
        strategy, p0, beta0, ejection_cap, config
    ).threshold_epoch
    if attacked <= 0.0:
        return float("inf")
    return baseline / attacked
