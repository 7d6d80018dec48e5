"""Inactivity scores and the inactivity leak (Section 4 of the paper).

The update rules implemented here are exactly Equations 1 and 2:

* during a leak, an inactive validator's score increases by 4 per epoch and
  an active validator's score decreases by 1 (floored at 0);
* outside a leak every score additionally decreases by 16 per epoch;
* during a leak, each validator is charged ``score * stake / 2**26`` per
  epoch;
* validators whose stake falls to or below the ejection balance
  (16.75 ETH) are ejected from the validator set.

The arithmetic itself lives in :mod:`repro.core.backend` — the shared,
vectorized stake-dynamics kernel also used by the leak and Monte-Carlo
layers.  The kernel reads the :class:`BeaconState` registry columns as
they are, and its results are copied back into them, so the slot-level
simulator (:mod:`repro.sim`) exercises the exact same update code as every
other layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.backend import StakeBackend, StakeRules, get_backend
from repro.spec.config import SpecConfig
from repro.spec.state import BeaconState


@dataclass
class InactivityUpdate:
    """Summary of one epoch of inactivity processing."""

    epoch: int
    in_leak: bool
    total_penalty: float = 0.0
    ejected_indices: List[int] = field(default_factory=list)
    #: Validator indices deemed inactive this epoch.
    inactive_indices: List[int] = field(default_factory=list)


def update_inactivity_scores(
    state: BeaconState,
    active_indices: Iterable[int],
    in_leak: bool,
    backend: Union[str, StakeBackend] = "numpy",
) -> None:
    """Apply Equation 1 (and the out-of-leak recovery) to every validator.

    ``active_indices`` is the set of validators deemed active for the epoch
    being processed, i.e. those whose attestation with a correct target was
    included on this chain (Section 4.1).
    """
    registry = state.validators
    rules = StakeRules.from_config(state.config)
    new_scores = get_backend(backend).update_scores(
        registry.inactivity_score,
        registry.mask_of(active_indices),
        ~registry.active_mask(state.current_epoch),
        rules,
        in_leak,
    )
    np.copyto(registry.inactivity_score, new_scores)


def apply_inactivity_penalties(
    state: BeaconState, backend: Union[str, StakeBackend] = "numpy"
) -> float:
    """Apply Equation 2 to every active validator; returns the total burned.

    The penalty uses the score and stake of the *previous* epoch, which is
    what the state holds when this is called at the end of epoch processing
    (scores are updated after penalties, matching ``I(t-1)·s(t-1)/2**26``).
    """
    registry = state.validators
    rules = StakeRules.from_config(state.config)
    new_stakes, total_penalty = get_backend(backend).apply_penalties(
        registry.stake,
        registry.inactivity_score,
        ~registry.active_mask(state.current_epoch),
        rules,
    )
    np.copyto(registry.stake, new_stakes)
    return total_penalty


def eject_low_balance_validators(
    state: BeaconState, backend: Union[str, StakeBackend] = "numpy"
) -> List[int]:
    """Eject validators whose stake has fallen to or below the ejection balance.

    Returns the indices of the newly ejected validators.  Ejection removes
    the validator from the active set starting at the next epoch, mirroring
    the paper's treatment in Figure 2 and Section 5.1.
    """
    registry = state.validators
    rules = StakeRules.from_config(state.config)
    newly = get_backend(backend).find_ejections(
        registry.stake, ~registry.active_mask(state.current_epoch), rules
    )
    registry.exit(newly, state.current_epoch + 1)
    return registry.index[newly].tolist()


def process_inactivity_epoch(
    state: BeaconState,
    active_indices: Iterable[int],
    in_leak: Optional[bool] = None,
    backend: Union[str, StakeBackend] = "numpy",
) -> InactivityUpdate:
    """Run one epoch of inactivity processing (penalties, scores, ejections).

    Order of operations matches Equation 2's indexing: penalties are charged
    from the scores and stakes carried over from the previous epoch, then
    the scores are updated from this epoch's activity, then low-balance
    validators are ejected.  The whole epoch is one fused
    :meth:`~repro.core.backend.StakeBackend.epoch_update` call on the
    shared kernel.

    Parameters
    ----------
    state:
        The chain state to update in place.
    active_indices:
        Indices of validators deemed active for this epoch on this chain.
    in_leak:
        Force the leak flag; when ``None`` it is derived from the state's
        epochs-since-finality counter.
    backend:
        Stake-dynamics backend (``"numpy"`` default, ``"python"`` reference).
    """
    leak = state.is_in_inactivity_leak() if in_leak is None else in_leak
    update = InactivityUpdate(epoch=state.current_epoch, in_leak=leak)

    registry = state.validators
    active = registry.mask_of(active_indices)
    ineligible = ~registry.active_mask(state.current_epoch)
    update.inactive_indices = registry.index[~(ineligible | active)].tolist()
    rules = StakeRules.from_config(state.config)
    outcome = get_backend(backend).epoch_update(
        registry.stake,
        registry.inactivity_score,
        active,
        ineligible,
        rules,
        in_leak=leak,
    )
    np.copyto(registry.stake, outcome.stakes)
    np.copyto(registry.inactivity_score, outcome.scores)
    registry.exit(outcome.newly_ejected, state.current_epoch + 1)
    update.ejected_indices = registry.index[outcome.newly_ejected].tolist()
    update.total_penalty = outcome.total_penalty
    return update


# ----------------------------------------------------------------------
# Reference trajectories used by the analytical layer
# ----------------------------------------------------------------------
_BEHAVIOR_PATTERNS = {
    "active": lambda epoch: True,
    "inactive": lambda epoch: False,
    "semi-active": lambda epoch: epoch % 2 == 0,
}


def discrete_stake_trajectory(
    behavior: str,
    epochs: int,
    config: Optional[SpecConfig] = None,
    initial_stake: Optional[float] = None,
    apply_ejection: bool = True,
    backend: Union[str, StakeBackend] = "numpy",
) -> List[float]:
    """Simulate Equation 1+2 for a single validator with a fixed behaviour.

    ``behavior`` is one of ``"active"``, ``"semi-active"``, ``"inactive"``
    (Section 4.3).  Returns the list of stakes ``s(0), s(1), ..., s(epochs)``.
    Once the validator is ejected (stake <= ejection balance) the stake is
    frozen (reported as its value at ejection), matching Figure 2 where the
    trajectory stops at the expulsion limit.
    """
    if behavior not in _BEHAVIOR_PATTERNS:
        raise ValueError(f"unknown behavior {behavior!r}")
    cfg = config or SpecConfig.mainnet()
    if isinstance(backend, str):
        # The trajectory is a pure function of hashable arguments; different
        # tables/figures ask for the same reference curves, so memoise.
        return list(
            _cached_stake_trajectory(
                behavior, epochs, cfg, initial_stake, apply_ejection, backend
            )
        )
    return _compute_stake_trajectory(
        behavior, epochs, cfg, initial_stake, apply_ejection, backend
    )


@lru_cache(maxsize=256)
def _cached_stake_trajectory(
    behavior: str,
    epochs: int,
    config: SpecConfig,
    initial_stake: Optional[float],
    apply_ejection: bool,
    backend: str,
) -> Tuple[float, ...]:
    return tuple(
        _compute_stake_trajectory(
            behavior, epochs, config, initial_stake, apply_ejection, backend
        )
    )


def _compute_stake_trajectory(
    behavior: str,
    epochs: int,
    cfg: SpecConfig,
    initial_stake: Optional[float],
    apply_ejection: bool,
    backend: Union[str, StakeBackend],
) -> List[float]:
    pattern = _BEHAVIOR_PATTERNS[behavior]
    rules = StakeRules.from_config(cfg)
    if not apply_ejection:
        rules = replace(rules, ejection_balance=-math.inf)
    kernel = get_backend(backend)
    stakes = np.array(
        [cfg.max_effective_balance if initial_stake is None else initial_stake]
    )
    scores = np.zeros(1)
    ejected = np.zeros(1, dtype=bool)
    trajectory = [float(stakes[0])]
    for epoch in range(epochs):
        outcome = kernel.epoch_update(
            stakes, scores, np.array([pattern(epoch)]), ejected, rules, in_leak=True
        )
        stakes, scores, ejected = outcome.stakes, outcome.scores, outcome.ejected
        trajectory.append(float(stakes[0]))
    return trajectory


def discrete_ejection_epoch(
    behavior: str,
    config: Optional[SpecConfig] = None,
    max_epochs: int = 20_000,
    backend: Union[str, StakeBackend] = "numpy",
) -> Optional[int]:
    """Epoch at which a validator with the given behaviour gets ejected.

    Returns ``None`` if the validator is never ejected within ``max_epochs``
    (active validators never are).
    """
    if behavior not in _BEHAVIOR_PATTERNS:
        raise ValueError(f"unknown behavior {behavior!r}")
    cfg = config or SpecConfig.mainnet()
    if isinstance(backend, str):
        return _cached_ejection_epoch(behavior, cfg, max_epochs, backend)
    return _compute_ejection_epoch(behavior, cfg, max_epochs, backend)


@lru_cache(maxsize=256)
def _cached_ejection_epoch(
    behavior: str, config: SpecConfig, max_epochs: int, backend: str
) -> Optional[int]:
    return _compute_ejection_epoch(behavior, config, max_epochs, backend)


def _compute_ejection_epoch(
    behavior: str,
    cfg: SpecConfig,
    max_epochs: int,
    backend: Union[str, StakeBackend],
) -> Optional[int]:
    pattern = _BEHAVIOR_PATTERNS[behavior]
    rules = StakeRules.from_config(cfg)
    kernel = get_backend(backend)
    stakes = np.array([cfg.max_effective_balance])
    scores = np.zeros(1)
    ejected = np.zeros(1, dtype=bool)
    for epoch in range(1, max_epochs + 1):
        outcome = kernel.epoch_update(
            stakes, scores, np.array([pattern(epoch - 1)]), ejected, rules, in_leak=True
        )
        if bool(outcome.newly_ejected[0]):
            return epoch
        stakes, scores, ejected = outcome.stakes, outcome.scores, outcome.ejected
    return None
