"""End-to-end drivers for the five scenarios of Table 1.

Each scenario builds a two-branch fork with the appropriate validator
groups and Byzantine strategy, runs the discrete aggregate leak simulator
(:mod:`repro.leak.dynamics`), and reports the outcome the paper associates
with it:

========  =============================  ============================
Scenario  Setting                         Outcome
========  =============================  ============================
5.1       All honest                      two finalized branches
5.2.1     Slashable Byzantine             two finalized branches
5.2.2     Non-slashable Byzantine         two finalized branches
5.2.3     Non-slashable Byzantine         beta > 1/3
5.3       Probabilistic bouncing attack   beta > 1/3 (probabilistic)
========  =============================  ============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import constants
from repro.analysis.bouncing import BouncingAttackModel
from repro.analysis.finalization_time import (
    ByzantineStrategy,
    conflicting_finalization_time,
)
from repro.leak.dynamics import LeakResult, LeakSimulation
from repro.leak.groups import (
    BranchView,
    GroupSpec,
    always_active,
    never_active,
    semi_active_even,
    semi_active_odd,
)
from repro.spec.config import SpecConfig

BRANCH_1 = "branch-1"
BRANCH_2 = "branch-2"


@dataclass
class ScenarioOutcome:
    """Result of one Table-1 scenario."""

    scenario_id: str
    description: str
    p0: float
    beta0: float
    #: The qualitative outcome string matching Table 1.
    outcome: str
    #: Epoch at which both branches had finalized (None if it never happened).
    conflicting_finalization_epoch: Optional[int] = None
    #: Largest Byzantine stake proportion observed on any branch.
    max_byzantine_proportion: float = 0.0
    #: Whether the Byzantine proportion exceeded the one-third threshold.
    threshold_exceeded: bool = False
    #: Analytical prediction of the conflicting-finalization epoch, when the
    #: paper provides a closed form for the scenario.
    analytical_epoch: Optional[float] = None
    #: Additional scenario-specific numbers.
    details: Dict[str, float] = field(default_factory=dict)
    #: The underlying simulation result, for inspection (not serialised).
    simulation: Optional[LeakResult] = None


def _honest_groups(p0: float, beta0: float) -> Tuple[GroupSpec, GroupSpec, GroupSpec, GroupSpec]:
    """Honest groups for both branches: active on theirs, inactive on the other."""
    honest_1_weight = p0 * (1.0 - beta0)
    honest_2_weight = (1.0 - p0) * (1.0 - beta0)
    return (
        GroupSpec(name="honest-1", weight=honest_1_weight, pattern=always_active),
        GroupSpec(name="honest-2", weight=honest_2_weight, pattern=never_active),
        GroupSpec(name="honest-1", weight=honest_1_weight, pattern=never_active),
        GroupSpec(name="honest-2", weight=honest_2_weight, pattern=always_active),
    )


# ----------------------------------------------------------------------
# Scenario 5.1 — all honest validators
# ----------------------------------------------------------------------
def run_all_honest_scenario(
    p0: float = 0.5,
    max_epochs: int = 6000,
    config: Optional[SpecConfig] = None,
) -> ScenarioOutcome:
    """Scenario 5.1: a partition with only honest validators.

    Both sides keep trying to finalize; the leak erodes the stake each side
    deems inactive until both regain a supermajority and finalize
    conflicting checkpoints — a Safety loss with no Byzantine validator at
    all.
    """
    h1_on_1, h2_on_1, h1_on_2, h2_on_2 = _honest_groups(p0, beta0=0.0)
    simulation = LeakSimulation(
        branch_specs={BRANCH_1: (h1_on_1, h2_on_1), BRANCH_2: (h1_on_2, h2_on_2)},
        config=config or SpecConfig.mainnet(),
    )
    result = simulation.run(max_epochs)
    analytical = conflicting_finalization_time(ByzantineStrategy.NONE, p0, 0.0, config=config)
    return ScenarioOutcome(
        scenario_id="5.1",
        description="All honest validators, network partition",
        p0=p0,
        beta0=0.0,
        outcome="2 finalized branches",
        conflicting_finalization_epoch=result.conflicting_finalization_epoch(),
        max_byzantine_proportion=0.0,
        threshold_exceeded=False,
        analytical_epoch=analytical.finalization_epoch,
        simulation=result,
    )


# ----------------------------------------------------------------------
# Scenario 5.2.1 — slashable Byzantine behaviour
# ----------------------------------------------------------------------
def run_slashable_byzantine_scenario(
    beta0: float,
    p0: float = 0.5,
    max_epochs: int = 6000,
    config: Optional[SpecConfig] = None,
) -> ScenarioOutcome:
    """Scenario 5.2.1: Byzantine validators attest on both branches every epoch.

    Being active on both branches in the same epoch is a slashable double
    vote, but before GST the evidence cannot cross the partition, so the
    attack expedites conflicting finalization unpunished.
    """
    h1_on_1, h2_on_1, h1_on_2, h2_on_2 = _honest_groups(p0, beta0)
    byzantine_on_1 = GroupSpec(
        name="byzantine", weight=beta0, pattern=always_active, byzantine=True
    )
    byzantine_on_2 = GroupSpec(
        name="byzantine", weight=beta0, pattern=always_active, byzantine=True
    )
    simulation = LeakSimulation(
        branch_specs={
            BRANCH_1: (h1_on_1, h2_on_1, byzantine_on_1),
            BRANCH_2: (h1_on_2, h2_on_2, byzantine_on_2),
        },
        config=config or SpecConfig.mainnet(),
    )
    result = simulation.run(max_epochs)
    analytical = conflicting_finalization_time(
        ByzantineStrategy.SLASHING, p0, beta0, config=config
    )
    max_beta = max(
        branch.max_byzantine_proportion() for branch in result.branches.values()
    )
    return ScenarioOutcome(
        scenario_id="5.2.1",
        description="Byzantine validators active on both branches (slashable)",
        p0=p0,
        beta0=beta0,
        outcome="2 finalized branches",
        conflicting_finalization_epoch=result.conflicting_finalization_epoch(),
        max_byzantine_proportion=max_beta,
        threshold_exceeded=max_beta >= constants.BYZANTINE_SAFETY_THRESHOLD,
        analytical_epoch=analytical.finalization_epoch,
        simulation=result,
    )


# ----------------------------------------------------------------------
# Scenario 5.2.2 — non-slashable Byzantine behaviour (finalize ASAP)
# ----------------------------------------------------------------------
class NonSlashableFinalizer:
    """Adaptive semi-active Byzantine strategy that finalizes both branches.

    The Byzantine validators alternate between the branches (active on
    branch 1 on even epochs, on branch 2 on odd epochs) — never active on
    both in the same epoch, hence never slashable.  As soon as a branch's
    active ratio reaches the supermajority threshold, they stay active on
    that branch for consecutive epochs until it finalizes, then move on to
    the other branch (Section 5.2.2 / Figure 5).
    """

    def __init__(self, supermajority: float = constants.SUPERMAJORITY_FRACTION) -> None:
        self.supermajority = supermajority
        self._burst_branch: Optional[str] = None
        self._finalized_branches: set = set()

    def pattern_for(self, branch_name: str, parity: int):
        """Return the activity pattern callable for one branch.

        ``parity`` selects the phase of the alternation (0 = even epochs).
        """

        def pattern(epoch: int, view: BranchView) -> bool:
            if view.finalized:
                self._finalized_branches.add(branch_name)
                if self._burst_branch == branch_name:
                    self._burst_branch = None
                # Once the branch finalized, fall back to the alternation.
                return epoch % 2 == parity
            if self._burst_branch == branch_name:
                return True
            if (
                self._burst_branch is None
                and view.previous_active_ratio >= self.supermajority
            ):
                self._burst_branch = branch_name
                return True
            if self._burst_branch is not None:
                # Busy finalizing the other branch: stay silent here so the
                # behaviour remains non-slashable.
                return False
            return epoch % 2 == parity

        return pattern


def run_non_slashable_byzantine_scenario(
    beta0: float,
    p0: float = 0.5,
    max_epochs: int = 6000,
    config: Optional[SpecConfig] = None,
) -> ScenarioOutcome:
    """Scenario 5.2.2: semi-active Byzantine validators expedite conflicting finalization."""
    h1_on_1, h2_on_1, h1_on_2, h2_on_2 = _honest_groups(p0, beta0)
    strategy = NonSlashableFinalizer()
    byzantine_on_1 = GroupSpec(
        name="byzantine",
        weight=beta0,
        pattern=strategy.pattern_for(BRANCH_1, parity=0),
        byzantine=True,
    )
    byzantine_on_2 = GroupSpec(
        name="byzantine",
        weight=beta0,
        pattern=strategy.pattern_for(BRANCH_2, parity=1),
        byzantine=True,
    )
    simulation = LeakSimulation(
        branch_specs={
            BRANCH_1: (h1_on_1, h2_on_1, byzantine_on_1),
            BRANCH_2: (h1_on_2, h2_on_2, byzantine_on_2),
        },
        config=config or SpecConfig.mainnet(),
    )
    result = simulation.run(max_epochs)
    analytical = conflicting_finalization_time(
        ByzantineStrategy.NON_SLASHING, p0, beta0, config=config
    )
    max_beta = max(
        branch.max_byzantine_proportion() for branch in result.branches.values()
    )
    return ScenarioOutcome(
        scenario_id="5.2.2",
        description="Byzantine validators semi-active on both branches (non-slashable)",
        p0=p0,
        beta0=beta0,
        outcome="2 finalized branches",
        conflicting_finalization_epoch=result.conflicting_finalization_epoch(),
        max_byzantine_proportion=max_beta,
        threshold_exceeded=max_beta >= constants.BYZANTINE_SAFETY_THRESHOLD,
        analytical_epoch=analytical.finalization_epoch,
        simulation=result,
    )


# ----------------------------------------------------------------------
# Scenario 5.2.3 — exceed the one-third threshold
# ----------------------------------------------------------------------
def run_threshold_exceeding_scenario(
    beta0: float,
    p0: float = 0.5,
    max_epochs: int = 8000,
    config: Optional[SpecConfig] = None,
) -> ScenarioOutcome:
    """Scenario 5.2.3: Byzantine validators delay finalization to grow their share.

    Instead of bursting to finalize once the supermajority is within reach,
    the Byzantine validators stay strictly semi-active so that justification
    happens at most every other epoch and finalization never does; the
    inactive honest validators keep leaking until their ejection, at which
    point the Byzantine proportion peaks (Equation 13).
    """
    h1_on_1, h2_on_1, h1_on_2, h2_on_2 = _honest_groups(p0, beta0)
    byzantine_on_1 = GroupSpec(
        name="byzantine", weight=beta0, pattern=semi_active_even, byzantine=True
    )
    byzantine_on_2 = GroupSpec(
        name="byzantine", weight=beta0, pattern=semi_active_odd, byzantine=True
    )
    simulation = LeakSimulation(
        branch_specs={
            BRANCH_1: (h1_on_1, h2_on_1, byzantine_on_1),
            BRANCH_2: (h1_on_2, h2_on_2, byzantine_on_2),
        },
        config=config or SpecConfig.mainnet(),
    )
    result = simulation.run(max_epochs, stop_on_all_finalized=False)
    max_beta = max(
        branch.max_byzantine_proportion() for branch in result.branches.values()
    )
    exceeded = max_beta >= constants.BYZANTINE_SAFETY_THRESHOLD
    return ScenarioOutcome(
        scenario_id="5.2.3",
        description="Byzantine validators delay finalization to exceed one-third",
        p0=p0,
        beta0=beta0,
        outcome="beta > 1/3" if exceeded else "beta stays below 1/3",
        conflicting_finalization_epoch=result.conflicting_finalization_epoch(),
        max_byzantine_proportion=max_beta,
        threshold_exceeded=exceeded,
        analytical_epoch=None,
        simulation=result,
    )


# ----------------------------------------------------------------------
# Scenario 5.3 — probabilistic bouncing attack
# ----------------------------------------------------------------------
def run_bouncing_scenario(
    beta0: float,
    p0: float = 0.5,
    horizon_epochs: int = 4000,
    both_branches: bool = True,
) -> ScenarioOutcome:
    """Scenario 5.3: the probabilistic bouncing attack under the leak.

    The outcome is probabilistic: the scenario reports the probability that
    the Byzantine stake proportion exceeds one-third at the horizon epoch
    (Equation 24) together with the probability that the attack even lasts
    that long.
    """
    model = BouncingAttackModel(beta0=beta0, p0=p0)
    exceed_probability = model.exceed_threshold_probability(
        float(horizon_epochs), both_branches=both_branches
    )
    duration_log10 = model.log10_duration_probability(horizon_epochs)
    return ScenarioOutcome(
        scenario_id="5.3",
        description="Probabilistic bouncing attack with inactivity leak",
        p0=p0,
        beta0=beta0,
        outcome="beta > 1/3 probably",
        conflicting_finalization_epoch=None,
        max_byzantine_proportion=float("nan"),
        threshold_exceeded=exceed_probability > 0.5,
        analytical_epoch=None,
        details={
            "exceed_probability_at_horizon": exceed_probability,
            "log10_duration_probability": duration_log10,
            "feasible_p0_lower": model.feasible_p0_window()[0],
            "feasible_p0_upper": model.feasible_p0_window()[1],
        },
    )


# ----------------------------------------------------------------------
# Table 1 — the whole set
# ----------------------------------------------------------------------
def run_all_scenarios(
    beta0: float = 0.33,
    threshold_beta0: float = 0.25,
    p0: float = 0.5,
    max_epochs: int = 6000,
    config: Optional[SpecConfig] = None,
) -> List[ScenarioOutcome]:
    """Run the five Table-1 scenarios with representative parameters.

    ``beta0`` is used for the finalization-accelerating scenarios (the paper
    highlights 0.33); ``threshold_beta0`` for the threshold-exceeding
    scenario (any value above the 0.2421 bound works).
    """
    return [
        run_all_honest_scenario(p0=p0, max_epochs=max_epochs, config=config),
        run_slashable_byzantine_scenario(
            beta0=beta0, p0=p0, max_epochs=max_epochs, config=config
        ),
        run_non_slashable_byzantine_scenario(
            beta0=beta0, p0=p0, max_epochs=max_epochs, config=config
        ),
        run_threshold_exceeding_scenario(
            beta0=threshold_beta0, p0=p0, max_epochs=max(max_epochs, 8000), config=config
        ),
        run_bouncing_scenario(beta0=0.33, p0=p0),
    ]
