"""Tests for the closed forms under ``SpecConfig`` overrides (penalty
mechanisms other than Ethereum's) and for the post-leak recovery model."""

import math

import pytest

from repro.analysis.finalization_time import (
    ByzantineStrategy,
    conflicting_finalization_time,
    threshold_epoch_honest_only,
)
from repro.analysis.threshold import critical_beta0
from repro.leak.ratios import max_byzantine_proportion
from repro.leak.recovery import (
    epochs_to_clear_score,
    leak_exit_score,
    recovery_tail_epochs,
    simulate_recovery,
)
from repro.leak.stake import Behavior, continuous_ejection_epoch, inactive_stake, semi_active_stake
from repro.spec.config import SpecConfig

MAINNET = SpecConfig()


def _ejection(config: SpecConfig) -> float:
    return continuous_ejection_epoch(Behavior.INACTIVE, config=config)


def _safety_bound(config: SpecConfig, p0: float = 0.5) -> float:
    return conflicting_finalization_time(
        ByzantineStrategy.NONE, p0, config=config
    ).finalization_epoch


class TestClosedFormsOnMainnetConfig:
    def test_mainnet_config_matches_paper_formulas(self):
        for t in (500.0, 2000.0, 4000.0):
            assert inactive_stake(t, config=MAINNET) == pytest.approx(
                32.0 * math.exp(-t * t / 2 ** 25)
            )
            assert semi_active_stake(t, config=MAINNET) == pytest.approx(
                32.0 * math.exp(-3 * t * t / 2 ** 28)
            )

    def test_ejection_epochs_match_continuous_model(self):
        assert _ejection(MAINNET) == pytest.approx(math.sqrt(2 ** 25 * math.log(32 / 16.75)))
        assert continuous_ejection_epoch(
            Behavior.SEMI_ACTIVE, config=MAINNET
        ) == pytest.approx(math.sqrt(2 ** 28 / 3 * math.log(32 / 16.75)))

    def test_honest_threshold_epoch_matches_equation6_below_cap(self):
        # p0 = 0.6 crosses well before the ejection cap.
        assert threshold_epoch_honest_only(0.6, config=MAINNET) == pytest.approx(
            math.sqrt(2 ** 25 * (math.log(2 * 0.4) - math.log(0.6))), rel=1e-9
        )

    def test_safety_bound_shape(self):
        assert _safety_bound(MAINNET) == pytest.approx(_ejection(MAINNET) + 1.0)

    def test_critical_beta0_close_to_paper(self):
        # Using the derived ejection epoch (4661) instead of the paper's 4685
        # moves the critical proportion by well under 1%.
        assert critical_beta0(0.5, config=MAINNET) == pytest.approx(0.2421, abs=2e-3)

    def test_max_byzantine_proportion_monotone(self):
        values = [max_byzantine_proportion(0.5, b, config=MAINNET) for b in (0.1, 0.2, 0.3)]
        assert values == sorted(values)


class TestClosedFormsUnderConfigOverrides:
    def test_faster_leak_shortens_every_timescale(self):
        aggressive = SpecConfig(inactivity_penalty_quotient=2 ** 20)
        assert _ejection(aggressive) < _ejection(MAINNET)
        assert _safety_bound(aggressive) < _safety_bound(MAINNET)
        assert threshold_epoch_honest_only(0.6, config=aggressive) < threshold_epoch_honest_only(
            0.6, config=MAINNET
        )

    def test_quotient_scaling_is_sqrt(self):
        # The ejection epoch scales as sqrt(quotient): four times the quotient
        # doubles the time scale.
        base = SpecConfig(inactivity_penalty_quotient=2 ** 24)
        slower = SpecConfig(inactivity_penalty_quotient=2 ** 26)
        assert _ejection(slower) == pytest.approx(2.0 * _ejection(base))

    def test_critical_beta0_insensitive_to_quotient(self):
        # The critical proportion depends on the *ratio* of semi-active to
        # inactive decay at the ejection time, which is quotient-independent.
        fast = critical_beta0(0.5, config=SpecConfig(inactivity_penalty_quotient=2 ** 20))
        slow = critical_beta0(0.5, config=SpecConfig(inactivity_penalty_quotient=2 ** 28))
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_lenient_mechanism_semi_active_decays_slower(self):
        lenient = SpecConfig(inactivity_penalty_quotient=2 ** 28, inactivity_score_bias=2)
        assert semi_active_stake(4000.0, config=lenient) > semi_active_stake(
            4000.0, config=MAINNET
        )

    def test_supermajority_parameter(self):
        half = SpecConfig(supermajority_numerator=1, supermajority_denominator=2)
        # A lower quorum is regained earlier.
        assert threshold_epoch_honest_only(0.4, config=half) < threshold_epoch_honest_only(
            0.4, config=MAINNET
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecConfig(inactivity_score_bias=0)
        with pytest.raises(ValueError):
            SpecConfig(ejection_balance=48.0)
        with pytest.raises(ValueError):
            SpecConfig(supermajority_numerator=3, supermajority_denominator=10)
        with pytest.raises(ValueError):
            threshold_epoch_honest_only(1.5, config=MAINNET)


class TestRecovery:
    def test_leak_exit_score(self):
        assert leak_exit_score(100) == 400.0
        with pytest.raises(ValueError):
            leak_exit_score(-1)

    def test_epochs_to_clear_score(self):
        # Outside the leak an active validator clears 17 points per epoch.
        assert epochs_to_clear_score(170.0) == 10
        assert epochs_to_clear_score(0.0) == 0

    def test_epochs_to_clear_score_inactive_still_clears_outside_leak(self):
        # Outside the leak even an inactive validator's score decays (by
        # 16 - 4 = 12 per epoch), just slower than an active one's.
        assert epochs_to_clear_score(120.0, active=False) == 10
        assert epochs_to_clear_score(120.0, active=True) < 10

    def test_epochs_to_clear_score_raises_when_score_cannot_decay(self):
        config = SpecConfig.mainnet().with_overrides(inactivity_score_recovery_no_leak=2)
        with pytest.raises(ValueError):
            epochs_to_clear_score(100.0, config=config, active=False)

    def test_recovery_tail_epochs(self):
        # A validator inactive for a 1000-epoch leak exits with score 4000 and
        # clears it in ceil(4000/17) = 236 epochs.
        assert recovery_tail_epochs(1000) == math.ceil(4000 / 17)

    def test_simulate_recovery_score_reaches_zero_without_further_loss(self):
        trajectory = simulate_recovery(initial_score=800.0, initial_stake=20.0)
        assert trajectory.scores[-1] == 0.0
        # Outside the leak there are no inactivity penalties: no extra loss.
        assert trajectory.residual_loss == pytest.approx(0.0)
        assert trajectory.epochs_to_zero_score == math.ceil(800 / 17)

    def test_simulate_recovery_with_leak_still_running_keeps_charging(self):
        trajectory = simulate_recovery(
            initial_score=800.0, initial_stake=20.0, leak_still_running=True
        )
        assert trajectory.residual_loss > 0.0
        assert trajectory.final_stake < 20.0
        # The score only decays by 1 per epoch while the leak is running.
        assert trajectory.epochs_to_zero_score == 800

    def test_simulate_recovery_validation(self):
        with pytest.raises(ValueError):
            simulate_recovery(initial_score=-1.0, initial_stake=10.0)

    def test_recovery_explains_figure3_tail(self):
        # Figure 3 (p0 = 0.6): the ratio keeps rising for a while after the
        # 2/3 crossing because the ex-inactive validators still carry a score.
        crossing = threshold_epoch_honest_only(0.6)
        tail = recovery_tail_epochs(int(crossing))
        assert tail > 100  # several hundred epochs of residual penalties
        assert tail < crossing  # but far shorter than the leak itself
