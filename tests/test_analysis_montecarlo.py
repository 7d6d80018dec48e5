"""Tests for the Monte-Carlo bouncing-attack simulator."""

import numpy as np
import pytest

from repro.analysis.bouncing import BouncingAttackModel, attack_duration_probability
from repro.analysis.montecarlo import BouncingMonteCarlo
from repro.core.trials import group_chunks, plan_chunks
from repro.spec.config import SpecConfig


#: A faster-leaking configuration so the interesting dynamics (stake decay,
#: threshold crossing) show up within a few hundred epochs in tests.
FAST = SpecConfig.mainnet().with_overrides(inactivity_penalty_quotient=2 ** 16)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BouncingMonteCarlo(beta0=1.2)
        with pytest.raises(ValueError):
            BouncingMonteCarlo(beta0=0.3, p0=1.0)
        with pytest.raises(ValueError):
            BouncingMonteCarlo(beta0=0.3, n_honest=0)

    def test_invalid_run_arguments(self):
        mc = BouncingMonteCarlo(beta0=0.3, n_honest=10)
        with pytest.raises(ValueError):
            mc.run(n_trials=0, horizon=10)
        with pytest.raises(ValueError):
            mc.run(n_trials=1, horizon=0)


class TestStoppingTime:
    def test_survival_matches_closed_form(self):
        # With stake-proportional proposer election and beta0 = 1/3, the
        # per-epoch continuation probability is 1 - (2/3)^8; over a short
        # horizon the stakes barely move, so the empirical survival matches
        # the closed form (1 - (1-beta)^j)^k.
        mc = BouncingMonteCarlo(beta0=1 / 3, n_honest=50, seed=3)
        result = mc.run(n_trials=400, horizon=20, record_epochs=[10, 20])
        expected = attack_duration_probability(1 / 3, 20)
        assert result.survival_probability(20) == pytest.approx(expected, abs=0.06)

    def test_small_beta_dies_quickly(self):
        mc = BouncingMonteCarlo(beta0=0.05, n_honest=20, seed=1)
        result = mc.run(n_trials=200, horizon=50)
        assert result.mean_stop_epoch() < 10
        assert result.survival_probability(50) < 0.05

    def test_no_stopping_when_disabled(self):
        mc = BouncingMonteCarlo(beta0=0.05, n_honest=20, enforce_stopping=False, seed=1)
        result = mc.run(n_trials=20, horizon=30)
        assert result.survival_probability(30) == 1.0
        assert result.mean_stop_epoch() == 30


class TestByzantineProportion:
    def test_beta_starts_near_beta0(self):
        mc = BouncingMonteCarlo(beta0=0.3, n_honest=200, enforce_stopping=False, seed=2)
        result = mc.run(n_trials=10, horizon=4, record_epochs=[2])
        for trial in result.trials:
            assert trial.byzantine_proportion_branch_a[2] == pytest.approx(0.3, abs=0.03)
            assert trial.byzantine_proportion_branch_b[2] == pytest.approx(0.3, abs=0.03)

    def test_exceed_probability_half_at_one_third(self):
        # The discrete per-validator dynamics reproduce the paper's headline:
        # at beta0 = 1/3 the probability of exceeding the threshold on a
        # given branch hovers around 1/2 (and is ~1 on at least one branch).
        mc = BouncingMonteCarlo(
            beta0=1 / 3, n_honest=300, config=FAST, enforce_stopping=False, seed=5
        )
        result = mc.run(n_trials=60, horizon=120, record_epochs=[120])
        either = result.exceed_probability(120)
        assert 0.5 <= either <= 1.0

    def test_low_beta_rarely_exceeds(self):
        mc = BouncingMonteCarlo(
            beta0=0.25, n_honest=300, config=FAST, enforce_stopping=False, seed=6
        )
        result = mc.run(n_trials=40, horizon=120, record_epochs=[120])
        assert result.exceed_probability(120) < 0.2

    def test_conditional_probability_at_least_unconditional(self):
        mc = BouncingMonteCarlo(beta0=0.33, n_honest=100, config=FAST, seed=7)
        result = mc.run(n_trials=100, horizon=60, record_epochs=[60])
        assert result.conditional_exceed_probability(60) >= result.exceed_probability(60)


class TestHonestStakeSample:
    def test_sample_matches_closed_form_median(self):
        mc = BouncingMonteCarlo(beta0=1 / 3, p0=0.5, n_honest=10, seed=11)
        stakes = mc.honest_stake_sample(epoch=2000, n_samples=4000)
        model = BouncingAttackModel(beta0=1 / 3, p0=0.5)
        median = float(np.median(stakes))
        assert median == pytest.approx(model.distribution.mean_stake(2000.0), rel=0.01)

    def test_sample_respects_bounds(self):
        mc = BouncingMonteCarlo(beta0=0.3, p0=0.5, n_honest=10, seed=12)
        stakes = mc.honest_stake_sample(epoch=500, n_samples=1000)
        assert float(stakes.max()) <= 32.0 + 1e-9
        assert float(stakes.min()) >= 0.0

    def test_ejected_validators_have_zero_stake(self):
        mc = BouncingMonteCarlo(beta0=0.3, p0=0.5, n_honest=10, config=FAST, seed=13)
        stakes = mc.honest_stake_sample(epoch=400, n_samples=2000)
        # With the fast-leak config, a visible fraction has been ejected.
        assert (stakes == 0.0).mean() > 0.0
        assert not ((stakes > 0) & (stakes < 10.0)).any()  # below ~ejection -> zeroed


def trials_identical(first, second, compare_stakes=False):
    assert len(first.trials) == len(second.trials)
    for a, b in zip(first.trials, second.trials):
        assert a.stop_epoch == b.stop_epoch
        assert a.survived == b.survived
        assert a.byzantine_proportion_branch_a == b.byzantine_proportion_branch_a
        assert a.byzantine_proportion_branch_b == b.byzantine_proportion_branch_b
        if compare_stakes:
            assert a.stake_snapshots is not None and b.stake_snapshots is not None
            assert set(a.stake_snapshots) == set(b.stake_snapshots)
            for epoch in a.stake_snapshots:
                assert np.array_equal(
                    a.stake_snapshots[epoch], b.stake_snapshots[epoch]
                )


class TestTrialBatching:
    """The kernel-batch width is a pure throughput knob.

    For a fixed ``(seed, chunk_size)`` the per-chunk RNG streams — and
    therefore every exceed-probability curve and stake trajectory — must
    be byte-identical whatever ``batch`` is.  With ``chunk_size=1`` the
    ``batch=1`` run *is* the per-trial reference path, so these tests pin
    the batched path against it directly.
    """

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_batched_equals_per_trial_path(self, backend):
        mc = BouncingMonteCarlo(
            beta0=0.3, n_honest=12, config=FAST, seed=21, backend=backend
        )
        per_trial = mc.run(
            n_trials=12,
            horizon=30,
            record_epochs=[10, 20, 30],
            chunk_size=1,
            batch=1,
            record_stakes=True,
        )
        batched = mc.run(
            n_trials=12,
            horizon=30,
            record_epochs=[10, 20, 30],
            chunk_size=1,
            batch=12,
            record_stakes=True,
        )
        trials_identical(per_trial, batched, compare_stakes=True)
        assert per_trial.exceed_probability_curve() == batched.exceed_probability_curve()

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_batch_width_invariance_with_stopping(self, backend):
        mc = BouncingMonteCarlo(
            beta0=0.3, n_honest=10, config=FAST, seed=5, backend=backend
        )
        baseline = mc.run(
            n_trials=40,
            horizon=40,
            record_epochs=[20, 40],
            chunk_size=8,
            batch=8,
            record_stakes=True,
        )
        for batch in (16, 24, 40, None):
            other = mc.run(
                n_trials=40,
                horizon=40,
                record_epochs=[20, 40],
                chunk_size=8,
                batch=batch,
                record_stakes=True,
            )
            trials_identical(baseline, other, compare_stakes=True)

    def test_batch_and_jobs_compose(self):
        mc = BouncingMonteCarlo(beta0=0.3, n_honest=10, config=FAST, seed=7)
        serial = mc.run(n_trials=24, horizon=30, chunk_size=6, batch=12, jobs=1)
        parallel = mc.run(n_trials=24, horizon=30, chunk_size=6, batch=12, jobs=3)
        trials_identical(serial, parallel)

    def test_default_batch_is_cache_budgeted(self):
        small = BouncingMonteCarlo(beta0=0.3, n_honest=64, config=FAST)
        large = BouncingMonteCarlo(beta0=0.3, n_honest=10_000, config=FAST)
        assert small.default_batch(100_000) > large.default_batch(100_000)
        # Never below the chunk size, never above the trial count when tiny.
        assert small.default_batch(8, chunk_size=8) == 8
        assert large.default_batch(100_000) >= 1

    def test_figure10_default_plan_is_balanced(self):
        # 512 trials x 256 honest, the Figure-10 / bouncing-mc shape: no
        # dispatch unit holds more than half the trials.
        mc = BouncingMonteCarlo(beta0=1 / 3, n_honest=256, seed=1)
        groups = group_chunks(plan_chunks(512, seed=1), mc.default_batch(512))
        assert max(group.size for group in groups) <= 512 // 2

    def test_snapshots_absent_unless_requested(self):
        mc = BouncingMonteCarlo(beta0=0.3, n_honest=8, config=FAST, seed=3)
        result = mc.run(n_trials=4, horizon=10)
        assert all(t.stake_snapshots is None for t in result.trials)

    def test_snapshot_shape_and_filtering(self):
        mc = BouncingMonteCarlo(
            beta0=0.3, n_honest=8, config=FAST, seed=3, enforce_stopping=False
        )
        result = mc.run(
            n_trials=4, horizon=10, record_epochs=[5, 10], record_stakes=True
        )
        for trial in result.trials:
            assert set(trial.stake_snapshots) == {5, 10}
            for snapshot in trial.stake_snapshots.values():
                assert snapshot.shape == (2, 9)
