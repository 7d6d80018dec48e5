"""Tests for the trial-batched stake engine.

The contract under test: a ``BatchedStakeEngine`` holding ``(trials,
*entry_shape)`` state evolves every trial **bit-identically** to a
standalone :class:`StakeEngine` fed that trial's row — per-element kernel
arithmetic is shape-independent and the weighted reductions use ``np.sum``
over the entry axes, whose pairwise blocking depends only on the entry
count.
"""

import numpy as np
import pytest

from repro.core.stake_engine import BatchedStakeEngine, StakeEngine
from repro.spec.config import SpecConfig

MAINNET = SpecConfig.mainnet()
FAST = MAINNET.with_overrides(inactivity_penalty_quotient=2 ** 14)

BACKENDS = ("numpy", "python")


def make_states(seed=0, trials=6, n=8):
    rng = np.random.default_rng(seed)
    stakes = rng.uniform(17.0, 32.0, (trials, n))
    return rng, stakes


class TestBatchedStakeEngineConstruction:
    def test_requires_trial_axis(self):
        with pytest.raises(ValueError):
            BatchedStakeEngine(np.full(5, 32.0))

    def test_requires_entries(self):
        with pytest.raises(ValueError):
            BatchedStakeEngine(np.empty((3, 0)))

    def test_shape_mismatches_rejected(self):
        stakes = np.full((2, 4), 32.0)
        with pytest.raises(ValueError):
            BatchedStakeEngine(stakes, scores=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            BatchedStakeEngine(stakes, ejected=np.zeros((3, 4), dtype=bool))
        engine = BatchedStakeEngine(stakes)
        with pytest.raises(ValueError):
            engine.step(np.ones((2, 5), dtype=bool))

    def test_uniform_constructor(self):
        engine = BatchedStakeEngine.uniform(3, 5, config=FAST)
        assert engine.trials == 3
        assert engine.entry_shape == (5,)
        assert np.all(engine.stakes == FAST.max_effective_balance)
        assert np.all(engine.ejection_epoch == -1)

    def test_weights_broadcast_over_entry_shape(self):
        # A (n,)-shaped weighting broadcasts across a (2, n) entry shape.
        engine = BatchedStakeEngine(
            np.full((4, 2, 3), 32.0), weights=np.array([0.5, 0.25, 0.25])
        )
        assert engine.weights.shape == (2, 3)
        assert np.array_equal(engine.weights[0], engine.weights[1])


class TestBatchedMatchesPerTrialEngine:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_step_trajectories_bit_identical(self, backend):
        rng, stakes0 = make_states(seed=1)
        trials, n = stakes0.shape
        batched = BatchedStakeEngine(stakes0, config=FAST, backend=backend)
        singles = [
            StakeEngine(stakes0[t], config=FAST, backend=backend)
            for t in range(trials)
        ]
        for _ in range(120):
            active = rng.random((trials, n)) < 0.4
            leaks = rng.random(trials) < 0.8
            batched.step(active, in_leak=leaks)
            for t, engine in enumerate(singles):
                engine.step(active[t], in_leak=bool(leaks[t]))
        for t, engine in enumerate(singles):
            assert np.array_equal(batched.stakes[t], engine.stakes)
            assert np.array_equal(batched.scores[t], engine.scores)
            assert np.array_equal(batched.ejected[t], engine.ejected)
            assert batched.total_stake()[t] == engine.total_stake()
            for index, epoch in engine.ejection_epochs.items():
                assert batched.ejection_epoch[t, index] == epoch
            never = [
                i for i in range(n) if i not in engine.ejection_epochs
            ]
            assert np.all(batched.ejection_epoch[t, never] == -1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rewards_bit_identical(self, backend):
        rng, stakes0 = make_states(seed=2, trials=4, n=6)
        trials, n = stakes0.shape
        batched = BatchedStakeEngine(stakes0, config=MAINNET, backend=backend)
        singles = [
            StakeEngine(stakes0[t], config=MAINNET, backend=backend)
            for t in range(trials)
        ]
        for _ in range(10):
            active = rng.random((trials, n)) < 0.7
            leaks = rng.random(trials) < 0.3
            batched.apply_attestation_rewards(active, in_leak=leaks)
            for t, engine in enumerate(singles):
                engine.apply_attestation_rewards(active[t], in_leak=bool(leaks[t]))
        for t, engine in enumerate(singles):
            assert np.array_equal(batched.stakes[t], engine.stakes)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slashings_bit_identical(self, backend):
        rng, stakes0 = make_states(seed=3, trials=4, n=6)
        trials, n = stakes0.shape
        batched = BatchedStakeEngine(stakes0, config=MAINNET, backend=backend)
        singles = [
            StakeEngine(stakes0[t], config=MAINNET, backend=backend)
            for t in range(trials)
        ]
        slashable = rng.random((trials, n)) < 0.3
        batched.apply_slashings(slashable)
        for t, engine in enumerate(singles):
            engine.apply_slashings(slashable[t])
            assert np.array_equal(batched.stakes[t], engine.stakes)
            assert np.array_equal(batched.slashed[t], engine.slashed)
            assert np.array_equal(batched.ejected[t], engine.ejected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reductions_match_per_trial_engine(self, backend):
        rng, stakes0 = make_states(seed=4, trials=5, n=7)
        trials, n = stakes0.shape
        weights = rng.uniform(0.5, 1.5, n)
        batched = BatchedStakeEngine(
            stakes0, weights=weights, config=FAST, backend=backend
        )
        singles = [
            StakeEngine(stakes0[t], weights=weights, config=FAST, backend=backend)
            for t in range(trials)
        ]
        for _ in range(60):
            active = rng.random((trials, n)) < 0.3
            batched.step(active)
            for t, engine in enumerate(singles):
                engine.step(active[t])
        mask = rng.random((trials, n)) < 0.5
        active = rng.random((trials, n)) < 0.5
        for t, engine in enumerate(singles):
            assert batched.total_stake()[t] == engine.total_stake()
            assert batched.stake_of(mask)[t] == engine.stake_of(mask[t])
            assert batched.active_ratio(active)[t] == engine.active_ratio(active[t])

    def test_raw_stake_of_keeps_ejected_values(self):
        # The Monte-Carlo stopping rule reads the Byzantine stake *raw*:
        # it freezes at its ejection value instead of dropping to zero.
        stakes = np.array([[32.0, 16.0], [32.0, 20.0]])
        engine = BatchedStakeEngine(stakes, weights=np.array([0.5, 0.5]))
        engine.ejected[:, 1] = True
        mask = np.zeros((2, 2), dtype=bool)
        mask[:, 1] = True
        assert np.array_equal(engine.stake_of(mask), [0.0, 0.0])
        assert np.array_equal(engine.stake_of(mask, effective=False), [8.0, 10.0])

    def test_active_ratio_zero_total_is_zero(self):
        engine = BatchedStakeEngine(np.full((2, 3), 32.0), config=MAINNET)
        engine.ejected[0] = True  # trial 0 fully ejected -> zero total
        ratios = engine.active_ratio(np.ones((2, 3), dtype=bool))
        assert ratios[0] == 0.0
        assert ratios[1] == 1.0
