"""Backend-equivalence tests for the core stake-dynamics kernel.

The ``"numpy"`` and ``"python"`` backends must produce *bit-identical*
trajectories — the loop backend is the semantics oracle for the vectorized
one.  The suite covers the score floor, the ejection edge cases (exactly at
the balance, frozen after ejection), leak on/off, the fused vs staged
composition, and golden checks against the paper's reference numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.core.backend import (
    AUTO_BACKEND_THRESHOLD,
    NumpyBackend,
    PythonBackend,
    StakeRules,
    available_backends,
    get_backend,
    leak_mask,
)
from repro.core.stake_engine import FinalityTracker, StakeEngine
from repro.spec.config import SpecConfig
from repro.spec.inactivity import (
    discrete_ejection_epoch,
    discrete_stake_trajectory,
)

MAINNET = SpecConfig.mainnet()
FAST = MAINNET.with_overrides(inactivity_penalty_quotient=2 ** 14)


def run_both_backends(stakes, scores, active_per_epoch, config, in_leak=True):
    """Run the same trajectory on both backends; return both state tuples."""
    rules = StakeRules.from_config(config)
    states = {}
    for name in ("numpy", "python"):
        kernel = get_backend(name)
        s = np.array(stakes, dtype=float)
        sc = np.array(scores, dtype=float)
        ej = np.zeros(len(stakes), dtype=bool)
        history = []
        for active in active_per_epoch:
            outcome = kernel.epoch_update(
                s, sc, np.asarray(active, dtype=bool), ej, rules, in_leak=in_leak
            )
            s, sc, ej = outcome.stakes, outcome.scores, outcome.ejected
            history.append((s.copy(), sc.copy(), ej.copy(), outcome.newly_ejected.copy()))
        states[name] = history
    return states["numpy"], states["python"]


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ("numpy", "python")

    def test_get_backend_by_name_and_instance(self):
        numpy_backend = get_backend("numpy")
        assert isinstance(numpy_backend, NumpyBackend)
        assert get_backend(numpy_backend) is numpy_backend
        assert isinstance(get_backend("python"), PythonBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("fortran")

    def test_auto_backend_selects_by_population(self):
        assert isinstance(
            get_backend("auto", population=AUTO_BACKEND_THRESHOLD - 1), PythonBackend
        )
        assert isinstance(
            get_backend("auto", population=AUTO_BACKEND_THRESHOLD), NumpyBackend
        )
        with pytest.raises(ValueError):
            get_backend("auto")


class TestBitIdenticalTrajectories:
    def test_deterministic_patterns_bit_identical(self):
        rng = np.random.default_rng(7)
        n, epochs = 9, 300
        stakes = np.full(n, MAINNET.max_effective_balance)
        scores = np.zeros(n)
        activity = [rng.random(n) < 0.5 for _ in range(epochs)]
        numpy_history, python_history = run_both_backends(
            stakes, scores, activity, FAST
        )
        for (ns, nsc, nej, nnew), (ps, psc, pej, pnew) in zip(
            numpy_history, python_history
        ):
            assert np.array_equal(ns, ps)
            assert np.array_equal(nsc, psc)
            assert np.array_equal(nej, pej)
            assert np.array_equal(nnew, pnew)

    def test_score_floor_bit_identical(self):
        # Validators that are always active keep hitting the floor at zero.
        stakes = [32.0, 32.0, 20.0]
        scores = [0.0, 3.0, 1.0]
        activity = [[True, True, True]] * 10
        numpy_history, python_history = run_both_backends(
            stakes, scores, activity, MAINNET
        )
        final_numpy = numpy_history[-1]
        final_python = python_history[-1]
        assert np.array_equal(final_numpy[1], final_python[1])
        assert np.all(final_numpy[1] == 0.0)  # every score floored

    def test_out_of_leak_recovery_bit_identical(self):
        stakes = [32.0, 32.0]
        scores = [20.0, 2.0]
        activity = [[True, False]] * 5
        numpy_history, python_history = run_both_backends(
            stakes, scores, activity, MAINNET, in_leak=False
        )
        for (ns, nsc, _, _), (ps, psc, _, _) in zip(numpy_history, python_history):
            assert np.array_equal(ns, ps)
            assert np.array_equal(nsc, psc)
        # No penalties outside a leak.
        assert np.array_equal(numpy_history[-1][0], np.array(stakes))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        n=st.integers(min_value=1, max_value=12),
        epochs=st.integers(min_value=1, max_value=60),
        in_leak=st.booleans(),
    )
    def test_property_backends_agree(self, seed, n, epochs, in_leak):
        rng = np.random.default_rng(seed)
        stakes = rng.uniform(0.0, 32.0, size=n)
        scores = rng.integers(0, 50, size=n).astype(float)
        activity = [rng.random(n) < rng.uniform(0.1, 0.9) for _ in range(epochs)]
        numpy_history, python_history = run_both_backends(
            stakes, scores, activity, FAST, in_leak=in_leak
        )
        for (ns, nsc, nej, _), (ps, psc, pej, _) in zip(
            numpy_history, python_history
        ):
            assert np.array_equal(ns, ps)
            assert np.array_equal(nsc, psc)
            assert np.array_equal(nej, pej)


class TestEjectionEdgeCases:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_exactly_at_ejection_balance_is_ejected(self, backend):
        rules = StakeRules.from_config(MAINNET)
        kernel = get_backend(backend)
        stakes = np.array([constants.EJECTION_BALANCE_ETH, 32.0])
        outcome = kernel.epoch_update(
            stakes,
            np.zeros(2),
            np.array([True, True]),
            np.zeros(2, dtype=bool),
            rules,
        )
        assert outcome.newly_ejected.tolist() == [True, False]

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_ejected_validators_are_frozen(self, backend):
        rules = StakeRules.from_config(FAST)
        kernel = get_backend(backend)
        stakes = np.array([16.0])
        scores = np.array([100.0])
        ejected = np.zeros(1, dtype=bool)
        outcome = kernel.epoch_update(
            stakes, scores, np.array([False]), ejected, rules
        )
        assert bool(outcome.newly_ejected[0])
        frozen_stake = float(outcome.stakes[0])
        frozen_score = float(outcome.scores[0])
        # Further epochs leave the ejected validator untouched and never
        # re-eject it.
        again = kernel.epoch_update(
            outcome.stakes, outcome.scores, np.array([False]), outcome.ejected, rules
        )
        assert float(again.stakes[0]) == frozen_stake
        assert float(again.scores[0]) == frozen_score
        assert not bool(again.newly_ejected[0])

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_penalty_total_matches_burned_stake(self, backend):
        rules = StakeRules.from_config(MAINNET)
        kernel = get_backend(backend)
        stakes = np.array([32.0, 30.0, 10.0])
        scores = np.array([100.0, 0.0, 50.0])
        new_stakes, total = kernel.apply_penalties(
            stakes, scores, np.zeros(3, dtype=bool), rules
        )
        assert total == pytest.approx(float(np.sum(stakes - new_stakes)))
        assert total > 0.0

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_penalty_totals_can_be_disabled(self, backend):
        rules = StakeRules.from_config(MAINNET)
        kernel = get_backend(backend)
        kernel.track_penalty_totals = False
        tracked = get_backend(backend)
        stakes = np.array([32.0, 30.0])
        scores = np.array([100.0, 40.0])
        quiet, total = kernel.apply_penalties(
            stakes, scores, np.zeros(2, dtype=bool), rules
        )
        loud, loud_total = tracked.apply_penalties(
            stakes, scores, np.zeros(2, dtype=bool), rules
        )
        assert total == 0.0
        assert loud_total > 0.0
        assert np.array_equal(quiet, loud)  # only the reporting differs


class TestGoldenTrajectories:
    """The kernel reproduces the paper's reference numbers end to end."""

    def test_reference_trajectories_agree_across_backends(self):
        for behavior in ("active", "semi-active", "inactive"):
            numpy_trajectory = discrete_stake_trajectory(
                behavior, 500, backend="numpy"
            )
            python_trajectory = discrete_stake_trajectory(
                behavior, 500, backend="python"
            )
            assert numpy_trajectory == python_trajectory

    def test_paper_ejection_epochs_on_both_backends(self):
        for backend in ("numpy", "python"):
            inactive = discrete_ejection_epoch("inactive", backend=backend)
            assert abs(inactive - constants.PAPER_INACTIVE_EJECTION_EPOCH) / 4685 < 0.01

    def test_batched_update_matches_flat_update(self):
        # A (trials, n) batch must evolve exactly like each row separately.
        rng = np.random.default_rng(3)
        rules = StakeRules.from_config(FAST)
        kernel = get_backend("numpy")
        batch_stakes = rng.uniform(17.0, 32.0, size=(4, 6))
        batch_scores = rng.integers(0, 30, size=(4, 6)).astype(float)
        batch_active = rng.random((4, 6)) < 0.5
        batch_ejected = np.zeros((4, 6), dtype=bool)
        batched = kernel.epoch_update(
            batch_stakes, batch_scores, batch_active, batch_ejected, rules
        )
        for row in range(4):
            single = kernel.epoch_update(
                batch_stakes[row],
                batch_scores[row],
                batch_active[row],
                batch_ejected[row],
                rules,
            )
            assert np.array_equal(batched.stakes[row], single.stakes)
            assert np.array_equal(batched.scores[row], single.scores)
            assert np.array_equal(batched.ejected[row], single.ejected)


class TestStakeEngine:
    def test_engine_backends_bit_identical(self):
        rng = np.random.default_rng(11)
        engines = {
            name: StakeEngine.uniform(8, config=FAST, backend=name)
            for name in ("numpy", "python")
        }
        for _ in range(200):
            active = rng.random(8) < 0.5
            for engine in engines.values():
                engine.step(active)
        assert np.array_equal(engines["numpy"].stakes, engines["python"].stakes)
        assert np.array_equal(engines["numpy"].scores, engines["python"].scores)
        assert np.array_equal(engines["numpy"].ejected, engines["python"].ejected)
        assert engines["numpy"].ejection_epochs == engines["python"].ejection_epochs

    def test_engine_validates_inputs(self):
        with pytest.raises(ValueError):
            StakeEngine([])
        with pytest.raises(ValueError):
            StakeEngine([32.0, 32.0], weights=[1.0])
        engine = StakeEngine.uniform(3)
        with pytest.raises(ValueError):
            engine.step([True, False])  # wrong shape

    def test_effective_stake_and_ratio(self):
        engine = StakeEngine(
            [32.0, 32.0], weights=[0.25, 0.75], config=MAINNET, backend="numpy"
        )
        assert engine.total_stake() == pytest.approx(32.0)
        assert engine.active_ratio([True, False]) == pytest.approx(0.25)
        engine.ejected[1] = True
        assert engine.total_stake() == pytest.approx(8.0)
        assert engine.active_ratio([True, True]) == pytest.approx(1.0)

    def test_ejection_epochs_recorded(self):
        engine = StakeEngine.uniform(2, config=FAST)
        inactive = np.array([False, True])
        for _ in range(500):
            engine.step(~inactive)
            if engine.ejected.any():
                break
        # Only the inactive validator (index 1... active mask is ~inactive,
        # i.e. index 0 active) — the inactive one leaks and gets ejected.
        assert list(engine.ejection_epochs) == [1]


class TestFinalityTracker:
    def test_two_consecutive_justified_epochs_finalize(self):
        tracker = FinalityTracker.for_config(MAINNET)
        assert tracker.observe(0, 0.5) == (False, False)
        assert tracker.observe(1, 0.7) == (True, False)
        assert tracker.threshold_epoch == 1
        assert tracker.observe(2, 0.8) == (True, True)
        assert tracker.finalization_epoch == 2
        # Finalization is reported once.
        assert tracker.observe(3, 0.9) == (True, False)

    def test_interrupted_justification_does_not_finalize(self):
        tracker = FinalityTracker.for_config(MAINNET)
        tracker.observe(0, 0.7)
        tracker.observe(1, 0.5)
        tracker.observe(2, 0.7)
        assert tracker.finalization_epoch is None
        assert tracker.threshold_epoch == 0


class TestLeakMask:
    def test_scalar_flags_yield_no_mask(self):
        assert leak_mask(True, (3, 4)) is None
        assert leak_mask(False, (3, 4)) is None
        assert leak_mask(np.bool_(True), (3, 4)) is None
        assert leak_mask(np.asarray(True), (3, 4)) is None

    def test_prefix_mask_broadcasts_to_full_shape(self):
        mask = leak_mask([True, False], (2, 3))
        assert mask.shape == (2, 3)
        assert mask[0].all() and not mask[1].any()

    def test_full_shape_mask_passes_through(self):
        flags = np.array([[True, False], [False, True]])
        mask = leak_mask(flags, (2, 2))
        assert np.array_equal(mask, flags)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            leak_mask([True, False, True], (2, 4))


class TestPerTrialLeakFlags:
    """A (trials,) in_leak array must equal per-trial scalar stepping."""

    RULES = StakeRules.from_config(FAST)

    def _batch_state(self, seed=0, trials=6, n=9):
        rng = np.random.default_rng(seed)
        return (
            rng.uniform(16.5, 32.0, (trials, n)),
            rng.uniform(0.0, 60.0, (trials, n)),
            rng.random((trials, n)) < 0.5,
            rng.random((trials, n)) < 0.15,
            rng.random(trials) < 0.5,
        )

    @pytest.mark.parametrize("backend_name", ["numpy", "python"])
    def test_masked_epoch_update_matches_scalar_rows(self, backend_name):
        stakes, scores, active, ejected, leaks = self._batch_state()
        kernel = get_backend(backend_name)
        batched = kernel.epoch_update(
            stakes, scores, active, ejected, self.RULES, in_leak=leaks
        )
        for t in range(stakes.shape[0]):
            single = kernel.epoch_update(
                stakes[t], scores[t], active[t], ejected[t], self.RULES,
                in_leak=bool(leaks[t]),
            )
            assert np.array_equal(batched.stakes[t], single.stakes)
            assert np.array_equal(batched.scores[t], single.scores)
            assert np.array_equal(batched.ejected[t], single.ejected)
            assert np.array_equal(batched.newly_ejected[t], single.newly_ejected)

    @pytest.mark.parametrize("backend_name", ["numpy", "python"])
    def test_all_true_mask_equals_scalar_true(self, backend_name):
        stakes, scores, active, ejected, _ = self._batch_state(seed=3)
        kernel = get_backend(backend_name)
        masked = kernel.epoch_update(
            stakes, scores, active, ejected, self.RULES,
            in_leak=np.ones(stakes.shape[0], dtype=bool),
        )
        scalar = kernel.epoch_update(
            stakes, scores, active, ejected, self.RULES, in_leak=True
        )
        assert np.array_equal(masked.stakes, scalar.stakes)
        assert np.array_equal(masked.scores, scalar.scores)
        assert np.array_equal(masked.ejected, scalar.ejected)

    @pytest.mark.parametrize("backend_name", ["numpy", "python"])
    def test_masked_rewards_match_scalar_rows(self, backend_name):
        rng = np.random.default_rng(11)
        from repro.core.backend import RewardRules

        rules = RewardRules.from_config(FAST)
        trials, n = 5, 7
        stakes = rng.uniform(1.0, 32.0, (trials, n))
        correct = rng.random((trials, n)) < 0.6
        ineligible = rng.random((trials, n)) < 0.2
        leaks = np.array([True, False, True, False, True])
        kernel = get_backend(backend_name)
        batched = kernel.attestation_rewards_epoch_update(
            stakes, correct, ineligible, rules, in_leak=leaks
        )
        for t in range(trials):
            single = kernel.attestation_rewards_epoch_update(
                stakes[t], correct[t], ineligible[t], rules, in_leak=bool(leaks[t])
            )
            assert np.array_equal(batched.stakes[t], single.stakes)
            assert np.array_equal(batched.rewarded[t], single.rewarded)
            assert np.array_equal(batched.penalized[t], single.penalized)


class TestUnknownBackends:
    def test_unknown_backend_error_lists_known_names(self):
        with pytest.raises(ValueError, match="fortran.*numpy.*python"):
            get_backend("fortran")
