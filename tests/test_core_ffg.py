"""Tests for repro.core.ffg and the ``finality_epoch_update`` kernel pair.

The backend-equivalence suite proves the ``"numpy"`` and ``"python"``
finality kernels bit-identical across randomized vote patterns —
conflicting targets, non-justified sources, double votes, zero-stake
voters, empty epochs — both per call (link supports compared as exact
floats) and through multi-epoch drives with evolving justified state.
"""

import numpy as np
import pytest

from repro.core.backend import FinalityEvent, FinalityRules, get_backend
from repro.core.ffg import FlatVotePool, justified_at

RULES = FinalityRules(supermajority_fraction=2.0 / 3.0)
BACKENDS = ["numpy", "python"]


# ----------------------------------------------------------------------
# FlatVotePool
# ----------------------------------------------------------------------
class TestFlatVotePool:
    def test_first_vote_counts_second_is_rejected(self):
        pool = FlatVotePool()
        assert pool.add_vote(3, 0, "genesis", 1, "a")
        assert not pool.add_vote(3, 0, "genesis", 1, "b")  # double vote
        assert pool.vote_count(1) == 1
        assert pool.has_vote(1, 3)
        assert not pool.has_vote(1, 4)
        assert pool.link_count(1, 0, "genesis", "a") == 1
        assert pool.link_count(1, 0, "genesis", "b") == 0  # never tallied

    def test_same_validator_different_target_epochs_both_count(self):
        pool = FlatVotePool()
        assert pool.add_vote(0, 0, "g", 1, "a")
        assert pool.add_vote(0, 1, "a", 2, "b")
        assert pool.vote_count(1) == 1
        assert pool.vote_count(2) == 1

    def test_growth_beyond_initial_capacity(self):
        pool = FlatVotePool(initial_capacity=2)
        for validator in range(11):
            assert pool.add_vote(validator, 0, "g", 1, "a")
        assert pool.vote_count(1) == 11
        validators, source_epochs, source_roots, target_roots = pool.vote_arrays(1)
        assert validators.tolist() == list(range(11))
        assert set(source_epochs.tolist()) == {0}
        assert len({int(i) for i in source_roots.tolist()}) == 1
        assert len({int(i) for i in target_roots.tolist()}) == 1

    def test_incremental_stake_tallies_match_recomputation(self):
        rng = np.random.default_rng(5)
        stakes = rng.uniform(0.0, 32.0, 40)
        pool = FlatVotePool(stakes=stakes)
        votes = []
        for validator in range(40):
            target = "a" if rng.random() < 0.6 else "b"
            source = ("g", 0) if rng.random() < 0.8 else ("x", 1)
            pool.add_vote(validator, source[1], source[0], 2, target)
            votes.append((validator, source, target))
        for source_root, source_epoch in (("g", 0), ("x", 1)):
            for target in ("a", "b"):
                expected = sum(
                    stakes[v]
                    for v, source, tgt in votes
                    if source == (source_root, source_epoch) and tgt == target
                )
                got = pool.link_stake(2, source_epoch, source_root, target)
                assert got == pytest.approx(expected)
                assert pool.link_count(2, source_epoch, source_root, target) == sum(
                    1
                    for _, source, tgt in votes
                    if source == (source_root, source_epoch) and tgt == target
                )

    def test_link_stake_requires_stakes(self):
        pool = FlatVotePool()
        pool.add_vote(0, 0, "g", 1, "a")
        with pytest.raises(ValueError):
            pool.link_stake(1, 0, "g", "a")

    def test_clear_before_prunes_strictly_older_epochs(self):
        pool = FlatVotePool()
        for epoch in (1, 2, 3):
            pool.add_vote(0, 0, "g", epoch, f"r{epoch}")
        pool.clear_before(2)
        assert pool.vote_count(1) == 0
        assert pool.vote_arrays(1) is None
        assert pool.vote_count(2) == 1
        assert pool.vote_count(3) == 1
        assert sorted(pool.epochs()) == [2, 3]

    def test_root_interning_is_stable_and_ranks_follow_sort_order(self):
        pool = FlatVotePool()
        id_b = pool.intern_root("b")
        id_a = pool.intern_root("a")
        id_c = pool.intern_root("c")
        assert pool.intern_root("b") == id_b  # stable
        assert pool.lookup_root("a") == id_a
        assert pool.lookup_root("missing") is None
        assert pool.root_of(id_c) == "c"
        ranks = pool.root_ranks()
        assert ranks[id_a] < ranks[id_b] < ranks[id_c]
        # Interning another root invalidates and extends the cache.
        id_0 = pool.intern_root("0")
        assert pool.root_ranks()[id_0] == 0

    def test_target_root_ids_come_from_link_tallies(self):
        pool = FlatVotePool()
        pool.add_vote(0, 0, "g", 1, "a")
        pool.add_vote(1, 0, "g", 1, "b")
        pool.add_vote(2, 0, "wrong", 1, "a")
        targets = {pool.root_of(root_id) for root_id in pool.target_root_ids(1)}
        assert targets == {"a", "b"}
        assert len(list(pool.link_keys(1))) == 3
        assert pool.total_votes() == 3


# ----------------------------------------------------------------------
# Kernel equivalence: numpy vs python, bit for bit
# ----------------------------------------------------------------------
def random_scenario(rng, n_validators=48, force_big_roots=False):
    """One randomized finality_epoch_update input covering the edge cases."""
    stakes = rng.uniform(0.0, 33.0, n_validators)
    stakes[rng.random(n_validators) < 0.15] = 0.0  # zero-stake voters
    eligible = rng.random(n_validators) < 0.85
    epoch = int(rng.integers(1, 6))
    n_roots = 6
    justified_roots = {0: 0}
    for justified_epoch in range(1, epoch):
        if rng.random() < 0.7:
            justified_roots[justified_epoch] = int(rng.integers(0, n_roots))
    n_votes = int(rng.integers(0, n_validators + 1))
    voters = rng.choice(n_validators, size=n_votes, replace=False).astype(np.int64)
    source_epochs = rng.integers(0, epoch + 1, n_votes).astype(np.int64)
    source_roots = rng.integers(0, n_roots, n_votes).astype(np.int64)
    target_roots = rng.integers(0, 4, n_votes).astype(np.int64)
    if n_votes and rng.random() < 0.7:
        # Concentrate most votes on one link from a justified source so
        # supermajorities actually form: scattered votes alone never
        # clear the 2/3 threshold.
        canonical_source = max(e for e in justified_roots if e < epoch)
        canonical = rng.random(n_votes) < 0.9
        source_epochs[canonical] = canonical_source
        source_roots[canonical] = justified_roots[canonical_source]
        target_roots[canonical] = 0
    if force_big_roots and n_votes:
        # Root ids too sparse to pack into one int64 sort key: forces the
        # numpy backend onto its general lexsort path.
        target_roots = target_roots * (2 ** 40) + 2 ** 40
    if force_big_roots or rng.random() < 0.5:
        root_rank = None
    else:
        root_rank = np.asarray(rng.permutation(n_roots + 1), dtype=np.int64)
    return dict(
        vote_validators=voters,
        vote_source_epochs=source_epochs,
        vote_source_roots=source_roots,
        vote_target_roots=target_roots,
        stakes=stakes,
        eligible=eligible,
        rules=RULES,
        epoch=epoch,
        total_stake=float(np.sum(np.where(eligible, stakes, 0.0))),
        justified_roots=justified_roots,
        finalized_epoch=0,
        root_rank=root_rank,
    )


class TestKernelEquivalence:
    def test_randomized_vote_patterns_bit_identical(self):
        rng = np.random.default_rng(11)
        numpy_kernel = get_backend("numpy")
        python_kernel = get_backend("python")
        justified_count = 0
        for _ in range(60):
            scenario = random_scenario(rng)
            update_np = numpy_kernel.finality_epoch_update(**scenario)
            update_py = python_kernel.finality_epoch_update(**scenario)
            # Exact float equality: the supports must be bit-identical.
            assert update_np.link_supports == update_py.link_supports
            assert update_np.events == update_py.events
            justified_count += len(update_np.events)
        assert justified_count > 0  # the patterns actually justify sometimes

    def test_lexsort_fallback_matches_loop_reference(self):
        rng = np.random.default_rng(13)
        numpy_kernel = get_backend("numpy")
        python_kernel = get_backend("python")
        for _ in range(20):
            scenario = random_scenario(rng, force_big_roots=True)
            update_np = numpy_kernel.finality_epoch_update(**scenario)
            update_py = python_kernel.finality_epoch_update(**scenario)
            assert update_np.link_supports == update_py.link_supports
            assert update_np.events == update_py.events

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_epoch_produces_no_events(self, backend):
        kernel = get_backend(backend)
        empty = np.empty(0, dtype=np.int64)
        update = kernel.finality_epoch_update(
            empty,
            empty,
            empty,
            empty,
            np.ones(8),
            np.ones(8, dtype=bool),
            RULES,
            epoch=3,
            total_stake=8.0,
            justified_roots={0: 0},
            finalized_epoch=0,
        )
        assert update.events == []
        assert update.link_supports == {}
        assert update.justified == []
        assert update.finalized == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_supermajority_is_strict_and_sources_must_be_justified(self, backend):
        kernel = get_backend(backend)
        stakes = np.ones(9)
        eligible = np.ones(9, dtype=bool)
        # Exactly 2/3 of the stake: not a supermajority.
        update = kernel.finality_epoch_update(
            np.arange(6),
            np.zeros(6, dtype=np.int64),
            np.zeros(6, dtype=np.int64),
            np.full(6, 1, dtype=np.int64),
            stakes,
            eligible,
            RULES,
            epoch=1,
            total_stake=9.0,
            justified_roots={0: 0},
            finalized_epoch=0,
        )
        assert update.events == []
        assert update.link_supports[(0, 0, 1)] == 6.0
        # 7/9 from an *unjustified* source: still nothing.
        update = kernel.finality_epoch_update(
            np.arange(7),
            np.zeros(7, dtype=np.int64),
            np.full(7, 2, dtype=np.int64),  # root 2 is not the justified root
            np.full(7, 1, dtype=np.int64),
            stakes,
            eligible,
            RULES,
            epoch=1,
            total_stake=9.0,
            justified_roots={0: 0},
            finalized_epoch=0,
        )
        assert update.events == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_consecutive_justification_finalizes_source(self, backend):
        kernel = get_backend(backend)
        stakes = np.ones(9)
        eligible = np.ones(9, dtype=bool)
        update = kernel.finality_epoch_update(
            np.arange(7),
            np.full(7, 1, dtype=np.int64),
            np.full(7, 3, dtype=np.int64),
            np.full(7, 4, dtype=np.int64),
            stakes,
            eligible,
            RULES,
            epoch=2,
            total_stake=9.0,
            justified_roots={0: 0, 1: 3},
            finalized_epoch=0,
        )
        assert update.events == [
            FinalityEvent(
                target_epoch=2,
                target_root=4,
                source_epoch=1,
                source_root=3,
                finalizes_source=True,
            )
        ]
        assert update.justified == [(2, 4)]
        assert update.finalized == [(1, 3)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_justification_cascades_within_one_call(self, backend):
        """A target justified mid-loop can source a later target of the call.

        Root ranks order target 1 before target 2; seven validators justify
        target 1 from genesis, and seven others justify target 2 from the
        *same-epoch* checkpoint 1 — legal only because the first event is
        already visible to the second decision.
        """
        kernel = get_backend(backend)
        stakes = np.ones(21)
        eligible = np.ones(21, dtype=bool)
        update = kernel.finality_epoch_update(
            np.arange(14),
            np.array([0] * 7 + [1] * 7, dtype=np.int64),
            np.array([0] * 7 + [1] * 7, dtype=np.int64),
            np.array([1] * 7 + [2] * 7, dtype=np.int64),
            stakes,
            eligible,
            RULES,
            epoch=1,
            total_stake=9.0,  # 7/9 support clears the threshold for both
            justified_roots={0: 0},
            finalized_epoch=0,
        )
        assert [event.target_root for event in update.events] == [1, 2]
        # The second justification's source is epoch 1 itself — no
        # consecutive-epoch finalization (source epoch == target epoch).
        assert update.finalized == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_total_stake_never_justifies(self, backend):
        kernel = get_backend(backend)
        update = kernel.finality_epoch_update(
            np.arange(4),
            np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.int64),
            np.ones(4, dtype=np.int64),
            np.zeros(4),
            np.zeros(4, dtype=bool),
            RULES,
            epoch=1,
            total_stake=0.0,
            justified_roots={0: 0},
            finalized_epoch=0,
        )
        assert update.events == []

    def test_multi_epoch_drive_trajectories_identical(self):
        """Both kernels agree through evolving justified state over epochs."""
        rng = np.random.default_rng(23)
        n_validators = 64
        stakes = rng.uniform(1.0, 32.0, n_validators)
        eligible = rng.random(n_validators) < 0.9
        total = float(np.sum(np.where(eligible, stakes, 0.0)))
        epochs = []
        last_tip = (0, 0)  # (epoch, root) expected justified tip
        for epoch in range(1, 16):
            if epoch % 6 == 0:
                continue  # drought
            n_votes = int(rng.integers((9 * n_validators) // 10, n_validators + 1))
            voters = rng.choice(n_validators, size=n_votes, replace=False)
            pick = rng.random(n_votes)
            target_roots = np.where(pick < 0.9, 2 * epoch, 2 * epoch + 1)
            source_epochs = np.where(pick < 0.85, last_tip[0], 0)
            source_roots = np.where(pick < 0.85, last_tip[1], 0)
            last_tip = (epoch, 2 * epoch)
            epochs.append(
                (
                    epoch,
                    voters.astype(np.int64),
                    source_epochs.astype(np.int64),
                    source_roots.astype(np.int64),
                    target_roots.astype(np.int64),
                )
            )
        trajectories = {}
        for backend in BACKENDS:
            kernel = get_backend(backend)
            justified_roots = {0: 0}
            finalized_epoch = 0
            trajectory = []
            for epoch, voters, source_epochs, source_roots, target_roots in epochs:
                update = kernel.finality_epoch_update(
                    voters,
                    source_epochs,
                    source_roots,
                    target_roots,
                    stakes,
                    eligible,
                    RULES,
                    epoch=epoch,
                    total_stake=total,
                    justified_roots=justified_roots,
                    finalized_epoch=finalized_epoch,
                )
                for event in update.events:
                    justified_roots[event.target_epoch] = event.target_root
                    if event.finalizes_source:
                        finalized_epoch = event.source_epoch
                trajectory.append(
                    (epoch, update.events, sorted(update.link_supports.items()))
                )
            trajectories[backend] = (trajectory, justified_roots, finalized_epoch)
        assert trajectories["numpy"] == trajectories["python"]
        _, justified_roots, finalized_epoch = trajectories["numpy"]
        assert len(justified_roots) > 5
        assert finalized_epoch > 0


# ----------------------------------------------------------------------
# Ratio-threshold finality
# ----------------------------------------------------------------------
class TestRatioFinality:
    def test_justified_at_matches_tracker_threshold(self):
        assert justified_at(2.0 / 3.0, 2.0 / 3.0)  # inclusive, unlike links
        assert not justified_at(0.5, 2.0 / 3.0)
