"""Tests for the trial-parallel sweep engine (:mod:`repro.sim.sweeps`).

The headline contract: sweep rows are *byte-identical* at any ``jobs``
and ``chunk_size`` level, and a cached replay is byte-identical to the
cold computation — pinned here by comparing JSON serialisations, on both
the numpy and python stake backends.
"""

import json
import pickle

import pytest

from repro.cache import ResultCache
from repro.core.trials import DispatchCancelled
from repro.experiments import balancing_duration, registry
from repro.sim.sweeps import (
    SWEEP_CHUNK_SIZE,
    TRIAL_EXPERIMENT,
    ScenarioSpec,
    run_sweep,
    summarize_trial,
    trial_cache_query,
)

#: Small but non-trivial balancing-attack workload: 32 validators split
#: into 4 committees of 8, enough for proposer + swayer staffing.
BALANCING = ScenarioSpec(
    builder="balancing",
    kwargs={"n_validators": 32, "byzantine_fraction": 0.2, "sway_delay": 2.0},
    epochs=2,
    seed="test-sweep",
)


def rows_json(result) -> str:
    return json.dumps(result.rows())


class TestScenarioSpec:
    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(builder="no-such-builder")

    def test_non_positive_epochs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(builder="honest", epochs=0)

    def test_unknown_kwargs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="n_validatorz"):
            ScenarioSpec(builder="balancing", kwargs={"n_validatorz": 32})
        # Removed engine options fail here, not inside a worker.
        with pytest.raises(ValueError, match="merge_views"):
            ScenarioSpec(builder="balancing", kwargs={"merge_views": True})
        with pytest.raises(ValueError, match="merge_views"):
            BALANCING.with_overrides(merge_views=True)

    def test_trial_seed_is_a_pure_function_of_trial(self):
        assert BALANCING.trial_seed(None) == "test-sweep"
        assert BALANCING.trial_seed(0) == "test-sweep/trial-0"
        assert BALANCING.trial_seed(7) == "test-sweep/trial-7"

    def test_spec_pickles(self):
        clone = pickle.loads(pickle.dumps(BALANCING))
        assert clone == BALANCING
        assert clone.canonical() == BALANCING.canonical()

    def test_from_preset_and_overrides(self):
        spec = ScenarioSpec.from_preset("mainnet-healthy-10k", epochs=3, n_validators=16)
        assert spec.label == "mainnet-healthy-10k"
        assert spec.epochs == 3
        assert spec.kwargs["n_validators"] == 16
        smaller = spec.with_overrides(n_validators=8)
        assert smaller.kwargs["n_validators"] == 8
        assert spec.kwargs["n_validators"] == 16

    def test_from_preset_unknown(self):
        with pytest.raises(KeyError):
            ScenarioSpec.from_preset("no-such-preset")

    def test_name_falls_back_to_builder(self):
        assert ScenarioSpec(builder="honest").name == "honest"
        assert ScenarioSpec(builder="honest", label="x").name == "x"

    def test_build_runs_locally(self):
        spec = ScenarioSpec(builder="honest", kwargs={"n_validators": 8}, epochs=2)
        engine = spec.build(trial=0)
        result = engine.run(spec.epochs)
        row = summarize_trial(spec, 0, engine, result)
        # Rows are JSON-native scalars only: the cache round-trip contract.
        assert json.loads(json.dumps(row)) == row
        assert row["scenario"] == "honest"
        assert row["trial"] == 0
        assert row["n_validators"] == 8


class TestJobsInvariance:
    N_TRIALS = 4

    def test_rows_byte_identical_across_jobs(self):
        serial = run_sweep([BALANCING], self.N_TRIALS, jobs=1)
        parallel = run_sweep([BALANCING], self.N_TRIALS, jobs=2, chunk_size=2)
        assert rows_json(serial) == rows_json(parallel)

    def test_rows_byte_identical_across_chunk_sizes(self):
        coarse = run_sweep([BALANCING], self.N_TRIALS, jobs=1, chunk_size=SWEEP_CHUNK_SIZE)
        fine = run_sweep([BALANCING], self.N_TRIALS, jobs=1, chunk_size=1)
        assert rows_json(coarse) == rows_json(fine)

    def test_rows_byte_identical_on_python_backend(self):
        spec = BALANCING.with_overrides(backend="python")
        serial = run_sweep([spec], 2, jobs=1)
        parallel = run_sweep([spec], 2, jobs=2, chunk_size=1)
        assert rows_json(serial) == rows_json(parallel)

    def test_grid_rows_in_spec_major_order(self):
        specs = [
            ScenarioSpec(builder="honest", kwargs={"n_validators": 8}, label="a"),
            ScenarioSpec(builder="honest", kwargs={"n_validators": 12}, label="b"),
        ]
        result = run_sweep(specs, 2, jobs=2, chunk_size=1)
        assert [(row["scenario"], row["trial"]) for row in result.rows()] == [
            ("a", 0),
            ("a", 1),
            ("b", 0),
            ("b", 1),
        ]
        assert result.scenarios() == ["a", "b"]
        assert [spec["label"] for spec in result.specs] == ["a", "b"]

    def test_trials_are_seed_decorrelated_but_reproducible(self):
        result = run_sweep([BALANCING], 3, jobs=1)
        again = run_sweep([BALANCING], 3, jobs=1)
        assert rows_json(result) == rows_json(again)
        seeds = [row["seed"] for row in result.rows()]
        assert len(set(seeds)) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_sweep([BALANCING], 0)
        with pytest.raises(ValueError):
            run_sweep([], 2)


class TestSweepResult:
    def test_aggregate_reports_hold_statistics(self):
        result = run_sweep([BALANCING], 2, jobs=1)
        (summary,) = result.aggregate()
        assert summary["scenario"] == BALANCING.name
        assert summary["n_trials"] == 2
        assert 0 <= summary["min_balance_held_epochs"] <= summary["max_balance_held_epochs"]
        assert 0.0 <= summary["held_full_horizon_fraction"] <= 1.0
        assert "balancing" in result.format_text() or BALANCING.name in result.format_text()

    def test_rows_for_filters_by_scenario(self):
        specs = [
            ScenarioSpec(builder="honest", kwargs={"n_validators": 8}, label="a"),
            ScenarioSpec(builder="honest", kwargs={"n_validators": 8}, label="b"),
        ]
        result = run_sweep(specs, 2, jobs=1)
        assert len(result.rows_for("a")) == 2
        assert all(row["scenario"] == "a" for row in result.rows_for("a"))


class TestCachedSweeps:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_uncached_cold_and_warm_rows_byte_identical(self, tmp_path, jobs):
        specs = [BALANCING, BALANCING.with_overrides(sway_delay=0.0)]
        n_trials = 2
        live = run_sweep(specs, n_trials, jobs=jobs, chunk_size=1)
        cold_cache = ResultCache(tmp_path)
        cold = run_sweep(specs, n_trials, cold_cache, jobs=jobs, chunk_size=1)
        assert cold_cache.stats.stores == n_trials * len(specs)
        warm_cache = ResultCache(tmp_path)
        warm = run_sweep(specs, n_trials, warm_cache, jobs=jobs, chunk_size=1)
        assert warm_cache.stats.stores == 0
        assert warm_cache.stats.hits == n_trials * len(specs)
        assert rows_json(live) == rows_json(cold) == rows_json(warm)
        assert live.specs == cold.specs == warm.specs


class TestResumableSweeps:
    """Per-trial cache granularity: resume, grow, and cancel sweeps."""

    SPEC = ScenarioSpec(builder="honest", kwargs={"n_validators": 8}, epochs=2, seed="resume")

    def test_rows_match_the_plain_sweep_byte_for_byte(self, tmp_path):
        cache = ResultCache(tmp_path)
        resumable = run_sweep([self.SPEC], 3, cache, jobs=1)
        plain = run_sweep([self.SPEC], 3, jobs=1)
        assert rows_json(resumable) == rows_json(plain)
        assert cache.stats.stores == 3

    def test_replay_computes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep([self.SPEC], 3, cache, jobs=1)
        replay_cache = ResultCache(tmp_path)
        warm = run_sweep([self.SPEC], 3, replay_cache, jobs=1)
        assert replay_cache.stats.stores == 0
        assert replay_cache.stats.hits == 3
        assert rows_json(cold) == rows_json(warm)

    def test_grown_sweep_reuses_its_prefix(self, tmp_path):
        # Trial keys never include n_trials: extending a sweep computes
        # only the new tail.
        cache = ResultCache(tmp_path)
        small = run_sweep([self.SPEC], 2, cache, jobs=1)
        grow_cache = ResultCache(tmp_path)
        grown = run_sweep([self.SPEC], 5, grow_cache, jobs=1)
        assert grow_cache.stats.stores == 3
        assert rows_json(grown)[1:-1].startswith(rows_json(small)[1:-1])

    def test_trial_cache_query_is_n_trials_free(self):
        config, seed = trial_cache_query(self.SPEC, 4)
        assert config == {"spec": self.SPEC.canonical(), "trial": 4}
        assert seed == self.SPEC.trial_seed(4)

    def test_each_spec_is_canonicalised_once_per_sweep(self, tmp_path, monkeypatch):
        specs = [self.SPEC, self.SPEC.with_overrides(n_validators=12)]
        cold = run_sweep(specs, 3, ResultCache(tmp_path), jobs=1)
        calls = []
        canonical = ScenarioSpec.canonical

        def counting(spec):
            calls.append(spec)
            return canonical(spec)

        monkeypatch.setattr(ScenarioSpec, "canonical", counting)
        # A cold pass (fetch misses, then stores) and a warm one (hits).
        for cache_dir in (tmp_path / "cold", tmp_path):
            calls.clear()
            cache = ResultCache(cache_dir)
            result = run_sweep(specs, 3, cache, jobs=1)
            assert calls == specs
            assert rows_json(result) == rows_json(cold)
            # Every trial is stored or replayed under trial_cache_query's address.
            for spec in specs:
                for trial in range(3):
                    config, seed = trial_cache_query(spec, trial)
                    assert cache.contains(TRIAL_EXPERIMENT, config, seed)

    def test_progress_streams_resume_point_then_chunks(self, tmp_path):
        cache = ResultCache(tmp_path)
        # Pre-store one trial, then watch the counters stream.
        run_sweep([self.SPEC], 1, cache, jobs=1)
        events = []
        run_sweep(
            [self.SPEC],
            3,
            ResultCache(tmp_path),
            jobs=1,
            chunk_size=1,
            progress=lambda done, total, cached: events.append((done, total, cached)),
        )
        assert events == [(1, 3, 1), (2, 3, 1), (3, 3, 1)]

    def test_cancel_persists_finished_chunks_then_resumes(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(DispatchCancelled):
            run_sweep(
                [self.SPEC],
                4,
                cache,
                jobs=1,
                chunk_size=1,
                cancel=lambda: cache.stats.stores >= 2,
            )
        assert cache.stats.stores == 2
        resume_cache = ResultCache(tmp_path)
        resumed = run_sweep([self.SPEC], 4, resume_cache, jobs=1)
        # Only the missing half computed on resume...
        assert resume_cache.stats.stores == 2
        # ...and the result equals an uninterrupted run byte for byte.
        uninterrupted = run_sweep([self.SPEC], 4, ResultCache(tmp_path / "fresh"), jobs=1)
        assert rows_json(resumed) == rows_json(uninterrupted)

    def test_grid_rows_in_spec_major_order(self, tmp_path):
        specs = [
            ScenarioSpec(builder="honest", kwargs={"n_validators": 8}, label="a"),
            ScenarioSpec(builder="honest", kwargs={"n_validators": 12}, label="b"),
        ]
        cache = ResultCache(tmp_path)
        result = run_sweep(specs, 2, cache, jobs=1)
        assert [(row["scenario"], row["trial"]) for row in result.rows()] == [
            ("a", 0),
            ("a", 1),
            ("b", 0),
            ("b", 1),
        ]
        plain = run_sweep(specs, 2, jobs=1)
        assert rows_json(result) == rows_json(plain)

    def test_trial_entries_live_under_the_trial_experiment_id(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep([self.SPEC], 1, cache, jobs=1)
        config, seed = trial_cache_query(self.SPEC, 0)
        assert cache.fetch(TRIAL_EXPERIMENT, config, seed) is not None

    def test_invalid_arguments(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            run_sweep([self.SPEC], 0, cache)
        with pytest.raises(ValueError):
            run_sweep([], 2, cache)


class TestSpecCanonicalRoundTrip:
    def test_from_canonical_round_trips(self):
        spec = ScenarioSpec(
            builder="balancing",
            kwargs={"n_validators": 32, "byzantine_fraction": 0.2},
            epochs=3,
            seed="rt",
            label="case",
        )
        clone = ScenarioSpec.from_canonical(spec.canonical())
        assert clone == spec
        assert clone.canonical() == spec.canonical()

    def test_from_canonical_reinflates_spec_config(self):
        from repro.spec.config import SpecConfig

        spec = ScenarioSpec(
            builder="honest",
            kwargs={"n_validators": 8, "config": SpecConfig.mainnet()},
            epochs=2,
        )
        clone = ScenarioSpec.from_canonical(spec.canonical())
        assert clone.kwargs["config"] == SpecConfig.mainnet()
        assert clone.canonical() == spec.canonical()


class TestBalancingDurationExperiment:
    def test_smoke_and_row_shape(self):
        result = balancing_duration.run(
            committee_sizes=(8,),
            sway_delays=(0.0, 2.0),
            epochs=2,
            n_trials=2,
            jobs=1,
        )
        rows = result.rows()
        assert [(row["committee_size"], row["sway_delay"]) for row in rows] == [
            (8, 0.0),
            (8, 2.0),
        ]
        for row in rows:
            assert row["n_trials"] == 2
            assert 0 <= row["min_balance_held_epochs"] <= row["max_balance_held_epochs"] <= 2
            assert not row["any_safety_violated"]
        assert len(result.trial_rows()) == 4
        assert "hold duration" in result.format_text()

    def test_jobs_invariant(self):
        kwargs = dict(committee_sizes=(8,), sway_delays=(0.0,), epochs=2, n_trials=2)
        serial = balancing_duration.run(jobs=1, **kwargs)
        parallel = balancing_duration.run(jobs=2, **kwargs)
        assert json.dumps(serial.rows()) == json.dumps(parallel.rows())

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            balancing_duration.run(committee_sizes=())
        with pytest.raises(ValueError):
            balancing_duration.run(committee_sizes=(1,))
        with pytest.raises(ValueError):
            balancing_duration.run(sway_delays=(-1.0,))

    def test_registered_with_runner_options(self):
        experiment = registry.get("balancing-duration")
        accepted = experiment.accepted_options()
        assert "jobs" in accepted
        assert "seed" in accepted
        assert "n_trials" in accepted
        assert "backend" in accepted
        assert experiment.parallelizable
