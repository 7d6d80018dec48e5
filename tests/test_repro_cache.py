"""Tests for the content-addressed result cache (:mod:`repro.cache`).

Covers the addressing contract (equal configs hash equal, any changed
ingredient — config, seed, code fingerprint — misses), the robustness
contract (corrupted entries recompute, never crash), and the runner-level
wiring (``--cache-dir`` replays an experiment's rows and report).
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro.cache import (
    ENTRY_VERSION,
    CacheStats,
    ResultCache,
    canonical_json,
    canonical_value,
    code_fingerprint,
    result_key,
)
from repro.experiments import registry
from repro.experiments.runner import build_parser, main, run_experiments


@dataclasses.dataclass
class DemoConfig:
    n: int
    name: str


class TestCanonicalisation:
    def test_json_native_values_pass_through(self):
        assert canonical_value({"a": 1, "b": [1.5, "x", None, True]}) == {
            "a": 1,
            "b": [1.5, "x", None, True],
        }

    def test_dataclasses_and_tuples_collapse(self):
        assert canonical_value(DemoConfig(3, "x")) == {"n": 3, "name": "x"}
        assert canonical_value((1, 2)) == [1, 2]
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_sets_are_order_deterministic(self):
        assert canonical_value({3, 1, 2}) == canonical_value({2, 3, 1})

    def test_numpy_scalars_collapse(self):
        assert canonical_value(np.int64(4)) == 4
        assert canonical_value(np.float64(0.5)) == 0.5

    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestKeyTypeCanonicalisation:
    """Mapping keys are type-encoded: distinct key types never collide."""

    FP = "0" * 32

    def test_int_str_and_bool_keys_key_separately(self):
        int_key = result_key("exp", {1: "x"}, fingerprint=self.FP)
        str_key = result_key("exp", {"1": "x"}, fingerprint=self.FP)
        bool_key = result_key("exp", {True: "x"}, fingerprint=self.FP)
        assert len({int_key, str_key, bool_key}) == 3

    def test_distinct_configs_round_trip_distinct_payloads(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint=self.FP)
        cache.store("exp", {1: "x"}, payload="int-config")
        cache.store("exp", {"1": "x"}, payload="str-config")
        cache.store("exp", {True: "x"}, payload="bool-config")
        assert cache.fetch("exp", {1: "x"}) == "int-config"
        assert cache.fetch("exp", {"1": "x"}) == "str-config"
        assert cache.fetch("exp", {True: "x"}) == "bool-config"

    def test_plain_string_keys_pass_through_untagged(self):
        # Ordinary payloads (summary rows, option dicts) canonicalise to
        # themselves — the byte-identity contract of the sweep rows.
        row = {"scenario": "honest", "trial": 3, "safety_violated": False}
        assert canonical_value(row) == row

    def test_tag_lookalike_string_keys_are_escaped(self):
        # A string key that *looks* like a tagged key must not collide
        # with the genuinely-typed key it imitates.
        assert canonical_json({"i:1": "x"}) != canonical_json({1: "x"})
        assert canonical_json({"s:a": "x"}) != canonical_json({"a": "x"})
        # Escaping is stable: equal inputs still give equal forms.
        assert canonical_json({"i:1": "x"}) == canonical_json({"i:1": "x"})

    def test_none_and_float_keys_are_distinct(self):
        forms = {
            canonical_json({key: "x"})
            for key in (None, 0, 0.0, False, "0", "None")
        }
        assert len(forms) == 6

    def test_version_was_bumped_for_the_key_change(self):
        # Entries written before the type-tagged canonicalisation are
        # orphaned by the version bump, never replayed under a new key.
        assert ENTRY_VERSION >= 2


class TestResultKey:
    FP = "0" * 32

    def test_equal_inputs_equal_keys(self):
        a = result_key("exp", {"x": (1, 2)}, seed=3, fingerprint=self.FP)
        b = result_key("exp", {"x": [1, 2]}, seed=3, fingerprint=self.FP)
        assert a == b

    def test_any_changed_ingredient_changes_the_key(self):
        base = result_key("exp", {"x": 1}, seed=3, fingerprint=self.FP)
        assert result_key("other", {"x": 1}, seed=3, fingerprint=self.FP) != base
        assert result_key("exp", {"x": 2}, seed=3, fingerprint=self.FP) != base
        assert result_key("exp", {"x": 1}, seed=4, fingerprint=self.FP) != base
        assert result_key("exp", {"x": 1}, seed=3, fingerprint="f" * 32) != base


class TestCodeFingerprint:
    def test_content_change_changes_fingerprint(self, tmp_path):
        (tmp_path / "mod.py").write_text("A = 1\n")
        before = code_fingerprint(tmp_path)
        (tmp_path / "mod.py").write_text("A = 2\n")
        assert code_fingerprint(tmp_path) != before

    def test_new_file_changes_fingerprint(self, tmp_path):
        (tmp_path / "mod.py").write_text("A = 1\n")
        before = code_fingerprint(tmp_path)
        (tmp_path / "extra.py").write_text("B = 1\n")
        assert code_fingerprint(tmp_path) != before

    def test_default_fingerprint_is_memoized(self):
        assert code_fingerprint() == code_fingerprint()


class TestResultCache:
    def test_store_then_fetch_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        cache.store("exp", {"x": 1}, seed=2, payload={"rows": [(1, 2)]})
        fetched = cache.fetch("exp", {"x": 1}, seed=2)
        assert fetched == {"rows": [[1, 2]]}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_config_seed_and_fingerprint_changes_miss(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        cache.store("exp", {"x": 1}, seed=2, payload=1)
        assert cache.fetch("exp", {"x": 2}, seed=2) is None
        assert cache.fetch("exp", {"x": 1}, seed=3) is None
        other_code = ResultCache(tmp_path, fingerprint="b" * 32)
        assert other_code.fetch("exp", {"x": 1}, seed=2) is None
        assert cache.stats.misses == 2

    def test_corrupted_entry_recomputes_and_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        key = cache.store("exp", {"x": 1}, payload={"v": 1})
        cache.path_for_key(key).write_text("{ truncated", encoding="utf-8")
        payload, hit = cache.fetch_or_compute("exp", {"x": 1}, lambda: {"v": 2})
        assert not hit
        assert payload == {"v": 2}
        assert cache.stats.corrupted == 1
        # The recompute replaced the bad entry: the next lookup hits.
        assert cache.fetch("exp", {"x": 1}) == {"v": 2}

    def test_wrong_version_and_wrong_key_count_as_corrupted(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        key = cache.store("exp", {"x": 1}, payload=1)
        path = cache.path_for_key(key)
        entry = json.loads(path.read_text())
        entry["version"] = ENTRY_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.fetch("exp", {"x": 1}) is None
        entry["version"] = ENTRY_VERSION
        entry["key"] = "0" * 32
        path.write_text(json.dumps(entry))
        assert cache.fetch("exp", {"x": 1}) is None
        assert cache.stats.corrupted == 2

    def test_fetch_or_compute_cold_equals_warm(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        payload = {"rows": [{"b": 1, "a": (1, 2)}], "report": "text"}
        cold, cold_hit = cache.fetch_or_compute("exp", {"x": 1}, lambda: payload)
        warm, warm_hit = cache.fetch_or_compute("exp", {"x": 1}, lambda: payload)
        assert not cold_hit and warm_hit
        assert json.dumps(cold) == json.dumps(warm)

    def test_stats_accounting(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        stats.hits, stats.misses = 3, 1
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75


class TestStoredNonePayload:
    """A stored ``None`` is a hit, not a permanent miss/recompute."""

    def test_fetch_or_compute_round_trips_none(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        calls = []

        def compute():
            calls.append(1)
            return None

        cold, cold_hit = cache.fetch_or_compute("exp", {"x": 1}, compute)
        warm, warm_hit = cache.fetch_or_compute("exp", {"x": 1}, compute)
        assert cold is None and warm is None
        assert not cold_hit and warm_hit
        # Computed exactly once: the second lookup was served from disk.
        assert calls == [1]
        assert cache.stats.stores == 1

    def test_stored_none_stats_are_consistent(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        cache.fetch_or_compute("exp", {"x": 1}, lambda: None)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 1, 1)
        cache.fetch_or_compute("exp", {"x": 1}, lambda: None)
        # The hit did not also count a miss or trigger a store.
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 1, 1)

    def test_contains_distinguishes_stored_none_from_absence(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        assert not cache.contains("exp", {"x": 1})
        cache.store("exp", {"x": 1}, payload=None)
        stats_before = (cache.stats.hits, cache.stats.misses)
        assert cache.contains("exp", {"x": 1})
        # contains() never skews the hit/miss accounting.
        assert (cache.stats.hits, cache.stats.misses) == stats_before


class TestTmpFileHygiene:
    """Atomic writes: unique tmp names, no litter after failures."""

    def test_failed_write_leaves_no_tmp_litter(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        key = cache.key_for("exp", {"x": 1})
        # A directory squatting on the entry path makes os.replace fail
        # after the tmp file was already written.
        cache.path_for_key(key).mkdir()
        with pytest.raises(OSError):
            cache.store("exp", {"x": 1}, payload=1)
        assert not list(tmp_path.glob("*.tmp*"))
        assert cache.stats.stores == 0

    def test_concurrent_same_key_stores_never_collide(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="a" * 32)
        errors = []

        def hammer(worker_id):
            try:
                for _ in range(20):
                    cache.store("exp", {"x": 1}, payload={"worker": worker_id})
            except Exception as exc:  # noqa: BLE001 — collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not list(tmp_path.glob("*.tmp*"))
        # Last writer wins with a fully-valid entry either way.
        payload = cache.fetch("exp", {"x": 1})
        assert payload in [{"worker": i} for i in range(4)]

    def test_interleaved_writers_each_produce_valid_entries(self, tmp_path):
        # Two caches (as two "processes") writing the same key: whoever
        # lands last, the entry must validate on read.
        first = ResultCache(tmp_path, fingerprint="a" * 32)
        second = ResultCache(tmp_path, fingerprint="a" * 32)
        first.store("exp", {"x": 1}, payload="first")
        second.store("exp", {"x": 1}, payload="second")
        assert first.fetch("exp", {"x": 1}) == "second"
        assert first.stats.corrupted == 0


class TestRunnerCacheWiring:
    def test_parser_accepts_cache_dir(self, tmp_path):
        args = build_parser().parse_args(["fig6", "--cache-dir", str(tmp_path)])
        assert args.cache_dir == tmp_path
        assert build_parser().parse_args(["fig6"]).cache_dir is None

    def test_repeated_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_experiments(["safety-bound"], cache=cache)
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        warm = run_experiments(["safety-bound"], cache=cache)
        assert cache.stats.hits == 1
        assert cold == warm

    def test_option_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiments(["balancing-duration"], cache=cache, trials=1, jobs=1)
        run_experiments(["balancing-duration"], cache=cache, trials=2, jobs=1)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_jobs_is_excluded_from_the_key(self, tmp_path):
        # Results are jobs-invariant by contract, so runs at different
        # parallelism levels must share one cache entry.
        cache = ResultCache(tmp_path)
        serial = run_experiments(["balancing-duration"], cache=cache, trials=1, jobs=1)
        parallel = run_experiments(["balancing-duration"], cache=cache, trials=1, jobs=2)
        assert cache.stats.hits == 1
        assert serial == parallel

    def test_cache_dir_path_constructs_cache(self, tmp_path):
        first = run_experiments(["safety-bound"], cache_dir=tmp_path)
        second = run_experiments(["safety-bound"], cache_dir=tmp_path)
        assert first == second
        assert list(tmp_path.glob("*.json"))

    def test_list_footer_states_every_experiment_replays(self, capsys):
        # Every experiment replays from --cache-dir, so --list states it
        # once in its footer rather than marking each row.
        assert main(["--list"]) == 0
        listing = capsys.readouterr().out
        rows, footer = listing.rstrip().rsplit("\n", 1)
        assert all(experiment_id in rows for experiment_id in registry.list_ids())
        assert "[cache]" not in rows
        assert "Every experiment replays from --cache-dir." in footer
