"""Benchmarks of the resumable experiment service.

Two accountability gates for the PR-10 service layer:

* **Resume-only-missing** — growing a sweep job from 8 to 16 trials
  over the same per-trial cache must *compute* only the 8 new trials
  (``stats.stores == 8``) and must finish in well under the
  proportional cost of a cold 16-trial run.  This is the property that
  makes SIGKILL recovery cheap: finished trials are never redone.
* **Full replay** — resubmitting an identical job against a warm cache
  must be served from disk >=10x faster than the cold run, on
  byte-identical trial rows.

Timing results are accumulated into the machine-readable
``BENCH_service.json`` artifact that CI uploads next to
``BENCH_sweeps.json``.
"""

import json
import pathlib
import time

from repro.cache import ResultCache
from repro.service.executor import run_worker_loop
from repro.service.jobs import JobStore
from repro.sim.sweeps import ScenarioSpec

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_service.json"

#: The benchmark workload: the same seeded balancing-attack scenario
#: family as ``bench_sweeps``, scaled so one trial costs ~100ms.
SPEC = ScenarioSpec(
    builder="balancing",
    kwargs={"n_validators": 128, "byzantine_fraction": 0.2, "sway_delay": 2.0},
    epochs=2,
    seed="bench-service",
)
BASE_TRIALS = 8
GROWN_TRIALS = 16


def _run_job(store, cache, n_trials):
    record = store.submit(
        "sweep",
        {"specs": [SPEC.canonical()], "n_trials": n_trials, "chunk_size": 1},
    )
    start = time.perf_counter()
    run_worker_loop(store, cache, jobs=1, idle_exit=True)
    elapsed = time.perf_counter() - start
    final = store.get(record.job_id)
    assert final.state == "done"
    return elapsed, final


def test_resume_computes_only_missing_trials(tmp_path, bench_record):
    """The tentpole gate: growing 8 -> 16 trials stores exactly 8 more."""
    cache_dir = tmp_path / "cache"
    cold_cache = ResultCache(cache_dir)
    cold_time, cold = _run_job(JobStore(tmp_path / "svc-cold"), cold_cache, BASE_TRIALS)
    assert cold_cache.stats.stores == BASE_TRIALS

    grown_cache = ResultCache(cache_dir)
    grown_time, grown = _run_job(
        JobStore(tmp_path / "svc-grown"), grown_cache, GROWN_TRIALS
    )
    # Only the 8 new trials computed; the first 8 rows replayed from disk.
    assert grown_cache.stats.stores == GROWN_TRIALS - BASE_TRIALS
    assert grown.progress["cached"] == BASE_TRIALS
    assert (
        json.dumps(grown.result["trial_rows"][:BASE_TRIALS])
        == json.dumps(cold.result["trial_rows"])
    )
    per_trial_cold = cold_time / BASE_TRIALS
    per_trial_grown = grown_time / (GROWN_TRIALS - BASE_TRIALS)
    print(
        f"\nresume ({BASE_TRIALS} -> {GROWN_TRIALS} trials): cold "
        f"{cold_time:.2f}s ({per_trial_cold * 1e3:.0f}ms/trial), grown "
        f"{grown_time:.2f}s ({per_trial_grown * 1e3:.0f}ms/computed trial)"
    )
    bench_record(
        RESULTS_PATH,
        {
            "resume": {
                "base_trials": BASE_TRIALS,
                "grown_trials": GROWN_TRIALS,
                "cold_seconds": cold_time,
                "grown_seconds": grown_time,
                "stores_cold": BASE_TRIALS,
                "stores_grown": grown_cache.stats.stores,
                "seconds_per_cold_trial": per_trial_cold,
                "seconds_per_resumed_trial": per_trial_grown,
            },
        },
    )
    # The grown run must not pay for the cached prefix: its wall clock
    # stays below a cold 16-trial run (generous 1.5x slack on the
    # computed half to absorb scheduler noise).
    assert grown_time < per_trial_cold * (GROWN_TRIALS - BASE_TRIALS) * 1.5


def test_replay_of_finished_job_at_least_10x_faster(tmp_path, bench_record):
    """The replay gate: an identical resubmission is a disk read."""
    cache_dir = tmp_path / "cache"
    cold_time, cold = _run_job(
        JobStore(tmp_path / "svc-cold"), ResultCache(cache_dir), BASE_TRIALS
    )
    warm_cache = ResultCache(cache_dir)
    warm_time, warm = _run_job(JobStore(tmp_path / "svc-warm"), warm_cache, BASE_TRIALS)
    assert warm_cache.stats.stores == 0
    assert warm.progress["cached"] == BASE_TRIALS
    assert json.dumps(warm.result["trial_rows"]) == json.dumps(
        cold.result["trial_rows"]
    )
    speedup = cold_time / warm_time
    print(
        f"\nservice replay ({BASE_TRIALS} trials): cold {cold_time:.2f}s, "
        f"warm {warm_time * 1e3:.1f}ms ({speedup:.0f}x)"
    )
    bench_record(
        RESULTS_PATH,
        {
            "replay": {
                "n_trials": BASE_TRIALS,
                "cold_seconds": cold_time,
                "warm_seconds": warm_time,
                "replay_speedup": speedup,
            },
        },
    )
    assert speedup >= 10.0
