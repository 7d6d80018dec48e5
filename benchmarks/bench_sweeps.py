"""Benchmarks of the trial-parallel sweep engine and the result cache.

Two accountability gates for the PR-9 execution layer:

* **Parallel throughput** — a 64-trial balancing-attack sweep (128
  validators, 2 epochs) must run >=3x faster at ``jobs=4`` than serially,
  on byte-identical rows.  The speedup assertion needs real cores, so it
  is skipped (after still recording the measured numbers) on machines
  with fewer than 4 CPUs; the byte-identity assertion always runs.
* **Cache replay** — repeating the same sweep through the
  content-addressed result cache (one entry per trial) must be served
  from disk >=20x faster than the cold computation, again on
  byte-identical rows, with every trial a hit and nothing stored.

Timing results (trials/sec, parallel efficiency, cache hit rate) are
accumulated into the machine-readable ``BENCH_sweeps.json`` artifact
that CI uploads next to ``BENCH_slot_sim.json`` and ``BENCH_fig10.json``.
"""

import json
import os
import pathlib
import time

import pytest

from repro.cache import ResultCache
from repro.sim.sweeps import ScenarioSpec, run_sweep

N_TRIALS = 64
PARALLEL_JOBS = 4

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_sweeps.json"

#: The benchmark workload: one seeded balancing-attack scenario, heavy
#: enough (~100ms/trial) that dispatch overhead is noise but the whole
#: sweep still finishes in seconds.
SPEC = ScenarioSpec(
    builder="balancing",
    kwargs={"n_validators": 128, "byzantine_fraction": 0.2, "sway_delay": 2.0},
    epochs=2,
    seed="bench-sweeps",
)


def _record(section: str, payload: dict) -> None:
    """Merge one benchmark section into the JSON artifact (any test order)."""
    results = {}
    if RESULTS_PATH.exists():
        results = json.loads(RESULTS_PATH.read_text())
    results[section] = payload
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _timed_sweep(jobs):
    start = time.perf_counter()
    result = run_sweep([SPEC], N_TRIALS, jobs=jobs)
    return time.perf_counter() - start, result


def test_parallel_sweep_at_least_3x_faster():
    """The tentpole gate: >=3x at ``jobs=4`` on byte-identical rows."""
    serial_time, serial = _timed_sweep(jobs=1)
    parallel_time, parallel = _timed_sweep(jobs=PARALLEL_JOBS)
    # Identical rows first: parallelism must not change the sweep.
    assert json.dumps(serial.rows()) == json.dumps(parallel.rows())
    speedup = serial_time / parallel_time
    efficiency = speedup / PARALLEL_JOBS
    print(
        f"\nsweep ({N_TRIALS} trials, 128 validators, 2 epochs): "
        f"serial {serial_time:.2f}s ({N_TRIALS / serial_time:.1f} trials/s), "
        f"jobs={PARALLEL_JOBS} {parallel_time:.2f}s "
        f"({N_TRIALS / parallel_time:.1f} trials/s, {speedup:.2f}x, "
        f"{efficiency:.0%} efficiency)"
    )
    _record(
        "parallel",
        {
            "n_trials": N_TRIALS,
            "n_validators": 128,
            "epochs": 2,
            "jobs": PARALLEL_JOBS,
            "cpu_count": os.cpu_count(),
            "serial_seconds": serial_time,
            "parallel_seconds": parallel_time,
            "serial_trials_per_second": N_TRIALS / serial_time,
            "parallel_trials_per_second": N_TRIALS / parallel_time,
            "speedup": speedup,
            "parallel_efficiency": efficiency,
        },
    )
    if (os.cpu_count() or 1) < PARALLEL_JOBS:
        pytest.skip(
            f"speedup gate needs >= {PARALLEL_JOBS} cores "
            f"(found {os.cpu_count()}); rows verified and timings recorded"
        )
    assert speedup >= 3.0


def test_cache_replay_at_least_20x_faster(tmp_path):
    """The cache gate: a repeated sweep is a disk read, >=20x faster."""
    start = time.perf_counter()
    cold = run_sweep([SPEC], N_TRIALS, ResultCache(tmp_path), jobs=1)
    cold_time = time.perf_counter() - start
    cache = ResultCache(tmp_path)
    start = time.perf_counter()
    warm = run_sweep([SPEC], N_TRIALS, cache, jobs=1)
    warm_time = time.perf_counter() - start
    assert cache.stats.hits == N_TRIALS
    assert cache.stats.stores == 0
    # Replay must be indistinguishable from the computation.
    assert json.dumps(cold.rows()) == json.dumps(warm.rows())
    speedup = cold_time / warm_time
    print(
        f"\ncache replay ({N_TRIALS} trials): cold {cold_time:.2f}s, "
        f"warm {warm_time * 1e3:.1f}ms ({speedup:.0f}x), "
        f"hit rate {cache.stats.hit_rate:.0%}"
    )
    _record(
        "cache",
        {
            "n_trials": N_TRIALS,
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "replay_speedup": speedup,
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "hit_rate": cache.stats.hit_rate,
        },
    )
    assert speedup >= 20.0
