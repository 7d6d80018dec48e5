"""Job execution for the experiment service.

The executor turns persisted job records into results:

* **Sweep jobs** run through :func:`repro.sim.sweeps.run_sweep` with the
  cache — per-trial granularity in the :class:`~repro.cache.ResultCache`, each
  finished chunk stored immediately and streamed into the job record's
  progress counters.  A job killed at any point (SIGKILL included)
  resumes on the next claim from exactly the trials already stored.
* **Experiment jobs** run a registered experiment through the exact
  cache address the CLI runner uses
  (:func:`repro.experiments.runner.run_cached_experiment`), so service
  jobs and ``repro-experiments --cache-dir`` runs replay each other's
  results.

Failures are retried within the job's attempt budget; per-job timeouts
are enforced between chunks via the cancellable dispatch
(:class:`~repro.core.trials.DispatchCancelled`); a graceful shutdown
(``cancel`` turning true) requeues the in-flight job with its attempt
refunded — the already-persisted chunks make the interruption free.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.cache import ResultCache
from repro.core.trials import DispatchCancelled
from repro.service.jobs import JobRecord, JobStore
from repro.sim.sweeps import SWEEP_CHUNK_SIZE, ScenarioSpec, run_sweep

#: How the worker loop sleeps between queue polls when idle.
DEFAULT_POLL_INTERVAL = 0.2


def execute_job(
    record: JobRecord,
    store: JobStore,
    cache: ResultCache,
    *,
    jobs: Optional[int] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> JobRecord:
    """Execute one claimed (``running``) job to its next state.

    Terminal outcomes: ``done`` (result attached to the record) or
    ``failed`` (attempt budget exhausted).  Non-terminal: back to
    ``queued``, either with the attempt consumed (retryable failure,
    timeout) or refunded (graceful shutdown via ``cancel``).
    """
    deadline = (
        time.monotonic() + record.timeout if record.timeout is not None else None
    )

    def timed_out() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def should_stop() -> bool:
        return (cancel is not None and cancel()) or timed_out()

    try:
        if record.kind == "sweep":
            result = _execute_sweep(record, store, cache, jobs, should_stop)
        elif record.kind == "experiment":
            result = _execute_experiment(record, store, cache)
        else:
            raise ValueError(f"unknown job kind {record.kind!r}")
    except DispatchCancelled:
        if timed_out():
            _retry_or_fail(
                record, store, f"attempt timed out after {record.timeout}s"
            )
        else:
            store.requeue(record, consume_attempt=False)
    except Exception as exc:  # noqa: BLE001 — job isolation: any failure retries
        _retry_or_fail(record, store, f"{type(exc).__name__}: {exc}")
    else:
        store.finish(record, result)
    return record


def _execute_sweep(
    record: JobRecord,
    store: JobStore,
    cache: ResultCache,
    jobs: Optional[int],
    should_stop: Callable[[], bool],
) -> Dict[str, Any]:
    spec = record.spec
    scenario_specs = [ScenarioSpec.from_canonical(entry) for entry in spec["specs"]]
    n_trials = int(spec["n_trials"])
    chunk_size = int(spec.get("chunk_size") or SWEEP_CHUNK_SIZE)

    def progress(done: int, total: int, cached: int) -> None:
        record.progress = {"total": total, "done": done, "cached": cached}
        store.save(record)  # heartbeat + the stream `watch` tails

    result = run_sweep(
        scenario_specs,
        n_trials,
        cache,
        jobs=jobs,
        chunk_size=chunk_size,
        progress=progress,
        cancel=should_stop,
    )
    return {
        "trial_rows": result.rows(),
        "specs": result.specs,
        "n_trials": n_trials,
    }


def _execute_experiment(
    record: JobRecord, store: JobStore, cache: ResultCache
) -> Dict[str, Any]:
    # Imported here: the runner imports the full experiment registry,
    # which sweep-only deployments never need to load.
    from repro.experiments.runner import run_cached_experiment

    record.progress = {"total": 1, "done": 0, "cached": 0}
    store.save(record)
    options = dict(record.spec.get("options") or {})
    payload, hit = run_cached_experiment(record.spec["experiment"], options, cache)
    record.progress = {"total": 1, "done": 1, "cached": int(hit)}
    return payload


def _retry_or_fail(record: JobRecord, store: JobStore, error: str) -> None:
    if record.attempts >= record.max_attempts:
        store.fail(record, error)
    else:
        store.requeue(record, error=error, consume_attempt=True)


def run_worker_loop(
    store: JobStore,
    cache: ResultCache,
    *,
    jobs: Optional[int] = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    idle_exit: bool = False,
    max_jobs: Optional[int] = None,
    cancel: Optional[Callable[[], bool]] = None,
    log: Optional[Callable[[str], Any]] = None,
) -> int:
    """Claim and execute queued jobs until stopped; returns jobs processed.

    Startup first runs :meth:`JobStore.recover`, requeueing jobs whose
    previous worker died — the restart half of kill-tolerance.  The loop
    then claims the oldest queued job, executes it (``jobs`` worker
    processes for its trial chunks), and repeats.  ``idle_exit`` returns
    when the queue drains (the scripted/CI mode); otherwise the loop
    polls every ``poll_interval`` seconds.  ``cancel`` turning true stops
    the loop; an in-flight job is requeued with its attempt refunded.
    """
    emit = log if log is not None else (lambda message: None)
    for record in store.recover():
        emit(f"recovered {record.job_id}: worker died, state now {record.state}")
    processed = 0
    while not (cancel is not None and cancel()):
        claimed = None
        for candidate in store.list_jobs(states=("queued",)):
            claimed = store.claim(candidate.job_id)
            if claimed is not None:
                break
        if claimed is None:
            if idle_exit:
                break
            time.sleep(poll_interval)
            continue
        emit(
            f"running {claimed.job_id} ({claimed.kind}, "
            f"attempt {claimed.attempts}/{claimed.max_attempts})"
        )
        execute_job(claimed, store, cache, jobs=jobs, cancel=cancel)
        emit(f"{claimed.job_id}: {claimed.state}")
        processed += 1
        if max_jobs is not None and processed >= max_jobs:
            break
    return processed
