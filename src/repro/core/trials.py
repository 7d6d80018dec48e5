"""Seeded, chunked, optionally-parallel task execution.

Every parallel workload in this package — Monte-Carlo trials, slot-sim
sweeps, closed-form grid maps — is one job: run picklable *units* of work
and flatten their results in plan order.  :func:`run_tasks` is the one
runner that does it, with two guarantees:

* **Determinism** — a unit plan is a pure function of its inputs, never
  of ``jobs``, and results are flattened in plan order.  A worker that
  draws only from its unit's own seed (a :class:`TrialChunk` spawned by
  :func:`plan_chunks`) or from its task content (a :class:`TaskChunk`
  from :func:`plan_task_chunks`) therefore gives identical results at any
  parallelism level: a parallel run equals a serial run bit for bit (the
  regression tests assert this).
* **Throughput** — units are dispatched to a process pool when ``jobs``
  asks for more than one worker, and workers receive whole units
  so the vectorized backends can batch every trial of a unit into one
  array program.  :func:`group_chunks` stacks contiguous trial chunks into
  larger kernel batches without touching the chunk plan, so batching is a
  pure throughput knob: results are independent of ``batch`` as well as
  ``jobs``.

A unit is anything with a ``size`` — the number of results its worker
must return.  :class:`PerTaskWorker` adapts a per-item function to the
unit interface for deterministic grid maps.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Default number of trials per chunk.  Fixed (never derived from ``jobs``)
#: so the chunk plan — and therefore every seeded result — is independent
#: of the parallelism level.
DEFAULT_CHUNK_SIZE = 64


class DispatchCancelled(RuntimeError):
    """A dispatch was cancelled before every unit completed.

    Raised by :func:`run_tasks` when a ``cancel`` predicate turns true.
    Units already delivered through ``on_unit_done`` are final — the
    experiment service persists each one as it arrives, so cancellation
    (graceful shutdown, job timeout) loses at most the in-flight units.
    """


@dataclass(frozen=True)
class TrialChunk:
    """A contiguous block of trial indices plus its spawned seed."""

    start: int
    size: int
    seed: np.random.SeedSequence

    @property
    def stop(self) -> int:
        return self.start + self.size

    def rng(self) -> np.random.Generator:
        """A fresh generator for this chunk's seed."""
        return np.random.default_rng(self.seed)


class ChunkGroup(list):
    """Contiguous trial chunks dispatched as one unit: a list plus ``size``."""

    @property
    def size(self) -> int:
        return sum(chunk.size for chunk in self)


@dataclass(frozen=True)
class TaskChunk:
    """A contiguous block of task descriptions plus its position.

    The task-generic counterpart of :class:`TrialChunk`: instead of a
    spawned seed it carries the tasks themselves — whatever picklable
    descriptions the caller enumerated (grid points, ``(scenario, trial)``
    pairs, …).  Workers that derive all randomness from the task content
    are deterministic whatever the chunking.
    """

    start: int
    tasks: Tuple[Any, ...]

    @property
    def size(self) -> int:
        return len(self.tasks)

    @property
    def stop(self) -> int:
        return self.start + len(self.tasks)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 serial, <=0 all cores."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def plan_chunks(
    n_trials: int, seed: int = 0, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> List[TrialChunk]:
    """Split ``n_trials`` into seeded chunks of at most ``chunk_size``.

    The plan is a pure function of ``(n_trials, seed, chunk_size)``.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    starts = list(range(0, n_trials, chunk_size))
    children = np.random.SeedSequence(seed).spawn(len(starts))
    return [
        TrialChunk(start=start, size=min(chunk_size, n_trials - start), seed=child)
        for start, child in zip(starts, children)
    ]


def group_chunks(chunks: Sequence[TrialChunk], batch: int) -> List[ChunkGroup]:
    """Group contiguous chunks so each group holds at most ``batch`` trials.

    Grouping never splits a chunk and never reorders: each group is a run
    of consecutive chunks whose combined size fits ``batch`` (a single
    oversized chunk still forms its own group).  Because the chunk plan —
    and with it every per-chunk seed — is untouched, a worker that draws
    from each chunk's own generator produces the same per-trial streams
    whatever ``batch`` is; grouping only widens the kernel batch.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    groups: List[ChunkGroup] = []
    current = ChunkGroup()
    current_size = 0
    for chunk in chunks:
        if current and current_size + chunk.size > batch:
            groups.append(current)
            current = ChunkGroup()
            current_size = 0
        current.append(chunk)
        current_size += chunk.size
    if current:
        groups.append(current)
    return groups


def plan_task_chunks(
    tasks: Sequence[Any], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> List[TaskChunk]:
    """Split ``tasks`` into contiguous chunks of at most ``chunk_size``.

    The plan is a pure function of ``(tasks, chunk_size)`` — order is
    preserved and nothing is dropped or duplicated.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    tasks = list(tasks)
    return [
        TaskChunk(start=start, tasks=tuple(tasks[start : start + chunk_size]))
        for start in range(0, len(tasks), chunk_size)
    ]


class PerTaskWorker:
    """Adapts a per-task function ``fn(task, *args)`` to a :class:`TaskChunk` worker.

    Picklable whenever ``fn`` is (a module-level function or a
    ``functools.partial`` of one), so deterministic per-item grid maps run
    through :func:`run_tasks` like everything else.
    """

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def __call__(self, chunk: TaskChunk, *args: Any) -> List[Any]:
        return [self.fn(task, *args) for task in chunk.tasks]


def run_tasks(
    worker: Callable[..., Sequence[Any]],
    units: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    worker_args: Tuple[Any, ...] = (),
    on_unit_done: Optional[Callable[[Any, List[Any]], None]] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> List[Any]:
    """Run ``worker(unit, *worker_args)`` for every unit; flatten in plan order.

    Serial below two workers, a ``ProcessPoolExecutor`` otherwise — so
    with ``jobs`` > 1 the worker, its arguments and every unit must be
    picklable.  Each unit's worker must return exactly ``unit.size``
    results (a :class:`ValueError` otherwise); the flattened output never
    depends on ``jobs``.

    ``on_unit_done(unit, results)`` is called once per unit, in plan
    order, as soon as the unit's results are available — the observation
    hook the experiment service uses to persist per-trial results and
    stream progress.  ``cancel()`` is polled between units; when it turns
    true the dispatch raises :class:`DispatchCancelled` (pending pool
    futures are cancelled; units already observed are final).
    """
    n_workers = min(resolve_jobs(jobs), len(units))
    pool = None
    if n_workers > 1:
        # Imported here so a serial process never loads the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=n_workers)
    futures: List[Future] = []
    flat: List[Any] = []
    try:
        if pool is not None:
            futures = [pool.submit(worker, unit, *worker_args) for unit in units]
        for index, unit in enumerate(units):
            if cancel is not None and cancel():
                raise DispatchCancelled(
                    f"dispatch cancelled after {index} of {len(units)} units"
                )
            results = list(
                futures[index].result() if futures else worker(unit, *worker_args)
            )
            if len(results) != unit.size:
                raise ValueError(
                    f"worker returned {len(results)} results for a unit of {unit.size}"
                )
            if on_unit_done is not None:
                on_unit_done(unit, results)
            flat.extend(results)
    finally:
        if pool is not None:
            for future in futures:
                future.cancel()
            pool.shutdown()
    return flat
