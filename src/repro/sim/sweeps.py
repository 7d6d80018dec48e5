"""Trial-parallel sweeps of the slot simulator.

PRs 4–8 made a *single* slot-sim trial fast; the remaining workloads —
attack-success sweeps, long-horizon timelines, the experiment service —
need *thousands* of seeded trials.  This module supplies the missing
execution layer:

* :class:`ScenarioSpec` — a picklable, declarative description of one
  scenario (builder name + keyword arguments + epochs + seed).  Worker
  processes receive the spec and construct their engines *locally*, so
  nothing heavier than a small dataclass ever crosses the process
  boundary — live ``Node``/transport graphs are neither picklable nor
  worth shipping.
* :func:`run_sweep` — N seeded trials of every spec in a grid, dispatched
  in chunks through the one task runner (:func:`repro.core.trials.run_tasks`).
  Each trial's engine seed is a pure function of ``(spec, trial index)``,
  so sweep rows are byte-identical at any ``jobs`` and ``chunk_size``
  level (pinned by ``tests/test_sim_sweeps.py`` on both backends).  Given
  a :class:`~repro.cache.ResultCache`, every ``(spec, trial)`` cell is its
  own cache entry, stored as soon as its chunk finishes, so an interrupted
  sweep resumes from exactly the trials already on disk, a grown sweep
  reuses its prefix, and a repeated sweep is a disk read.  The experiment
  service (:mod:`repro.service`) executes sweep jobs this way.
* :func:`summarize_trial` — reduces a full :class:`SimulationResult` to
  one flat JSON-native summary row (finalization lag, peak view count,
  safety/liveness flags, balance-held slots), the unit of storage for
  the content-addressed result cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cache import ResultCache, canonical_value
from repro.core.trials import TaskChunk, plan_task_chunks, run_tasks
from repro.sim.engine import SimulationEngine
from repro.sim.results import SimulationResult

#: Cache "experiment" id of one sweep trial.  Per-trial entries are keyed
#: on the spec's canonical form plus the trial index — deliberately *not*
#: on ``n_trials`` — so extending a sweep from 100 to 1000 trials, or
#: resuming one killed mid-run, recomputes only the missing trials.
TRIAL_EXPERIMENT = "sim-sweep-trial"

#: Default trials per dispatched chunk.  Sweep trials are heavyweight
#: (milliseconds to seconds each), so chunks are much smaller than the
#: Monte-Carlo default — enough to amortise dispatch, small enough to
#: balance load across workers.  Like the Monte-Carlo chunk size it is
#: fixed, never derived from ``jobs``; rows are chunking-invariant
#: regardless because each trial seeds itself from its own index.
SWEEP_CHUNK_SIZE = 4


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, picklable slot-sim scenario: the sweep work unit.

    ``builder`` names a scenario builder (a key of
    ``repro.sim.scenarios._PRESET_BUILDERS`` — ``"honest"``,
    ``"offline"``, ``"partitioned"``, ``"balancing"``,
    ``"behavior-mix"``); ``kwargs`` are its keyword arguments.  Keep
    ``kwargs`` declarative — numbers, strings, ``SpecConfig`` instances,
    latency-model *names* — so the spec pickles cheaply and canonicalises
    stably for cache keys.  Use :meth:`from_preset` to start from a
    :data:`~repro.sim.scenarios.SCENARIO_PRESETS` entry.

    Trial ``t`` of a sweep builds the engine with seed
    ``"{seed}/trial-{t}"`` (and a latency seed offset by ``t``), so every
    trial is reproducible in isolation and independent of how trials are
    chunked across workers.
    """

    builder: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    epochs: int = 2
    seed: str = "sweep"
    label: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.sim.scenarios import _PRESET_BUILDERS

        if self.builder not in _PRESET_BUILDERS:
            raise ValueError(
                f"unknown scenario builder {self.builder!r}; "
                f"expected one of {sorted(_PRESET_BUILDERS)}"
            )
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def from_preset(
        cls,
        preset: str,
        epochs: int = 2,
        seed: str = "sweep",
        label: Optional[str] = None,
        **overrides: Any,
    ) -> "ScenarioSpec":
        """A spec for a named :data:`~repro.sim.scenarios.SCENARIO_PRESETS` entry."""
        from repro.sim.scenarios import SCENARIO_PRESETS

        entry = SCENARIO_PRESETS.get(preset)
        if entry is None:
            raise KeyError(
                f"unknown scenario preset {preset!r}; "
                f"expected one of {sorted(SCENARIO_PRESETS)}"
            )
        kwargs = dict(entry["kwargs"])
        kwargs.update(overrides)
        return cls(
            builder=entry["builder"],
            kwargs=kwargs,
            epochs=epochs,
            seed=seed,
            label=label if label is not None else preset,
        )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Display/row label: the explicit label, else the builder name."""
        return self.label if self.label is not None else self.builder

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """A copy of this spec with builder kwargs replaced/added."""
        kwargs = dict(self.kwargs)
        kwargs.update(overrides)
        return replace(self, kwargs=kwargs)

    def trial_seed(self, trial: Optional[int]) -> str:
        """The engine seed of trial ``trial`` (the bare seed for ``None``)."""
        return self.seed if trial is None else f"{self.seed}/trial-{trial}"

    def build(self, trial: Optional[int] = None) -> SimulationEngine:
        """Construct this scenario's engine (for trial ``trial``).

        Called inside worker processes: the engine, its nodes and its
        transport exist only in the worker.  The trial index perturbs the
        duty seed and the latency seed; everything else comes verbatim
        from ``kwargs``.
        """
        from repro.sim.scenarios import _PRESET_BUILDERS

        kwargs = dict(self.kwargs)
        kwargs["seed"] = self.trial_seed(trial)
        if trial is not None:
            kwargs["latency_seed"] = int(kwargs.get("latency_seed", 0)) + trial
        return _PRESET_BUILDERS[self.builder](**kwargs)

    def canonical(self) -> Dict[str, Any]:
        """JSON-native description of this spec (cache-key material)."""
        return {
            "builder": self.builder,
            "kwargs": canonical_value(dict(self.kwargs)),
            "epochs": self.epochs,
            "seed": self.seed,
            "label": self.name,
        }

    @classmethod
    def from_canonical(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`canonical` form.

        The inverse the experiment service needs: job records store specs
        as canonical JSON, and workers reconstruct them on claim.  A
        ``config`` kwarg that canonicalised into a plain field dict is
        re-inflated into a :class:`~repro.spec.config.SpecConfig`; every
        other kwarg must already be JSON-native (the declarative-kwargs
        contract above).
        """
        kwargs = dict(data.get("kwargs") or {})
        config = kwargs.get("config")
        if isinstance(config, Mapping):
            from repro.spec.config import SpecConfig

            kwargs["config"] = SpecConfig(**config)
        return cls(
            builder=data["builder"],
            kwargs=kwargs,
            epochs=int(data.get("epochs", 2)),
            seed=str(data.get("seed", "sweep")),
            label=data.get("label"),
        )


# ----------------------------------------------------------------------
# Trial reduction
# ----------------------------------------------------------------------
def summarize_trial(
    spec: ScenarioSpec,
    trial: int,
    engine: SimulationEngine,
    result: SimulationResult,
) -> Dict[str, Any]:
    """Reduce one finished trial to a flat summary row.

    Rows contain only JSON-native scalars (str/int/float/bool), so a row
    survives the result cache's JSON round-trip byte-identically — the
    invariant that makes cold and cached sweeps indistinguishable.

    ``balance_held_epochs`` counts the leading epochs during which *no*
    honest node finalized anything — for the balancing attack, exactly
    how long the adversary kept the fork balanced (a healthy network
    shows its normal ~2-epoch startup lag here); for partition scenarios
    it is the familiar finalization stall.
    """
    held = 0
    for snapshot in result.snapshots:
        if max(snapshot.finalized_epoch_by_node.values(), default=0) > 0:
            break
        held += 1
    slots_per_epoch = engine.config.slots_per_epoch
    return {
        "scenario": spec.name,
        "trial": int(trial),
        "seed": spec.trial_seed(trial),
        "n_validators": len(engine.registry),
        "epochs": int(result.epochs_run),
        "max_finalized_epoch": int(result.max_finalized_epoch()),
        "min_finalized_epoch": int(result.min_finalized_epoch()),
        "finalization_lag": int(result.epochs_run - 1 - result.max_finalized_epoch()),
        "safety_violated": bool(result.safety_violated()),
        "liveness_held": bool(result.liveness_held()),
        "peak_view_count": int(result.peak_view_count),
        "split_events": len(result.split_events()),
        "merge_events": len(result.merge_events()),
        "balance_held_epochs": int(held),
        "balance_held_slots": int(held * slots_per_epoch),
        "slashed": len(result.slashed_indices),
    }


class _SweepWorker:
    """Picklable chunk worker: builds and runs each trial's engine locally.

    Receives ``(spec index, trial index)`` tasks; only the spec tuple
    crosses the process boundary (once, at pool fork/submit time).
    """

    def __init__(self, specs: Tuple[ScenarioSpec, ...]) -> None:
        self.specs = specs

    def __call__(self, chunk: TaskChunk) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        for spec_index, trial in chunk.tasks:
            spec = self.specs[spec_index]
            engine = spec.build(trial)
            result = engine.run(spec.epochs)
            rows.append(summarize_trial(spec, trial, engine, result))
        return rows


# ----------------------------------------------------------------------
# Sweep results
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """Flat summary rows of a (grid of) seeded slot-sim sweep(s)."""

    n_trials: int
    trial_rows: List[Dict[str, Any]]
    #: Canonical descriptions of the swept specs, in grid order.
    specs: List[Dict[str, Any]] = field(default_factory=list)

    def rows(self) -> List[Dict[str, Any]]:
        """All trial rows, in (spec, trial) order."""
        return list(self.trial_rows)

    def rows_for(self, scenario: str) -> List[Dict[str, Any]]:
        """The rows of one scenario label."""
        return [row for row in self.trial_rows if row["scenario"] == scenario]

    def scenarios(self) -> List[str]:
        """Distinct scenario labels, in first-appearance order."""
        seen: Dict[str, None] = {}
        for row in self.trial_rows:
            seen.setdefault(row["scenario"], None)
        return list(seen)

    def aggregate(self) -> List[Dict[str, Any]]:
        """Per-scenario summary: hold-duration stats and safety flags."""
        summaries = []
        for scenario in self.scenarios():
            rows = self.rows_for(scenario)
            held = [row["balance_held_epochs"] for row in rows]
            horizon = max(row["epochs"] for row in rows)
            summaries.append(
                {
                    "scenario": scenario,
                    "n_trials": len(rows),
                    "epochs": horizon,
                    "mean_balance_held_epochs": sum(held) / len(held),
                    "min_balance_held_epochs": min(held),
                    "max_balance_held_epochs": max(held),
                    "held_full_horizon_fraction": sum(
                        1 for row in rows if row["balance_held_epochs"] >= row["epochs"]
                    )
                    / len(rows),
                    "mean_peak_view_count": sum(row["peak_view_count"] for row in rows)
                    / len(rows),
                    "any_safety_violated": any(row["safety_violated"] for row in rows),
                    "all_liveness_held": all(row["liveness_held"] for row in rows),
                }
            )
        return summaries

    def format_text(self) -> str:
        lines = [
            f"Slot-sim sweep — {len(self.trial_rows)} trials over "
            f"{len(self.scenarios())} scenario(s)",
            f"  {'scenario':<28} {'trials':>6}  {'held (mean/min/max)':>20}  "
            f"{'P[held]':>8}  {'views':>6}",
        ]
        for summary in self.aggregate():
            lines.append(
                f"  {summary['scenario']:<28} {summary['n_trials']:>6d}  "
                f"{summary['mean_balance_held_epochs']:>8.2f}/"
                f"{summary['min_balance_held_epochs']:>3d}/"
                f"{summary['max_balance_held_epochs']:>3d}     "
                f"{summary['held_full_horizon_fraction']:>8.2f}  "
                f"{summary['mean_peak_view_count']:>6.1f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def trial_cache_query(spec: ScenarioSpec, trial: int) -> Tuple[Dict[str, Any], str]:
    """The ``(config, seed)`` cache address of one sweep trial.

    A pure function of ``(spec, trial)`` only — never of ``n_trials``,
    ``jobs`` or chunking — so any sweep over the same spec shares trial
    entries with any other, whatever its size or how it was interrupted.
    """
    return {"spec": spec.canonical(), "trial": int(trial)}, spec.trial_seed(trial)


def run_sweep(
    specs: Sequence[ScenarioSpec],
    n_trials: int,
    cache: Optional[ResultCache] = None,
    *,
    jobs: Optional[int] = None,
    chunk_size: int = SWEEP_CHUNK_SIZE,
    progress: Optional[Callable[[int, int, int], None]] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> SweepResult:
    """Run ``n_trials`` seeded trials of every spec; rows in (spec, trial) order.

    The (spec, trial) grid is flattened into tasks and dispatched in
    chunks through :func:`repro.core.trials.run_tasks`: workers rebuild
    engines from the picklable specs, run them, and return summary rows.
    Rows are byte-identical at any ``jobs``/``chunk_size`` because each
    trial's randomness comes only from ``(spec seed, trial index)``.

    With a ``cache``, every ``(spec, trial)`` cell is first looked up
    under :data:`TRIAL_EXPERIMENT`; only the missing cells are dispatched,
    and each finished chunk's rows are stored *immediately* — so a run
    killed at any point, SIGKILL included, resumes from exactly the trials
    already on disk.  Hits and fresh rows alike are JSON round-trips of
    the same summary rows, so cached, resumed and uncached sweeps return
    byte-identical rows.

    ``progress(done, total, cached)`` is called once up front (the resume
    point) and after every finished chunk.  ``cancel()`` is polled between
    chunks; cancellation propagates
    :class:`~repro.core.trials.DispatchCancelled` after the already-
    finished chunks were persisted — the graceful-shutdown contract.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    specs = tuple(specs)
    if not specs:
        raise ValueError("at least one ScenarioSpec is required")
    tasks = [
        (spec_index, trial)
        for spec_index in range(len(specs))
        for trial in range(n_trials)
    ]
    rows: Dict[Tuple[int, int], Dict[str, Any]] = {}
    pending: List[Tuple[int, int]] = tasks
    if cache is not None:
        pending = []
        for task in tasks:
            config, seed = trial_cache_query(specs[task[0]], task[1])
            payload = cache.fetch(TRIAL_EXPERIMENT, config, seed)
            if payload is None:  # rows are dicts, so None is unambiguous here
                pending.append(task)
            else:
                rows[task] = payload
    cached = len(rows)
    if progress is not None:
        progress(cached, len(tasks), cached)

    def record_chunk(chunk: TaskChunk, chunk_rows: List[Dict[str, Any]]) -> None:
        for task, row in zip(chunk.tasks, chunk_rows):
            if cache is not None:
                config, seed = trial_cache_query(specs[task[0]], task[1])
                cache.store(TRIAL_EXPERIMENT, config, seed=seed, payload=row)
                # The same round-trip a later hit performs, so resumed and
                # uninterrupted runs return byte-identical rows.
                row = json.loads(json.dumps(canonical_value(row)))
            rows[task] = row
        if progress is not None:
            progress(len(rows), len(tasks), cached)

    if pending:
        run_tasks(
            _SweepWorker(specs),
            plan_task_chunks(pending, chunk_size=chunk_size),
            jobs=jobs,
            on_unit_done=record_chunk,
            cancel=cancel,
        )
    return SweepResult(
        n_trials=n_trials,
        trial_rows=[rows[task] for task in tasks],
        specs=[spec.canonical() for spec in specs],
    )


#: Former name of :func:`run_sweep`, still imported by ``perfbench/``.
run_sweep_resumable = run_sweep
