"""Command-line entry point: run reproduction experiments and print their tables.

Usage::

    repro-experiments --list
    repro-experiments table2 table3
    repro-experiments --all
    repro-experiments fig10-montecarlo --jobs 8 --seed 7
    repro-experiments fig10-montecarlo --jobs 0 --trials 1024 --record-every 250
    repro-experiments balancing-duration --jobs 4 --cache-dir .repro-cache

``--jobs``/``--seed``/``--trials``/``--record-every``/``--latency-model``
are forwarded to every selected experiment that accepts them (``--list``
marks those with ``[parallel]`` / ``[seeded]`` / ``[trials]`` /
``[curve]`` / ``[latency]``).
Seeded experiments produce identical results at any ``--jobs`` level: the
parallel trial runner (:mod:`repro.core.trials`) spawns per-chunk seeds
deterministically.

``--cache-dir`` adds a content-addressed result cache
(:mod:`repro.cache`): every experiment is a deterministic function of its
id, forwarded options and the implementing code, so a repeated invocation
replays the stored rows and report instead of recomputing (a ``[cache] N
hits, M misses`` summary line reports what the store served).  Editing any source file under ``repro`` invalidates the
affected entries automatically via the code fingerprint.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.cache import ResultCache
from repro.experiments import registry
from repro.experiments.export import _jsonable, export_csv, export_json
from repro.network.latency import LATENCY_MODEL_NAMES


def _format_result(result: object) -> str:
    """Render an experiment result as text (every result has format_text)."""
    formatter = getattr(result, "format_text", None)
    if callable(formatter):
        return str(formatter())
    return repr(result)


def _result_payload(result: object) -> Dict[str, Any]:
    """The stored essence of a result: its rows and rendered report."""
    rows_method = getattr(result, "rows", None)
    rows = rows_method() if callable(rows_method) else []
    return {
        "rows": [_jsonable(row) for row in rows],
        "report": _format_result(result),
    }


class CachedResult:
    """An experiment result replayed from the content-addressed cache.

    Exposes the same ``rows()`` / ``format_text()`` surface the export
    and report paths consume, backed by the stored payload — so a cache
    hit flows through the runner identically to a fresh computation.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self._payload = payload

    def rows(self) -> List[Dict[str, Any]]:
        return self._payload.get("rows") or []

    def format_text(self) -> str:
        return str(self._payload.get("report", ""))


def experiment_cache_query(options: Dict[str, Any]) -> tuple:
    """The ``(config, seed)`` cache address of one experiment run.

    ``jobs`` is deliberately excluded — results are jobs-invariant by
    contract, so runs at different parallelism levels share entries.
    Shared by the CLI runner and the experiment service so a job
    submitted to the service replays a result the CLI computed (and
    vice versa).
    """
    key_options = {k: v for k, v in options.items() if k != "jobs"}
    return {"options": key_options}, key_options.get("seed")


def run_cached_experiment(
    experiment_id: str, options: Dict[str, Any], cache: ResultCache
) -> tuple:
    """Run one registered experiment through the result cache.

    Returns ``(payload, hit)`` where the payload is the experiment's
    rows + rendered report (see :func:`_result_payload`).
    """
    experiment = registry.get(experiment_id)
    config, seed = experiment_cache_query(options)
    return cache.fetch_or_compute(
        experiment_id,
        config,
        lambda: _result_payload(experiment.run(**options)),
        seed=seed,
    )


def run_experiments(
    experiment_ids: Sequence[str],
    output_dir: Optional[pathlib.Path] = None,
    formats: Sequence[str] = ("json", "csv"),
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    record_every: Optional[int] = None,
    batch: Optional[int] = None,
    backend: Optional[str] = None,
    latency_model: Optional[str] = None,
    latency_seed: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[pathlib.Path] = None,
) -> List[str]:
    """Run the requested experiments and return their textual reports.

    When ``output_dir`` is given, each result is also exported there as JSON
    and/or CSV (see :mod:`repro.experiments.export`).  ``jobs``, ``seed``,
    ``trials``, ``record_every``, ``batch``, ``backend``, ``latency_model``
    and ``latency_seed`` are passed through to experiments that accept
    them and silently ignored by the rest.

    With a ``cache`` (or ``cache_dir``), each experiment's rows
    and report are served from the content-addressed store when an entry
    matching (id, forwarded options, code fingerprint) exists, and stored
    after computing otherwise.  ``jobs`` is deliberately excluded from
    the cache key — results are jobs-invariant by contract, so runs at
    different parallelism levels share entries.
    """
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    runner_options = {
        "jobs": jobs,
        "seed": seed,
        "n_trials": trials,
        "record_every": record_every,
        "batch": batch,
        "backend": backend,
        "latency_model": latency_model,
        "latency_seed": latency_seed,
    }
    reports = []
    for experiment_id in experiment_ids:
        experiment = registry.get(experiment_id)
        accepted = experiment.accepted_options()
        options = {
            name: value
            for name, value in runner_options.items()
            if value is not None and name in accepted
        }
        if cache is not None:
            payload, _hit = run_cached_experiment(experiment_id, options, cache)
            result: object = CachedResult(payload)
        else:
            result = experiment.run(**options)
        reports.append(_format_result(result))
        if output_dir is not None:
            if "json" in formats:
                export_json(experiment_id, result, output_dir)
            if "csv" in formats:
                export_csv(experiment_id, result, output_dir)
    return reports


def _positive_int(value: str) -> int:
    """argparse type for options that must be strictly positive."""
    parsed = int(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Byzantine Attacks Exploiting "
            "Penalties in Ethereum PoS' (DSN 2024)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--output-dir",
        type=pathlib.Path,
        default=None,
        help="directory to export results (JSON + CSV) in addition to printing them",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "both"),
        default="both",
        help="export format used with --output-dir (default: both)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for experiments that parallelize "
            "(default: serial; 0 or negative: all cores; seeded results are "
            "identical at any level)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="root RNG seed for experiments that accept one (default: each experiment's own)",
    )
    parser.add_argument(
        "--trials",
        type=_positive_int,
        default=None,
        metavar="T",
        help=(
            "number of Monte-Carlo trials for experiments that accept one "
            "(default: each experiment's own)"
        ),
    )
    parser.add_argument(
        "--record-every",
        type=_positive_int,
        default=None,
        metavar="E",
        help=(
            "record-epoch spacing of exceed-probability curves for "
            "experiments that accept one (default: each experiment's own)"
        ),
    )
    parser.add_argument(
        "--batch",
        type=_positive_int,
        default=None,
        metavar="B",
        help=(
            "trials stacked into one kernel batch for Monte-Carlo "
            "experiments (default: a cache-budgeted width; results are "
            "identical at any batch)"
        ),
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "stake-dynamics kernel for experiments that accept one: "
            "numpy or python "
            "(default: each experiment's own)"
        ),
    )
    parser.add_argument(
        "--latency-model",
        choices=LATENCY_MODEL_NAMES,
        default=None,
        metavar="MODEL",
        help=(
            "network latency model for experiments that run the slot "
            "simulator: "
            + ", ".join(LATENCY_MODEL_NAMES)
            + " (default: the uniform-delay network of the paper)"
        ),
    )
    parser.add_argument(
        "--latency-seed",
        type=int,
        default=None,
        metavar="S",
        help="RNG seed of the latency model (default: 0)",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help=(
            "content-addressed result cache: replay stored rows/reports for "
            "repeated (experiment, options, code) invocations; entries are "
            "invalidated automatically when any repro source file changes"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in registry.list_ids():
            experiment = registry.get(experiment_id)
            accepted = experiment.accepted_options()
            markers = "".join(
                f" [{label}]"
                for option, label in (
                    ("jobs", "parallel"),
                    ("seed", "seeded"),
                    ("n_trials", "trials"),
                    ("record_every", "curve"),
                    ("batch", "batch"),
                    ("backend", "backend"),
                    ("latency_model", "latency"),
                )
                if option in accepted
            )
            print(f"{experiment_id:<22} {experiment.description}{markers}")
        print()
        print(
            "[parallel] experiments honour --jobs; [seeded] ones --seed; "
            "[trials] ones --trials; [curve] ones --record-every; "
            "[batch] ones --batch; [backend] ones --backend; "
            "[latency] ones --latency-model/--latency-seed. "
            "Every experiment replays from --cache-dir."
        )
        return 0

    experiment_ids = list(args.experiments)
    if args.all:
        experiment_ids = registry.list_ids()
    if not experiment_ids:
        parser.print_help()
        return 1

    formats = ("json", "csv") if args.format == "both" else (args.format,)
    cache = ResultCache(args.cache_dir) if args.cache_dir is not None else None
    for report in run_experiments(
        experiment_ids,
        output_dir=args.output_dir,
        formats=formats,
        jobs=args.jobs,
        seed=args.seed,
        trials=args.trials,
        record_every=args.record_every,
        batch=args.batch,
        backend=args.backend,
        latency_model=args.latency_model,
        latency_seed=args.latency_seed,
        cache=cache,
    ):
        print(report)
        print()
    if cache is not None:
        stats = cache.stats
        print(
            f"[cache] {stats.hits} hits, {stats.misses} misses, "
            f"{stats.stores} stores ({cache.cache_dir})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
