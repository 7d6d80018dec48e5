"""``repro-service`` — the experiment-service command line.

Usage::

    repro-service submit --builder balancing --scenario-arg n_validators=64 \\
        --trials 32 --epochs 2 --seed prod --chunk-size 1
    repro-service submit --experiment fig6 --option n_points=5
    repro-service status
    repro-service watch <job-id>
    repro-service run-workers --jobs 4
    repro-service results <job-id> --json

All state lives under ``--service-dir`` (default ``.repro-service``):
the job queue in ``jobs/``, claim locks in ``locks/``, and the
content-addressed result cache in ``cache/`` (override with
``--cache-dir`` to share a cache with ``repro-experiments``).

``submit`` prints exactly the new job id, so scripts can capture it.
``watch`` tails the job record and prints a line whenever progress
changes.  ``run-workers`` processes the queue (``--idle-exit`` returns
once it drains — the scripted/CI mode) and handles SIGINT/SIGTERM by
requeueing the in-flight job; killing it with SIGKILL instead is also
safe — the next ``run-workers`` recovers the job and resumes from the
trials already cached.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import threading
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.cache import ResultCache
from repro.service.executor import DEFAULT_POLL_INTERVAL, run_worker_loop
from repro.service.jobs import DEFAULT_MAX_ATTEMPTS, JobRecord, JobStore
from repro.sim.sweeps import SWEEP_CHUNK_SIZE, ScenarioSpec, SweepResult

DEFAULT_SERVICE_DIR = pathlib.Path(".repro-service")


def _open_service(args: argparse.Namespace) -> Tuple[JobStore, ResultCache]:
    store = JobStore(args.service_dir)
    cache_dir = args.cache_dir if args.cache_dir is not None else args.service_dir / "cache"
    return store, ResultCache(cache_dir)


def _parse_kv(pairs: Sequence[str], option: str) -> Dict[str, Any]:
    """Parse repeated ``key=value`` flags; values are JSON when they parse."""
    parsed: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"{option} expects key=value, got {pair!r}")
        try:
            parsed[key] = json.loads(value)
        except ValueError:
            parsed[key] = value
    return parsed


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_submit(args: argparse.Namespace) -> int:
    store, _cache = _open_service(args)
    if args.experiment is not None:
        from repro.experiments import registry

        experiment = registry.get(args.experiment)  # raises on unknown ids
        options = _parse_kv(args.option, "--option")
        unknown = set(options) - set(experiment.accepted_options()) - {"jobs"}
        if unknown:
            raise SystemExit(
                f"experiment {args.experiment!r} does not accept "
                f"{sorted(unknown)}; accepted: "
                f"{sorted(experiment.accepted_options())}"
            )
        spec = {"experiment": args.experiment, "options": options}
        record = store.submit(
            "experiment",
            spec,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
        )
    else:
        kwargs = _parse_kv(args.scenario_arg, "--scenario-arg")
        try:
            if args.preset is not None:
                scenario = ScenarioSpec.from_preset(
                    args.preset, epochs=args.epochs, seed=args.seed, **kwargs
                )
            else:
                scenario = ScenarioSpec(
                    builder=args.builder,
                    kwargs=kwargs,
                    epochs=args.epochs,
                    seed=args.seed,
                    label=args.label,
                )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        spec = {
            "specs": [scenario.canonical()],
            "n_trials": args.trials,
            "chunk_size": args.chunk_size,
        }
        record = store.submit(
            "sweep", spec, max_attempts=args.max_attempts, timeout=args.timeout
        )
    print(record.job_id)
    return 0


def _progress_line(record: JobRecord) -> str:
    progress = record.progress or {}
    line = (
        f"{record.job_id} [{record.kind}] {record.state} "
        f"{progress.get('done', 0)}/{progress.get('total', 0)} trials "
        f"({progress.get('cached', 0)} cached) "
        f"attempt {record.attempts}/{record.max_attempts}"
    )
    if record.error:
        line += f" error: {record.error}"
    return line


def _cmd_status(args: argparse.Namespace) -> int:
    store, _cache = _open_service(args)
    if args.job_ids:
        records = [store.get(job_id) for job_id in args.job_ids]
    else:
        records = store.list_jobs()
    if not records:
        print("no jobs")
        return 0
    for record in records:
        print(_progress_line(record))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    store, _cache = _open_service(args)
    deadline = time.monotonic() + args.timeout if args.timeout is not None else None
    last = None
    while True:
        record = store.get(args.job_id)
        line = _progress_line(record)
        if line != last:
            print(line, flush=True)
            last = line
        if record.terminal:
            return 0 if record.state == "done" else 1
        if deadline is not None and time.monotonic() >= deadline:
            print(f"watch timed out after {args.timeout}s", file=sys.stderr)
            return 2
        time.sleep(args.interval)


def _cmd_run_workers(args: argparse.Namespace) -> int:
    store, cache = _open_service(args)
    shutdown = threading.Event()

    def handle_signal(signum: int, _frame: Any) -> None:
        print(
            f"received {signal.Signals(signum).name}; finishing the current "
            "chunk and requeueing in-flight work",
            flush=True,
        )
        shutdown.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, handle_signal)
    processed = run_worker_loop(
        store,
        cache,
        jobs=args.jobs,
        poll_interval=args.poll,
        idle_exit=args.idle_exit,
        max_jobs=args.max_jobs,
        cancel=shutdown.is_set,
        log=lambda message: print(message, flush=True),
    )
    print(f"processed {processed} job(s)")
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    store, _cache = _open_service(args)
    record = store.get(args.job_id)
    if record.state != "done":
        print(
            f"job {record.job_id} is {record.state}, not done"
            + (f" ({record.error})" if record.error else ""),
            file=sys.stderr,
        )
        return 1
    payload = record.result or {}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if record.kind == "sweep":
        result = SweepResult(
            n_trials=int(payload.get("n_trials", 0) or len(payload["trial_rows"])),
            trial_rows=payload["trial_rows"],
            specs=payload.get("specs") or [],
        )
        print(result.format_text())
    else:
        print(payload.get("report", ""))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--service-dir",
        type=pathlib.Path,
        default=DEFAULT_SERVICE_DIR,
        metavar="DIR",
        help="service state directory (default: .repro-service)",
    )
    common.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="result cache directory (default: <service-dir>/cache)",
    )

    parser = argparse.ArgumentParser(
        prog="repro-service",
        description=(
            "Long-lived experiment service: a crash-tolerant job queue with "
            "resumable sweep execution over the content-addressed result cache."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", parents=[common], help="enqueue a sweep or experiment job"
    )
    what = submit.add_mutually_exclusive_group(required=True)
    what.add_argument("--experiment", metavar="ID", help="registered experiment id")
    what.add_argument("--builder", metavar="NAME", help="scenario builder name")
    what.add_argument("--preset", metavar="NAME", help="scenario preset name")
    submit.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="K=V",
        help="experiment option (repeatable; values parsed as JSON)",
    )
    submit.add_argument(
        "--scenario-arg",
        action="append",
        default=[],
        metavar="K=V",
        help="scenario builder kwarg (repeatable; values parsed as JSON)",
    )
    submit.add_argument("--trials", type=int, default=8, metavar="N")
    submit.add_argument("--epochs", type=int, default=2, metavar="E")
    submit.add_argument("--seed", default="service", metavar="SEED")
    submit.add_argument("--label", default=None, metavar="LABEL")
    submit.add_argument(
        "--chunk-size", type=int, default=SWEEP_CHUNK_SIZE, metavar="C"
    )
    submit.add_argument(
        "--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS, metavar="A"
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget (checked between chunks)",
    )
    submit.set_defaults(func=_cmd_submit)

    status = commands.add_parser(
        "status", parents=[common], help="show job states and progress"
    )
    status.add_argument("job_ids", nargs="*", metavar="JOB")
    status.set_defaults(func=_cmd_status)

    watch = commands.add_parser(
        "watch", parents=[common], help="stream one job's progress until it ends"
    )
    watch.add_argument("job_id", metavar="JOB")
    watch.add_argument("--interval", type=float, default=0.2, metavar="SECONDS")
    watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up (exit 2) after this long without a terminal state",
    )
    watch.set_defaults(func=_cmd_watch)

    workers = commands.add_parser(
        "run-workers", parents=[common], help="process the job queue"
    )
    workers.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per sweep job's trial chunks",
    )
    workers.add_argument(
        "--poll", type=float, default=DEFAULT_POLL_INTERVAL, metavar="SECONDS"
    )
    workers.add_argument(
        "--idle-exit",
        action="store_true",
        help="exit once the queue is empty instead of polling forever",
    )
    workers.add_argument("--max-jobs", type=int, default=None, metavar="N")
    workers.set_defaults(func=_cmd_run_workers)

    results = commands.add_parser(
        "results", parents=[common], help="print a finished job's rows/report"
    )
    results.add_argument("job_id", metavar="JOB")
    results.add_argument(
        "--json", action="store_true", help="emit the raw result payload as JSON"
    )
    results.set_defaults(func=_cmd_results)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
