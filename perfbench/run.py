"""The repository benchmark: end-to-end rates, or per-layer spans when traced.

    python3 perfbench/run.py --workload balancing-10k --seed 1 --seconds 18 --trace 0

Builds nothing: the program is the pure-Python package under ``src/`` of
the checkout this file sits in.  A run measures one workload (see
``workloads.py``) for about ``--seconds`` seconds, checks the program's
outputs, prints every metric by name with its unit, a JSON line stamping
the machine, and as the last line one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``attempted``/``failed`` count the correctness checks, so
``failed / attempted`` is the run's error rate.  With ``--trace 0`` the
metrics are the end-to-end ones (``throughput_per_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer spans and
counts of ``workloads.per_layer_units()``.  ``--toy`` shrinks every input
for the self-test (``selftest.py``).
"""

from __future__ import annotations

import time

#: Set-up probes count their imports from here.
STARTED = time.perf_counter()

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working files of running benchmarks (cache directories), removed on exit.
WORK_ROOT = ROOT / ".perfbench"
#: Fresh-interpreter set-up measurements per run; their median is ``setup_s``.
SETUP_PROBES = 3

END_TO_END_UNITS = {"throughput_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    # Internal: import and construct one repetition's inputs in this fresh
    # interpreter, print the seconds that took, and exit.
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_reps(rep: Callable[[int], Any], seconds: float) -> List[Any]:
    """``rep(0), rep(1), ...`` while at least half of the next one fits in ``seconds``."""
    results: List[Any] = []
    start = time.perf_counter()
    while True:
        results.append(rep(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) / 2 > seconds:
            return results


def measure_setup(args: argparse.Namespace, workdir: pathlib.Path) -> float:
    """Median over fresh interpreters of importing and building the inputs."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-probe", str(workdir),
    ] + (["--toy"] if args.toy else [])
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(command, check=True, cwd=ROOT, capture_output=True, text=True)
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_stamp() -> Dict[str, Any]:
    import numpy

    from repro.cache import code_fingerprint

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
    }


def run(args: argparse.Namespace, workloads: Any, workdir: pathlib.Path) -> Dict[str, Any]:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir)
    checks = workloads.Checks()
    info: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }
    if args.trace:
        workload.prepare()
        rounds = timed_reps(lambda k: workload.trace_round(checks, k), args.seconds)
        workload.check(checks, [rep for _, reps in rounds for rep in reps])
        units = workloads.per_layer_units()
        values = {name: statistics.median(m[name] for m, _ in rounds) for name in units}
        # Result counts come from the first round's input, so they repeat
        # exactly for a given seed.
        values.update({name: rounds[0][0][name] for name in workloads.SLOT_SIM_COUNTS})
        info["rounds"] = len(rounds)
    else:
        setup_s = measure_setup(args, workdir)
        workload.prepare()
        reps = timed_reps(workload.rep, args.seconds)
        workload.check(checks, reps)
        units = END_TO_END_UNITS
        values = {
            # Work over time summed across repetitions: the slot simulations
            # draw new inputs per repetition, and this weighs each by its cost.
            "throughput_per_s": sum(rep.units for rep in reps) / sum(rep.seconds for rep in reps),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        info["reps"] = len(reps)
        info["rep_units"] = reps[0].units
        info["rep_seconds"] = [rep.seconds for rep in reps]
    info["checks_attempted"] = checks.attempted
    info["checks_failed"] = checks.failures
    return {
        "info": info,
        "result": {
            "correct": not checks.failures,
            "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        imported = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.toy, pathlib.Path(args.setup_probe)
        )
        start = time.perf_counter()
        workload.probe()
        print(imported - STARTED + time.perf_counter() - start)
        return 0

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        report = run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # left alone while another run still uses it
        except OSError:
            pass

    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for failure in report["info"]["checks_failed"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"machine": machine_stamp(), "run": report["info"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
