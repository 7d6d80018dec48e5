"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs ``run.py --toy`` for every workload of ``BENCHMARK.json``, untraced
and traced, and checks that each run exits 0, passes its correctness
checks, and emits exactly the metric names and units ``BENCHMARK.json``
lists.  It also checks that the benchmark refuses to run (non-zero exit,
no result line) in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Takes about a minute.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(cwd: pathlib.Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--trace", str(trace),
        "--toy",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int, expected: Dict[str, str]) -> List[str]:
    proc = run_benchmark(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks failed: {proc.stderr.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("no checks attempted")
    emitted = {name: metric["unit"] for name, metric in result.get("metrics", {}).items()}
    for name in sorted(set(expected) - set(emitted)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(emitted) - set(expected)):
        problems.append(f"unlisted metric {name}")
    for name in sorted(set(expected) & set(emitted)):
        if emitted[name] != expected[name]:
            problems.append(f"{name}: unit {emitted[name]!r}, listed {expected[name]!r}")
    return problems


def check_refuses_without_sources(workload: str) -> List[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    work_root = ROOT / ".perfbench"  # where run.py keeps its own working files
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                HERE,
                pathlib.Path(bare) / HERE.name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = run_benchmark(pathlib.Path(bare), workload, 0)
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without the program sources")
    if '"metrics"' in proc.stdout:
        problems.append("printed a result without the program sources")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    failed = False
    cases = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    for workload, trace in cases:
        problems = check_run(workload, trace, expected[trace])
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok'}  {workload} --trace {trace}")
        for problem in problems:
            print(f"      {problem}")
    problems = check_refuses_without_sources(spec["workloads"][0]["name"])
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'ok'}  refuses to run without src/")
    for problem in problems:
        print(f"      {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
