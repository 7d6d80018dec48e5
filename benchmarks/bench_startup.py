"""Start-up cost of the package: ``import repro`` in a fresh interpreter.

Every process that touches ``repro`` (the slot simulator, sweeps, the
service CLI, each pool worker) pays this before its first line of work.
scipy is loaded only by the closed-form root finds and the process pool
only by a parallel dispatch, so neither belongs to the import.

The gate asserts the module set only: no ``scipy`` module and no
``concurrent.futures.process`` after the import.  Wall time and
``ru_maxrss`` are recorded (median of ``PROBES`` fresh interpreters) into
``BENCH_startup.json`` without a threshold, next to the same probe after
the first root find has loaded ``scipy.optimize``; interpreter start-up
time is not included in either.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_startup.json"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PROBES = 5

PROBE = """
import json, resource, sys, time
start = time.perf_counter()
import repro
seconds = time.perf_counter() - start
heavy = sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.") or name == "concurrent.futures.process"
)
if {root_find}:
    from repro.analysis import crossing_epoch
    crossing_epoch(0.5, 0.33)
    seconds = time.perf_counter() - start
print(json.dumps({{
    "seconds": seconds,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "heavy_at_import": heavy,
}}))
"""


def _probe(root_find: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE.format(root_find=root_find)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _median_of_probes(root_find: bool) -> dict:
    runs = [_probe(root_find) for _ in range(PROBES)]
    for run in runs:
        assert run["heavy_at_import"] == []
    return {
        "probes": PROBES,
        "median_seconds": statistics.median(run["seconds"] for run in runs),
        "median_maxrss_mb": statistics.median(run["maxrss_mb"] for run in runs),
    }


def test_import_repro_loads_neither_scipy_nor_the_pool(bench_record):
    cold = _median_of_probes(root_find=False)
    first_root_find = _median_of_probes(root_find=True)
    print(
        f"\nimport repro: {cold['median_seconds'] * 1e3:.0f} ms, "
        f"{cold['median_maxrss_mb']:.0f} MB ru_maxrss; with the first root find: "
        f"{first_root_find['median_seconds'] * 1e3:.0f} ms, "
        f"{first_root_find['median_maxrss_mb']:.0f} MB"
    )
    bench_record(
        RESULTS_PATH,
        {"import_repro": cold, "import_repro_then_root_find": first_root_find},
    )
