"""Import guard: a process loads only the code it runs.

scipy serves only the closed-form root finds of Sections 4-5 (Brent's
method in ``crossing_epoch`` and ``threshold_epoch_non_slashing``), and
the process pool only a parallel dispatch.  Importing the package, the
slot simulator, sweeps, the service CLI, the experiment runner or the
Monte-Carlo must load neither; the first root find loads scipy and
returns the same numbers as when scipy loaded at import time.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

#: Modules whose import must not pull in scipy or the process pool.
ENTRY_MODULES = (
    "repro",
    "repro.sim.scenarios",
    "repro.sim.sweeps",
    "repro.service.cli",
    "repro.experiments.runner",
    "repro.analysis.montecarlo",
)

PROBE = """
import json, sys
for name in {modules!r}:
    __import__(name)

def heavy():
    return sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
        or name == "concurrent.futures.process"
    )

at_import = heavy()
from repro.analysis import crossing_epoch, threshold_epoch_non_slashing, threshold_epoch_slashing
values = {{
    "threshold_epoch_slashing": threshold_epoch_slashing(0.5, 0.2),
    "crossing_epoch": [crossing_epoch(0.5, 0.33), crossing_epoch(0.3, 0.3)],
    "threshold_epoch_non_slashing": threshold_epoch_non_slashing(0.5, 0.2),
}}
print(json.dumps({{"at_import": at_import, "scipy_after": "scipy.optimize" in sys.modules,
                   "values": values}}))
"""

#: The closed forms as computed when scipy loaded at import time.
EXPECTED_VALUES = {
    "threshold_epoch_slashing": 3106.929116942058,
    "crossing_epoch": [2166.1856607433215, 4478.910547929728],
    "threshold_epoch_non_slashing": 3311.929512580394,
}


def run_probe() -> dict:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=ENTRY_MODULES)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_entry_points_load_neither_scipy_nor_the_process_pool():
    report = run_probe()
    assert report["at_import"] == []
    assert report["scipy_after"] is True
    assert report["values"] == EXPECTED_VALUES
