"""Benchmark-suite configuration.

Makes ``src/`` importable without installation.  The ``bench_*.py`` files
are performance gates; the paper's numbers are checked by the tier-1
ledger, ``tests/test_paper_numbers.py``.

Every ``BENCH_*.json`` artifact is written through :func:`_record` (the
``bench_record`` fixture), which stamps the machine the numbers came from.
"""

import json
import os
import pathlib
import platform
import sys

import numpy as np
import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def _record(path: pathlib.Path, entries: dict) -> None:
    """Merge ``entries`` into the JSON artifact at ``path``.

    Top-level keys in ``entries`` replace their old values and every other
    key is kept, so the tests writing one file may run in any order.  Each
    write stamps the file's ``env``: Python and numpy versions, CPU count
    and platform.
    """
    results = json.loads(path.read_text()) if path.exists() else {}
    results.update(entries)
    results["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    path.write_text(json.dumps(results, indent=2) + "\n")


@pytest.fixture
def bench_record():
    """The shared ``BENCH_*.json`` writer, :func:`_record`."""
    return _record
