"""Importing the entry points leaves ``numpy.random`` unloaded.

Processes that never simulate -- the CLI, the artifact planner, a grid
coordinator -- must not pay ``numpy.random``'s import time and memory.  The
simulator loads it on the first stream it creates.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import repro.analysis.artifacts
import repro.cli
import repro.faas.grid
import repro.sim.rng

loaded = sorted(name for name in sys.modules if name.startswith("numpy.random"))
assert not loaded, loaded
repro.sim.rng.named_stream(0, "first")
assert "numpy.random" in sys.modules
print("lazy")
"""


def test_entry_points_do_not_import_numpy_random():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "lazy"
