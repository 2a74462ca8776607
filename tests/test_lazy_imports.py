"""Importing the entry points leaves ``numpy.random`` unloaded.

Processes that never simulate -- the CLI, the artifact planner, a grid
coordinator -- must not pay ``numpy.random``'s import time and memory.  The
simulator loads it on the first stream it creates.

The artifact path (planner, campaign, grid) also stays clear of the dev
tools, the HTTP server and the asyncio/ssl stack they pull in.
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


ARTIFACT_PATH_SCRIPT = """
import sys

import repro.analysis.artifacts
import repro.faas.campaign
import repro.faas.grid

banned = ("repro.devtools", "repro.serve", "asyncio", "ssl")
loaded = sorted(name for name in sys.modules
                if any(name == root or name.startswith(root + ".") for root in banned))
assert not loaded, loaded
print("lean")
"""


def run_script(script: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_entry_points_do_not_import_numpy_random():
    assert run_script(SCRIPT) == "lazy"


def test_artifact_path_does_not_import_devtools_server_or_asyncio():
    assert run_script(ARTIFACT_PATH_SCRIPT) == "lean"
