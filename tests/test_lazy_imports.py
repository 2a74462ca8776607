"""Importing the entry points leaves ``numpy.random`` unloaded.

Processes that never simulate -- the CLI, the artifact planner, a grid
coordinator -- must not pay ``numpy.random``'s import time and memory.  The
simulator loads it on the first stream it creates.

The artifact path (planner, campaign, grid) also stays clear of the dev
tools, the HTTP server and the asyncio/ssl stack they pull in, and an ``ml``
cell runs without ``numpy.ma``.  Planning and running cells never loads the
WFD-net model (``repro.core.petri``/``repro.core.wfdnet``), and the CLI
loads only what its verb runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


ML_CELL_SCRIPT = """
import sys

from repro.faas.campaign import CampaignSpec, execute_job_inline

spec = CampaignSpec(benchmarks=("ml",), platforms=("aws",), seeds=(0,), burst_size=2)
execute_job_inline(spec.expand()[0])
assert "numpy.ma" not in sys.modules
print("no numpy.ma")
"""


MODEL_FREE_CELL_SCRIPT = """
import sys

import repro.analysis.artifacts
import repro.faas.grid
from repro.faas.campaign import CampaignSpec, execute_job_inline

spec = CampaignSpec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,), burst_size=2)
execute_job_inline(spec.expand()[0])
loaded = sorted(name for name in sys.modules
                if name in ("repro.core.petri", "repro.core.wfdnet"))
assert not loaded, loaded
print("model-free")
"""


VERB_SCRIPT = """
import sys

from repro.cli import main

assert main(sys.argv[1:]) == 0
banned = ("repro.devtools", "repro.serve", "asyncio", "ssl", "repro.core.petri")
loaded = sorted(name for name in sys.modules
                if any(name == root or name.startswith(root + ".") for root in banned))
assert not loaded, loaded
print("lean")
"""


CACHE_SERVED_SCRIPT = """
import sys

import repro.sim.noise
from repro.cli import main


def drawn(*args, **kwargs):
    raise AssertionError("the render drew a suspension curve")


repro.sim.noise.NoiseModel.suspension_curve = drawn
assert main(sys.argv[1:]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("numpy.random"))
assert not loaded, loaded
print("served")
"""


def run_script(script: str, *args: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
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


def test_an_ml_cell_does_not_import_numpy_ma():
    """The forest's tree grower avoids ``np.unique``/``np.median``, whose
    NaN and masked-array checks import ``numpy.ma`` in every cold worker."""
    assert run_script(ML_CELL_SCRIPT) == "no numpy.ma"


def test_planning_and_running_a_cell_do_not_import_the_wfdnet_model():
    assert run_script(MODEL_FREE_CELL_SCRIPT) == "model-free"


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory) -> str:
    """A one-cell file-backend grid run, executed to completion."""
    from repro.faas import CampaignSpec, GridRun, run_grid_worker

    run_dir = tmp_path_factory.mktemp("grid") / "run"
    spec = CampaignSpec(benchmarks=("function_chain",), platforms=("aws",), seeds=(0,),
                        burst_size=2)
    run_grid_worker(GridRun.create(spec, run_dir), workers=1)
    return str(run_dir)


@pytest.mark.parametrize("verb", [
    ["figures", "--list"], ["campaign-status"], ["campaign-merge"],
], ids=lambda verb: verb[0])
def test_a_verb_loads_no_devtools_server_asyncio_or_petri_net(verb, finished_run):
    argv = verb if verb[0] == "figures" else [*verb, finished_run]
    assert run_script(VERB_SCRIPT, *argv).splitlines()[-1] == "lean"


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory) -> str:
    """The cell cache of a quick ``figures --all``, noise probes included."""
    from repro.analysis.artifacts import (
        ArtifactConfig, available_artifacts, execute_plan, plan_artifacts,
    )

    cache_dir = tmp_path_factory.mktemp("cache")
    plan = plan_artifacts(available_artifacts(), ArtifactConfig(quick=True))
    execute_plan(plan, workers=1, cache_dir=cache_dir)
    return str(cache_dir)


@pytest.mark.parametrize("render_only", [False, True], ids=["cached", "render-only"])
def test_a_cache_served_paper_run_draws_nothing(filled_cache, render_only):
    """Every cell and Figure 13's probes come from the cache: no noise curve
    is drawn and ``numpy.random`` never loads."""
    argv = ["figures", "--all", "--quick", "--cache-dir", filled_cache]
    out = run_script(CACHE_SERVED_SCRIPT, *argv, *(["--render-only"] if render_only else []))
    assert out.splitlines()[-1] == "served"
    assert "Figure 13a: suspension time vs memory" in out
    assert "pending" not in out
