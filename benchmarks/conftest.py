"""Shared fixtures for the figure/table reproduction benchmarks.

The whole paper evaluation is planned as ONE deduplicated artifact campaign
(:mod:`repro.analysis.artifacts`): every figure/table declares its cells, the
planner unions them (the E1 burst runs feed Figures 7/8/11/15 and Table 5 and
execute exactly once), and the campaign runs once per session over the
process-pool executor.  Each benchmark module then renders its artifacts from
the shared :class:`~repro.faas.campaign.CampaignResult` -- pure builders, no
private re-runs.

Campaign sizing comes from the same profile table ``repro-flow bench`` uses
(:data:`repro.devtools.bench.PROFILES`): ``--bench-profile quick`` (the
default) keeps a full run fast at burst 12, ``--bench-profile full`` runs the
paper's burst 30.  ``REPRO_BURST`` in the environment overrides either
profile (the historical knob, still honoured by CI); ``REPRO_WORKERS`` pins
the campaign worker count (default: one per CPU).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import artifacts, figures
from repro.devtools.bench import PROFILES

SEED = int(os.environ.get("REPRO_SEED", "0"))
WORKERS = int(os.environ["REPRO_WORKERS"]) if "REPRO_WORKERS" in os.environ else None


def _resolve_burst(profile_name: str) -> int:
    """The harness burst size: REPRO_BURST wins, else the shared profile."""
    if "REPRO_BURST" in os.environ:
        return int(os.environ["REPRO_BURST"])
    return PROFILES[profile_name].figure_burst


def _artifact_config(burst_size: int, seed: int) -> artifacts.ArtifactConfig:
    """One config for the whole harness; the per-artifact overrides reproduce
    the sweep points the figure benches have always exercised."""
    return artifacts.ArtifactConfig(
        burst_size=burst_size,
        seed=seed,
        overrides={
            "figure9a": {
                "download_sizes": (1 << 12, 1 << 17, 1 << 22, 1 << 27),
                "num_functions": 20,
                "burst_size": max(4, burst_size // 2),
            },
            "figure9b": {
                "payload_sizes": (1 << 6, 1 << 10, 1 << 14, 1 << 17),
                "chain_length": 10,
                "burst_size": max(4, burst_size // 2),
            },
            "figure10": {
                "parallelism": (2, 8, 16),
                "durations_s": (1.0, 5.0, 20.0),
                "burst_size": max(4, burst_size // 2),
            },
            "figure12": {"burst_size": burst_size},
            "figure13": {
                "memory_configurations": (128, 256, 512, 1024, 2048),
                "events": 5000,
            },
            "figure14": {"job_counts": (5, 10, 20),
                         "burst_size": max(3, burst_size // 4)},
            "figure16": {"burst_size": burst_size},
        },
    )


BURST_SIZE = _resolve_burst("quick")
ARTIFACT_CONFIG = _artifact_config(BURST_SIZE, SEED)


def pytest_configure(config):
    """Re-size the harness for the selected ``--bench-profile``.

    Runs before collection, so benchmark modules that import ``BURST_SIZE``
    or ``ARTIFACT_CONFIG`` from this conftest see the profile-resolved
    values.
    """
    global BURST_SIZE, ARTIFACT_CONFIG
    profile_name = config.getoption("--bench-profile", default="quick")
    BURST_SIZE = _resolve_burst(profile_name)
    ARTIFACT_CONFIG = _artifact_config(BURST_SIZE, SEED)

#: Paper values used for the side-by-side "paper vs measured" output.
PAPER_MEDIAN_RUNTIME_S = {
    "video_analysis": {"gcp": 55.69, "aws": 26.74, "azure": 642.12},
    "excamera": {"gcp": 132.63, "aws": 87.11, "azure": 550.38},
    "mapreduce": {"gcp": 19.44, "aws": 11.19, "azure": 8.64},
    "trip_booking": {"gcp": 9.19, "aws": 16.14, "azure": 8.51},
    "ml": {"gcp": 15.32, "aws": 10.05, "azure": 6.67},
    "genome_1000": {"gcp": 453.63, "aws": 257.14, "azure": 3757.55},
}

PAPER_COLD_START_FRACTION = {
    "video_analysis": {"aws": 0.8694, "gcp": 0.6861, "azure": 0.0389},
    "mapreduce": {"aws": 1.0, "gcp": 0.6817, "azure": 0.01},
    "trip_booking": {"aws": 1.0, "gcp": 0.3824, "azure": 0.006},
    "excamera": {"aws": 0.7358, "gcp": 0.6934, "azure": 0.0094},
    "ml": {"aws": 1.0, "gcp": 0.9926, "azure": 0.026},
    "genome_1000": {"aws": 0.9816, "gcp": 0.7240, "azure": 0.0772},
}

PAPER_STATE_TRANSITIONS = {
    "video_analysis": {"aws": 7, "gcp": 20},
    "mapreduce": {"aws": 14, "gcp": 54},
    "trip_booking": {"aws": 9, "gcp": 16},
    "excamera": {"aws": 21, "gcp": 73},
    "ml": {"aws": 6, "gcp": 18},
    "genome_1000": {"aws": 26, "gcp": 96},
}


class LazyPaperCampaign:
    """Incrementally executed union of the paper's artifact cells.

    Each artifact request plans its own cells and executes only the ones no
    earlier request already computed (cells are keyed by fingerprint), so a
    targeted run of one benchmark module simulates just that module's cells
    while a full-suite run still executes every shared cell -- the E1 bursts,
    Figure 12's cold cells, Figure 16's 2024 cells -- exactly once.
    """

    def __init__(self) -> None:
        self._cells = {}

    def campaign_for(self, names):
        from repro.faas import CampaignResult, CampaignSpec, run_campaign
        from repro.faas.campaign import run_probes

        plan = artifacts.plan_artifacts(names, ARTIFACT_CONFIG)
        if plan.spec is None:
            return None
        missing = [job for job in plan.jobs
                   if job.fingerprint() not in self._cells]
        if missing:
            executed = run_campaign(CampaignSpec(cells=missing), workers=WORKERS)
            for cell in executed.cells:
                self._cells[cell.job.fingerprint()] = cell
        campaign = CampaignResult(
            spec=plan.spec,
            cells=[self._cells[job.fingerprint()] for job in plan.jobs],
        )
        return run_probes(campaign, plan.probes, cache_dir=None)  # Figure 13's curves


@pytest.fixture(scope="session")
def paper_campaign():
    """The lazily executed, deduplicated campaign behind every figure/table."""
    return LazyPaperCampaign()


@pytest.fixture(scope="session")
def build_artifact(paper_campaign):
    """Render an artifact's data from the shared campaign (pure builders)."""

    def _build(name: str):
        campaign = paper_campaign.campaign_for([name])
        return artifacts.get_artifact(name).build(campaign, ARTIFACT_CONFIG)

    return _build


@pytest.fixture(scope="session")
def e1_campaign(paper_campaign):
    """Experiment E1 results as ``{benchmark: {platform: ExperimentResult}}``."""
    return figures.collect_e1(
        paper_campaign.campaign_for(["figure7"]), ARTIFACT_CONFIG
    )
