"""Figure 13's noise probes: planned, fingerprinted, cached next to the cells.

The render used to draw the selfish-detour suspension curve itself.  Now the
plan declares one :class:`NoiseProbe` per platform, the execution paths read
it from the cell cache (or draw and store it once), and the builder only
reads.  The old render-time call is kept here as the oracle.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis.artifacts import (
    ArtifactConfig,
    available_artifacts,
    execute_plan,
    plan_artifacts,
    render_plan,
)
from repro.faas.campaign import CampaignResult, NoiseProbe, _cache_path, run_probes
from repro.sim.noise import NoiseModel
from repro.sim.platforms import aws_profile, register_platform, resolve_platform
from repro.sim.resources import hpc_cpu_model
from repro.sim.rng import RandomStreams


def direct_curve(platform, seed, memory_configurations, events):
    """What ``_build_figure13`` drew at render time before the probes."""
    noise = NoiseModel(platform, resolve_platform(platform).cpu_model, RandomStreams(seed))
    curve = noise.suspension_curve(memory_configurations, events=events)
    return [
        {
            "memory_mb": float(memory),
            "measured_suspension": values["measured_suspension"],
            "documented_suspension": values["documented_suspension"],
        }
        for memory, values in sorted(curve.items())
    ]


def empty_campaign(plan):
    return CampaignResult(spec=plan.spec)


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize("seed", [0, 1])
def test_probe_rows_are_byte_identical_to_a_direct_curve(seed, quick, tmp_path):
    plan = plan_artifacts(["figure13"], ArtifactConfig(seed=seed, quick=quick))
    assert [probe.platform for probe in plan.probes] == ["gcp", "aws", "azure"]
    drawn = run_probes(empty_campaign(plan), plan.probes, tmp_path)
    read = run_probes(empty_campaign(plan), plan.probes, tmp_path, draw=False)
    for probe in plan.probes:
        expected = json.dumps(direct_curve(probe.platform, seed, probe.memory_mb, probe.events))
        assert json.dumps(drawn.probes[probe.fingerprint()]) == expected
        assert json.dumps(read.probes[probe.fingerprint()]) == expected


def test_figure13_data_from_the_cache_equals_the_direct_curve(tmp_path):
    config = ArtifactConfig(seed=1, quick=True)
    plan = plan_artifacts(["figure13"], config)
    cold = render_plan(plan, execute_plan(plan, workers=1, cache_dir=tmp_path))["figure13"]
    warm = render_plan(plan, execute_plan(plan, workers=1, cache_dir=tmp_path))["figure13"]
    assert warm.provenance["cache_hits"] == len(plan.jobs)
    expected = {
        platform: direct_curve(platform, 1, (256, 1024), 500)
        for platform in ("gcp", "aws", "azure")
    }
    for rendered in (cold, warm):
        assert json.dumps(rendered.data["suspension"]) == json.dumps(expected)
    assert cold.text == warm.text


class TestFingerprint:
    def test_covers_seed_events_and_memory(self):
        base = NoiseProbe("aws", 0, (256, 1024), 500)
        variants = [
            replace(base, seed=1),
            replace(base, events=501),
            replace(base, memory_mb=(256,)),
            replace(base, memory_mb=(256.0, 1024)),  # another detour stream name
            replace(base, platform="gcp"),
        ]
        prints = {probe.fingerprint() for probe in [base, *variants]}
        assert len(prints) == 1 + len(variants)
        assert NoiseProbe("aws", 0, (256, 1024), 500).fingerprint() == base.fingerprint()

    def test_covers_the_resolved_cpu_model(self):
        register_platform("probe-cpu", aws_profile)
        before = NoiseProbe("probe-cpu", 0, (256,), 500).fingerprint()
        register_platform("probe-cpu", lambda: replace(aws_profile(), cpu_model=hpc_cpu_model()),
                          overwrite=True)
        after = NoiseProbe("probe-cpu", 0, (256,), 500).fingerprint()
        assert before != after

    def test_unrelated_cells_change_neither_probes_nor_the_cell_plan(self):
        alone = plan_artifacts(["figure13"])
        shared = plan_artifacts(["figure7", "figure13", "table5"])
        assert [p.fingerprint() for p in alone.probes] == \
            [p.fingerprint() for p in shared.probes]
        full = plan_artifacts(available_artifacts())
        assert len(full.jobs) == 139 and len(full.probes) == 3
        assert [job.fingerprint() for job in full.spec.expand()] == \
            [job.fingerprint() for job in full.jobs]
        assert not {p.fingerprint() for p in full.probes} & \
            {job.fingerprint() for job in full.jobs}

    def test_probes_are_deduplicated_across_artifacts(self):
        plan = plan_artifacts(["figure13", "figure13"])
        assert len(plan.probes) == 3


class TestProbeCache:
    PROBE = NoiseProbe("aws", 0, (256, 1024), 200)

    def rows(self, cache_dir, draw=True):
        campaign = CampaignResult(spec=None)  # type: ignore[arg-type]
        return run_probes(campaign, [self.PROBE], cache_dir, draw=draw).probes.get(
            self.PROBE.fingerprint())

    def test_a_torn_entry_is_recomputed_and_rewritten(self, tmp_path):
        expected = self.rows(tmp_path)
        path = _cache_path(tmp_path, self.PROBE)
        whole = path.read_text()
        path.write_text(whole[: len(whole) // 2])
        assert self.rows(tmp_path, draw=False) is None
        assert self.rows(tmp_path) == expected
        assert path.read_text() == whole

    @pytest.mark.parametrize("entry", [
        [], {"fingerprint": "0" * 64, "result": []}, {"result": "rows"},
        {"result": [1, 2]},
    ], ids=["list", "other-fingerprint", "text-result", "non-dict-rows"])
    def test_a_malformed_entry_is_a_miss(self, tmp_path, entry):
        if isinstance(entry, dict) and "fingerprint" not in entry:
            entry = {"fingerprint": self.PROBE.fingerprint(), **entry}
        _cache_path(tmp_path, self.PROBE).write_text(json.dumps(entry))
        assert self.rows(tmp_path, draw=False) is None
        assert self.rows(tmp_path) == direct_curve("aws", 0, (256, 1024), 200)

    def test_without_a_cache_the_probe_is_drawn_and_not_stored(self, tmp_path):
        assert self.rows(None) == direct_curve("aws", 0, (256, 1024), 200)
        assert self.rows(None, draw=False) is None

    def test_probes_never_enter_the_campaign_document(self, tmp_path):
        plan = plan_artifacts(["figure13"], ArtifactConfig(quick=True))
        campaign = execute_plan(plan, workers=1)
        assert len(campaign.probes) == 3
        document = campaign.to_dict(include_results=True)
        assert document == replace(campaign, probes={}).to_dict(include_results=True)
        assert CampaignResult.from_dict(document).probes == {}


def test_render_only_leaves_figure13_pending_without_its_probes(tmp_path, capsys):
    from repro.cli import main

    cache = tmp_path / "cache"
    argv = ["figures", "--artifacts", "figure13", "--quick", "--workers", "1",
            "--cache-dir", str(cache)]
    assert main(argv) == 0
    plan = plan_artifacts(["figure13"], ArtifactConfig(quick=True))
    for probe in plan.probes:
        _cache_path(cache, probe).unlink()
    capsys.readouterr()
    assert main([*argv, "--render-only"]) == 0
    out = capsys.readouterr().out
    assert "pending: 3/9 campaign cell(s) or probe(s) not ready yet" in out
    assert not any(_cache_path(cache, probe).exists() for probe in plan.probes)
    assert main(argv) == 0  # executing draws and stores them again
    capsys.readouterr()
    assert main([*argv, "--render-only"]) == 0
    assert "Figure 13a: suspension time vs memory" in capsys.readouterr().out


def test_grid_merge_and_from_campaign_paths_render_figure13(tmp_path, capsys):
    from repro.cli import main

    argv = ["figures", "--artifacts", "figure13", "--quick", "--workers", "1"]
    saved = tmp_path / "campaign.json"
    assert main([*argv, "--run-dir", str(tmp_path / "run"), "--cache-dir",
                 str(tmp_path / "cache"), "--save-campaign", str(saved)]) == 0
    grid_out = capsys.readouterr().out
    assert "Figure 13a: suspension time vs memory" in grid_out
    assert main([*argv, "--from-campaign", str(saved), "--no-cache"]) == 0
    from_file = capsys.readouterr().out
    assert "Figure 13a: suspension time vs memory" in from_file
    figure = grid_out[grid_out.index("Figure 13a"):grid_out.index("\nartifacts")]
    assert figure in from_file
