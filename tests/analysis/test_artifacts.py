"""Tests for the campaign-native artifact pipeline."""

import json
import statistics

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import artifacts, tables
from repro.analysis.stats import coefficient_of_variation
from repro.benchmarks import get_benchmark
from repro.faas import (
    CampaignResult,
    CampaignSpec,
    GridRun,
    WorkloadSpec,
    merge_run,
    run_benchmark,
    run_campaign,
    run_grid_worker,
)

QUICK = artifacts.ArtifactConfig(quick=True)
SMALL = artifacts.ArtifactConfig(burst_size=3, seed=0, benchmarks=("mapreduce",))


@pytest.fixture(autouse=True)
def isolated_artifact_registry():
    """Snapshot the artifact registry around every test."""
    artifacts._ensure_builders()
    snapshot = dict(artifacts._ARTIFACTS)
    yield
    artifacts._ARTIFACTS.clear()
    artifacts._ARTIFACTS.update(snapshot)


class TestPlanner:
    def test_e1_artifacts_share_one_set_of_cells(self):
        """Figures 7/8/11/15 and Table 5 all ride on the E1 burst cells."""
        union = artifacts.plan_artifacts(
            ["figure7", "figure8", "figure11", "figure15", "table5"], QUICK
        )
        alone = artifacts.plan_artifacts(["figure7"], QUICK)
        assert len(union.jobs) == len(alone.jobs) == 18  # 6 benchmarks x 3 clouds
        assert {job.fingerprint() for job in union.jobs} == {
            job.fingerprint() for job in alone.jobs
        }
        assert union.requested_cells > len(union.jobs)

    def test_figure12_and_16_reuse_e1_cold_cells(self):
        """Figure 12's cold cells and Figure 16's 2024 cells are E1 cells."""
        plan = artifacts.plan_artifacts(["figure7", "figure12", "figure16"], QUICK)
        total_requested = plan.requested_cells
        # 18 E1 + 12 fig12 + 12 fig16 requested; ml/mapreduce cold bursts and
        # the 2024-era cells dedup against E1.
        assert total_requested == 18 + 12 + 12
        assert len(plan.jobs) == 18 + 6 + 6

    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        names=st.lists(
            st.sampled_from([
                "figure7", "figure8", "figure9a", "figure9b", "figure10",
                "figure11", "figure12", "figure13", "figure14", "figure15",
                "figure16", "table2", "table5",
            ]),
            min_size=1, max_size=6, unique=True,
        )
    )
    def test_union_is_deduplicated(self, names):
        """Property: the unioned spec never holds two cells with one key, and
        every artifact's own cells are contained in the union."""
        plan = artifacts.plan_artifacts(names, QUICK)
        keys = [job.cell_key for job in plan.jobs]
        assert len(keys) == len(set(keys))
        assert len(plan.jobs) <= plan.requested_cells
        union_keys = set(keys)
        for name in names:
            for request in plan.requests[name]:
                assert request.job().cell_key in union_keys
        if plan.spec is not None:
            expanded = plan.spec.expand()
            assert [job.cell_key for job in expanded] == keys

    def test_conflicting_requests_rejected(self):
        original = artifacts.get_artifact("figure7")
        artifacts.register_artifact(artifacts.ArtifactSpec(
            name="conflicting",
            title="conflicting",
            kind="figure",
            cells=lambda config: tuple(
                # Same coordinates as figure7's cells, different repetitions.
                artifacts.CellRequest(
                    benchmark=request.benchmark, platform=request.platform,
                    workload=request.workload, seed=request.seed, repetitions=2,
                )
                for request in original.cells(config)
            ),
            build=lambda campaign, config: None,
        ))
        with pytest.raises(ValueError, match="conflicting"):
            artifacts.plan_artifacts(["figure7", "conflicting"], QUICK)

    def test_plan_spec_round_trips_through_grid_manifest_form(self):
        plan = artifacts.plan_artifacts(["figure9a", "figure16"], QUICK)
        document = json.loads(json.dumps(plan.spec.to_dict()))
        rebuilt = CampaignSpec.from_dict(document)
        assert [job.fingerprint() for job in rebuilt.expand()] == [
            job.fingerprint() for job in plan.spec.expand()
        ]

    def test_tables_only_plan_needs_no_campaign(self):
        plan = artifacts.plan_artifacts(["table2", "table3", "table4"], QUICK)
        assert plan.spec is None
        rendered = artifacts.render_plan(plan, artifacts.execute_plan(plan))
        assert all(artifact.complete for artifact in rendered.values())
        assert len(rendered["table3"].data) == 3


class TestGoldenEquivalence:
    """The pipeline must reproduce the legacy inline builders bit-identically."""

    @pytest.fixture(scope="class")
    def pipeline_campaign(self):
        plan = artifacts.plan_artifacts(["figure7", "table5"], SMALL)
        return artifacts.execute_plan(plan, workers=1)

    def _legacy_results(self):
        """The pre-pipeline ``_run`` path: direct run_benchmark at seed 0."""
        results = {}
        for name in ("mapreduce",):
            results[name] = {}
            for platform in ("gcp", "aws", "azure"):
                results[name][platform] = run_benchmark(
                    get_benchmark(name), f"{platform}@2024", repetitions=1,
                    seed=0, workload=WorkloadSpec.burst(3),
                )
        return results

    def test_figure7_bit_identical_to_legacy(self, pipeline_campaign):
        pipeline = artifacts.get_artifact("figure7").build(pipeline_campaign, SMALL)
        legacy = {}
        for name, per_platform in self._legacy_results().items():
            legacy[name] = {}
            for platform, result in per_platform.items():
                runtimes = result.summary.runtimes if result.summary else []
                legacy[name][platform] = {
                    "median_runtime_s": result.median_runtime,
                    "mean_runtime_s": statistics.fmean(runtimes) if runtimes else 0.0,
                    "min_runtime_s": min(runtimes) if runtimes else 0.0,
                    "max_runtime_s": max(runtimes) if runtimes else 0.0,
                    "cv": coefficient_of_variation(runtimes),
                }
        assert pipeline == legacy  # exact float equality, not approx

    def test_table5_bit_identical_to_legacy(self, pipeline_campaign):
        pipeline = artifacts.get_artifact("table5").build(pipeline_campaign, SMALL)
        legacy = tables.table5_cold_starts_and_transitions(self._legacy_results())
        assert pipeline == legacy


class TestPartialRendering:
    def test_partial_campaign_renders_available_artifacts_only(self):
        config = artifacts.ArtifactConfig(quick=True, platforms=("aws",))
        both = artifacts.plan_artifacts(["figure9a", "figure16"], config)
        only_9a = artifacts.plan_artifacts(["figure9a"], config)
        campaign = artifacts.execute_plan(only_9a, workers=1)
        rendered = artifacts.render_plan(both, campaign)
        assert rendered["figure9a"].complete
        assert rendered["figure9a"].data["aws"]
        assert not rendered["figure16"].complete
        assert rendered["figure16"].data is None
        assert len(rendered["figure16"].missing) == 4  # 2 benchmarks x 2 eras
        assert "pending" in rendered["figure16"].text

    def test_render_with_no_campaign_marks_everything_pending(self):
        plan = artifacts.plan_artifacts(["figure9a"], QUICK)
        rendered = artifacts.render_plan(plan, None)
        assert not rendered["figure9a"].complete


class TestExportAndProvenance:
    def test_write_artifacts_exports_json_with_provenance(self, tmp_path):
        config = artifacts.ArtifactConfig(quick=True, platforms=("aws",))
        plan = artifacts.plan_artifacts(["figure9a", "table3"], config)
        campaign = artifacts.execute_plan(plan, workers=1, cache_dir=tmp_path / "cache")
        rendered = artifacts.render_plan(plan, campaign)
        written = artifacts.write_artifacts(rendered, tmp_path / "out")
        assert (tmp_path / "out" / "figure9a.json").exists()
        assert (tmp_path / "out" / "figure9a.txt").exists()
        assert len(written) == 4
        document = json.loads((tmp_path / "out" / "figure9a.json").read_text())
        assert document["complete"] is True
        assert document["data"]["aws"]
        cells = document["provenance"]["cells"]
        assert len(cells) == 2
        for cell in cells:
            assert len(cell["fingerprint"]) == 64
            assert cell["present"] is True
            assert cell["workload"].startswith("burst(")
        # Re-render from cache: provenance records the hits.
        cached = artifacts.execute_plan(plan, workers=1, cache_dir=tmp_path / "cache")
        re_rendered = artifacts.render_plan(plan, cached)
        assert re_rendered["figure9a"].provenance["cache_hits"] == 2

    def test_campaign_document_round_trip_renders_identically(self, tmp_path):
        config = artifacts.ArtifactConfig(quick=True, platforms=("aws",))
        plan = artifacts.plan_artifacts(["figure9a"], config)
        campaign = artifacts.execute_plan(plan, workers=1)
        document = json.loads(json.dumps(campaign.to_dict(include_results=True)))
        rebuilt = CampaignResult.from_dict(document)
        original = artifacts.render_plan(plan, campaign)["figure9a"]
        restored = artifacts.render_plan(plan, rebuilt)["figure9a"]
        assert restored.complete
        assert restored.data == original.data


class TestGridIntegration:
    def test_plan_executes_over_a_grid_run_dir(self, tmp_path):
        """The artifact campaign shards/merges like any campaign, and the
        merged render is bit-identical to the in-process execution."""
        config = artifacts.ArtifactConfig(quick=True, platforms=("aws",))
        plan = artifacts.plan_artifacts(["figure9a"], config)
        direct = artifacts.execute_plan(plan, workers=1)

        run = GridRun.create(plan.spec, tmp_path / "run", shard_count=2)
        for shard in (0, 1):
            report = run_grid_worker(run, shard=shard, workers=1)
            assert report.failed == 0
        merged = merge_run(run)
        assert artifacts.render_plan(plan, merged)["figure9a"].data == \
            artifacts.render_plan(plan, direct)["figure9a"].data

    def test_quick_plan_is_smaller_than_full_plan(self):
        quick = artifacts.plan_artifacts(artifacts.available_artifacts(), QUICK)
        full = artifacts.plan_artifacts(
            artifacts.available_artifacts(), artifacts.ArtifactConfig()
        )
        assert len(quick.jobs) < len(full.jobs)
        assert all(job.workload.burst_size <= artifacts.QUICK_BURST
                   or job.workload.kind == "warm"
                   for job in quick.jobs)


class TestExplicitCampaignCells:
    def test_explicit_cells_expand_after_the_cross_product(self):
        request = artifacts.CellRequest(
            benchmark="function_chain", platform="aws",
            workload=WorkloadSpec.burst(2), seed=7,
        )
        spec = CampaignSpec(
            benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,),
            burst_size=2, cells=(request.job(),),
        )
        jobs = spec.expand()
        assert len(jobs) == 2
        assert jobs[-1].benchmark == "function_chain"
        assert jobs[-1].seed == jobs[-1].seed_index == 7

    def test_explicit_cell_duplicating_a_cross_product_cell_rejected(self):
        spec = CampaignSpec(
            benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,), burst_size=2,
        )
        clash = spec.expand()[0]
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,),
                burst_size=2, cells=(clash,),
            ).expand()

    def test_purely_explicit_campaign_runs_and_caches(self, tmp_path):
        request = artifacts.CellRequest(
            benchmark="function_chain", platform="aws",
            workload=WorkloadSpec.burst(2), seed=0,
        )
        spec = CampaignSpec(cells=(request.job(),))
        first = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert len(first.cells) == 1 and first.cache_hits == 0
        again = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert again.cache_hits == 1

    def test_parameterised_benchmark_spec_cells_match_direct_runs(self):
        request = artifacts.CellRequest(
            benchmark="storage_io:num_functions=2,download_bytes=1024,memory_mb=512",
            platform="aws", workload=WorkloadSpec.burst(2), seed=3,
        )
        campaign = run_campaign(CampaignSpec(cells=(request.job(),)), workers=1)
        direct = run_benchmark(
            get_benchmark("storage_io", num_functions=2, download_bytes=1024,
                          memory_mb=512),
            "aws", seed=3, workload=WorkloadSpec.burst(2),
        )
        assert artifacts.request_result(campaign, request).median_overhead == \
            pytest.approx(direct.median_overhead)
