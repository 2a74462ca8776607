"""Telemetry must never perturb simulation results.

The acceptance bar for the observability layer: campaign documents, merged
grid results, and the PR-3 pinned golden number are bit-identical whether
telemetry is off (NullRegistry), recording in-process, or streaming JSONL
through ``telemetry_session`` (the ``--telemetry DIR`` path).
"""

import json
from contextlib import contextmanager

import pytest

from repro.benchmarks import get_benchmark
from repro.faas import (
    CampaignSpec,
    GridRun,
    WorkloadSpec,
    merge_run,
    run_benchmark,
    run_campaign,
    run_grid_worker,
)
from repro.observability import (
    MetricsRegistry,
    iter_events,
    telemetry_path,
    telemetry_session,
    use_registry,
)

MODES = ("none", "recording", "jsonl")


@contextmanager
def _telemetry(mode, tmp_path):
    if mode == "none":
        yield None
    elif mode == "recording":
        with use_registry(MetricsRegistry(name="determinism")) as registry:
            yield registry
    else:
        with telemetry_session(tmp_path, label="determinism") as registry:
            yield registry


def tiny_spec() -> CampaignSpec:
    return CampaignSpec(
        benchmarks=("function_chain",),
        platforms=("aws", "azure"),
        seeds=(0, 1),
        burst_size=2,
    )


def _campaign_document(mode, tmp_path):
    with _telemetry(mode, tmp_path):
        campaign = run_campaign(tiny_spec(), workers=1)
    return campaign


class TestCampaignDeterminism:
    @pytest.mark.parametrize("mode", MODES[1:])
    def test_campaign_document_bit_identical_under_telemetry(self, mode, tmp_path):
        baseline = _campaign_document("none", tmp_path)
        instrumented = _campaign_document(mode, tmp_path)
        assert json.dumps(instrumented.to_dict(), sort_keys=True) == \
            json.dumps(baseline.to_dict(), sort_keys=True)
        assert [cell.job.fingerprint() for cell in instrumented.cells] == \
            [cell.job.fingerprint() for cell in baseline.cells]

    def test_campaign_telemetry_stream_holds_the_expected_counters(self, tmp_path):
        with telemetry_session(tmp_path, label="campaign") as registry:
            run_campaign(tiny_spec(), workers=1)
            assert registry.counter(
                "repro_campaign_cells_done_total").value() == 4.0
            assert registry.counter(
                "repro_engine_runs_total").value() >= 4.0
        events = list(iter_events(telemetry_path(tmp_path, "campaign")))
        final = events[-1]
        assert final["kind"] == "snapshot"
        assert "repro_campaign_cells_done_total" in final["metrics"]
        assert "repro_campaign_cell_seconds" in final["metrics"]


class TestGridDeterminism:
    def test_sharded_merge_bit_identical_under_telemetry(self, tmp_path):
        spec = tiny_spec()
        single = run_campaign(spec, workers=1)
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        with telemetry_session(tmp_path / "telemetry", label="worker"):
            run_grid_worker(run, shard=0, workers=1)
            run_grid_worker(run, shard=1, workers=1)
        merged = merge_run(run)
        assert json.dumps(merged.to_dict(), sort_keys=True) == \
            json.dumps(single.to_dict(), sort_keys=True)

    def test_backend_op_counters_recorded_without_touching_results(self, tmp_path):
        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        with use_registry(MetricsRegistry()) as registry:
            run_grid_worker(run, workers=1)
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend="file", op="claim") == 4.0
        assert ops.value(backend="file", op="mark_done") == 4.0
        assert registry.counter(
            "repro_grid_records_total").value(backend="file") == 4.0


class TestPinnedGolden:
    @pytest.mark.parametrize("mode", MODES)
    def test_pr3_golden_number_survives_every_telemetry_mode(self, mode, tmp_path):
        with _telemetry(mode, tmp_path) as registry:
            result = run_benchmark(
                get_benchmark("mapreduce"), "aws@2022", seed=0,
                workload=WorkloadSpec.burst(3),
            )
            assert result.median_runtime == 11.722144092900013
            assert result.cost.per_execution.total_usd == 0.0004624146823211932
            if registry is not None:
                # The engine monitor was genuinely live while the golden ran.
                assert registry.counter(
                    "repro_engine_runs_total").value() >= 1.0
                assert registry.counter(
                    "repro_engine_events_total").value() > 0.0
