"""Tests for the benchmark abstraction and deployment workflow."""

import pytest

from repro.benchmarks import get_benchmark
from repro.core import WorkflowDefinition
from repro.faas import Deployment, WorkflowBenchmark
from repro.sim import FunctionSpec, Platform, resolve_platform


def tiny_benchmark() -> WorkflowBenchmark:
    definition = WorkflowDefinition.from_dict(
        {
            "root": "work",
            "states": {"work": {"type": "task", "func_name": "work"}},
        },
        name="tiny",
    )
    return WorkflowBenchmark(
        name="tiny",
        definition=definition,
        functions={"work": FunctionSpec("work", lambda ctx, p: {"echo": p})},
        memory_mb=256,
        make_input=lambda index: {"index": index},
    )


class TestWorkflowBenchmark:
    def test_invalid_definition_rejected_at_construction(self):
        definition = WorkflowDefinition.from_dict(
            {"root": "a", "states": {"a": {"type": "task", "func_name": "f", "next": "ghost"}}},
        )
        with pytest.raises(ValueError):
            WorkflowBenchmark(name="broken", definition=definition,
                              functions={"f": FunctionSpec("f", lambda ctx, p: p)}, memory_mb=128)

    def test_missing_function_rejected(self):
        definition = WorkflowDefinition.from_dict(
            {"root": "a", "states": {"a": {"type": "task", "func_name": "f"}}},
        )
        with pytest.raises(ValueError):
            WorkflowBenchmark(name="broken", definition=definition, functions={}, memory_mb=128)

    def test_input_payload_uses_factory(self):
        benchmark = tiny_benchmark()
        assert benchmark.input_payload(3) == {"index": 3}

    def test_input_payload_defaults_to_empty(self):
        benchmark = tiny_benchmark()
        benchmark.make_input = None
        assert benchmark.input_payload() == {}

    def test_statistics_available_for_registered_benchmarks(self):
        stats = get_benchmark("mapreduce").statistics()
        assert stats.num_functions > 0
        assert stats.max_parallelism >= 1

    def test_function_names_sorted(self):
        assert get_benchmark("ml").function_names() == ["gen", "train"]


class TestDeployment:
    def test_deploy_transcribes_for_cloud_platforms(self):
        benchmark = get_benchmark("mapreduce")
        for platform_name in ("aws", "gcp", "azure"):
            platform = Platform(resolve_platform(platform_name), seed=1)
            deployment = Deployment.deploy(benchmark, platform)
            assert deployment.transcription is not None
            assert deployment.transcription.platform == platform_name

    def test_deploy_skips_transcription_for_hpc(self):
        benchmark = tiny_benchmark()
        platform = Platform(resolve_platform("hpc"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        assert deployment.transcription is None

    def test_prepare_stages_benchmark_data(self):
        benchmark = get_benchmark("video_analysis")
        platform = Platform(resolve_platform("aws"), seed=1)
        Deployment.deploy(benchmark, platform)
        assert platform.object_storage.exists("video/input.mp4")

    def test_invoke_once_returns_result_and_measurement(self):
        benchmark = tiny_benchmark()
        platform = Platform(resolve_platform("aws"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        result = deployment.invoke_once("inv-7")
        assert result.output == {"echo": {"index": 0}}
        measurement = deployment.measurement("inv-7")
        assert measurement.runtime > 0
        assert len(measurement.functions) == 1

    def test_stats_lookup_by_invocation(self):
        benchmark = tiny_benchmark()
        platform = Platform(resolve_platform("aws"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        deployment.invoke_once("inv-1")
        assert deployment.stats_for("inv-1").activity_count == 1
        with pytest.raises(KeyError):
            deployment.stats_for("unknown")

    def test_multiple_invocations_tracked_separately(self):
        benchmark = tiny_benchmark()
        platform = Platform(resolve_platform("azure"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        deployment.invoke_once("a")
        deployment.invoke_once("b")
        assert len(deployment.measurements()) == 2
