"""Tests for the platform-specific transcribers (AWS, Google Cloud, Azure)."""

import pytest

from repro.benchmarks import get_benchmark
from repro.core.definition import WorkflowDefinition
from repro.core.transcription import (
    AWSTranscriber,
    AzureTranscriber,
    GCPTranscriber,
    TranscriptionError,
    compare_transitions,
)


def simple_map_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "init",
            "states": {
                "init": {"type": "task", "func_name": "generate", "next": "map_phase"},
                "map_phase": {
                    "type": "map",
                    "array": "items",
                    "root": "proc",
                    "states": {"proc": {"type": "task", "func_name": "process"}},
                },
            },
        },
        name="simple_map",
    )


def switch_definition(with_default: bool = True) -> WorkflowDefinition:
    states = {
        "check": {
            "type": "switch",
            "cases": [{"variable": "x", "operator": ">", "value": 1, "next": "big"}],
        },
        "big": {"type": "task", "func_name": "big_fn"},
        "small": {"type": "task", "func_name": "small_fn"},
    }
    if with_default:
        states["check"]["default"] = "small"
    return WorkflowDefinition.from_dict({"root": "check", "states": states}, name="switchy")


class TestAWSTranscriber:
    def test_task_becomes_task_state_with_lambda_arn(self):
        result = AWSTranscriber().transcribe(simple_map_definition(), {"items": 3})
        states = result.document["States"]
        assert states["init"]["Type"] == "Task"
        assert "arn:aws:lambda" in states["init"]["Resource"]
        assert states["init"]["Next"] == "map_phase"

    def test_map_becomes_map_state_with_iterator(self):
        result = AWSTranscriber().transcribe(simple_map_definition(), {"items": 3})
        map_state = result.document["States"]["map_phase"]
        assert map_state["Type"] == "Map"
        assert map_state["ItemsPath"] == "$.items"
        assert map_state["Iterator"]["StartAt"] == "proc"
        assert map_state["End"] is True

    def test_loop_uses_sequential_map_workaround(self):
        definition = WorkflowDefinition.from_dict(
            {
                "root": "loop_phase",
                "states": {
                    "loop_phase": {
                        "type": "loop",
                        "array": "items",
                        "root": "body",
                        "states": {"body": {"type": "task", "func_name": "step"}},
                    }
                },
            },
            name="loopy",
        )
        result = AWSTranscriber().transcribe(definition, {"items": 4})
        loop_state = result.document["States"]["loop_phase"]
        assert loop_state["Type"] == "Map"
        assert loop_state["MaxConcurrency"] == 1

    def test_switch_becomes_choice_state(self):
        result = AWSTranscriber().transcribe(switch_definition())
        choice = result.document["States"]["check"]
        assert choice["Type"] == "Choice"
        assert choice["Choices"][0]["NumericGreaterThan"] == 1
        assert choice["Default"] == "small"

    def test_switch_without_default_cannot_terminate(self):
        # AWS cannot end a workflow from a Choice state (paper Section 6.1).
        with pytest.raises(TranscriptionError):
            AWSTranscriber().transcribe(switch_definition(with_default=False))

    def test_transition_estimate_grows_with_array_size(self):
        small = AWSTranscriber().transcribe(simple_map_definition(), {"items": 2})
        large = AWSTranscriber().transcribe(simple_map_definition(), {"items": 10})
        assert large.transition_estimate > small.transition_estimate

    def test_start_at_is_root(self):
        result = AWSTranscriber().transcribe(simple_map_definition())
        assert result.document["StartAt"] == "init"


class TestGCPTranscriber:
    def test_task_becomes_http_call_plus_assign(self):
        result = GCPTranscriber().transcribe(simple_map_definition(), {"items": 3})
        steps = result.document["main"]["steps"]
        step_names = [list(step)[0] for step in steps]
        assert "init_call" in step_names
        assert "init_assign" in step_names

    def test_map_creates_sub_workflow(self):
        result = GCPTranscriber().transcribe(simple_map_definition(), {"items": 3})
        assert "map_phase_subworkflow" in result.document

    def test_gcp_needs_more_transitions_than_aws(self):
        definition = simple_map_definition()
        comparison = compare_transitions(definition, {"items": 3})
        assert comparison.gcp_transitions > comparison.aws_transitions

    def test_parallel_limit_enforced(self):
        branches = [
            {"name": f"b{i}", "root": f"t{i}",
             "states": {f"t{i}": {"type": "task", "func_name": "f"}}}
            for i in range(25)
        ]
        definition = WorkflowDefinition.from_dict(
            {"root": "par", "states": {"par": {"type": "parallel", "branches": branches}}},
            name="wide",
        )
        with pytest.raises(TranscriptionError):
            GCPTranscriber().transcribe(definition)

    def test_trigger_url_contains_region_and_project(self):
        transcriber = GCPTranscriber(project="proj", region="us-east1")
        assert "us-east1-proj" in transcriber.trigger_url("myfunc")


class TestAzureTranscriber:
    def test_bundle_contains_orchestrator_and_activities(self):
        result = AzureTranscriber().transcribe(simple_map_definition(), {"items": 3})
        document = result.document
        assert "orchestrator" in document
        activity_names = {activity["name"] for activity in document["activities"]}
        assert activity_names == {"generate", "process"}
        assert "call_activity" in document["orchestrator"]["source"]

    def test_workflow_definition_shipped_as_input(self):
        result = AzureTranscriber().transcribe(simple_map_definition())
        assert result.document["orchestrator"]["input"]["definition"]["root"] == "init"

    def test_history_events_grow_with_array_size(self):
        small = AzureTranscriber().transcribe(simple_map_definition(), {"items": 2})
        large = AzureTranscriber().transcribe(simple_map_definition(), {"items": 10})
        assert large.transition_estimate > small.transition_estimate

    def test_invalid_definition_rejected(self):
        broken = WorkflowDefinition.from_dict(
            {"root": "a", "states": {"a": {"type": "task", "func_name": "f", "next": "ghost"}}},
        )
        with pytest.raises(TranscriptionError):
            AzureTranscriber().transcribe(broken)


class TestTransitionComparison:
    def test_all_application_benchmarks_transcribe_on_all_platforms(self):
        for name in ("mapreduce", "ml", "video_analysis", "excamera", "trip_booking", "genome_1000"):
            benchmark = get_benchmark(name)
            comparison = compare_transitions(benchmark.definition, benchmark.array_sizes)
            assert comparison.aws_states > 0
            assert comparison.gcp_states > 0
            assert comparison.azure_history_events > 0

    def test_gcp_always_needs_at_least_as_many_transitions(self):
        # Table 5: GCP requires more state transitions than AWS for every benchmark.
        for name in ("mapreduce", "ml", "video_analysis", "excamera", "genome_1000"):
            benchmark = get_benchmark(name)
            comparison = compare_transitions(benchmark.definition, benchmark.array_sizes)
            assert comparison.gcp_transitions > comparison.aws_transitions, name

    def test_comparison_row_format(self):
        benchmark = get_benchmark("mapreduce")
        row = compare_transitions(benchmark.definition, benchmark.array_sizes).as_row()
        assert row["Benchmark"] == "mapreduce"
        assert "AWS transitions" in row
