"""Tests for the orchestration executors and payload routing."""

import pytest

from repro.core import WorkflowDefinition
from repro.sim import FunctionSpec, Platform, resolve_platform
from repro.sim.orchestration.events import OrchestrationError, payload_size_bytes, resolve_array


class TestPayloadHelpers:
    def test_payload_size_of_dict(self):
        assert payload_size_bytes({"a": 1}) == len('{"a": 1}')

    def test_payload_size_of_unserialisable_object(self):
        class Odd:
            def __str__(self):
                return "odd"

        # Falls back to the string representation ('"odd"' once JSON-encoded).
        assert payload_size_bytes(Odd()) == len('"odd"')

    def test_resolve_array_from_dict(self):
        assert resolve_array({"items": [1, 2]}, "items") == [1, 2]

    def test_resolve_array_from_list_payload(self):
        assert resolve_array([3, 4], "anything") == [3, 4]

    def test_resolve_array_from_parallel_branch_output(self):
        payload = {"merge_branch": {"populations": ["a", "b"]}, "sift_branch": {}}
        assert resolve_array(payload, "populations") == ["a", "b"]

    def test_missing_array_raises(self):
        with pytest.raises(OrchestrationError):
            resolve_array({"other": []}, "items")

    def test_non_list_array_raises(self):
        with pytest.raises(OrchestrationError):
            resolve_array({"items": 5}, "items")


def loop_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "seed",
            "states": {
                "seed": {"type": "task", "func_name": "seed", "next": "iterate"},
                "iterate": {
                    "type": "loop",
                    "array": "items",
                    "root": "body",
                    "next": "collect",
                    "states": {"body": {"type": "task", "func_name": "body"}},
                },
                "collect": {"type": "task", "func_name": "collect"},
            },
        },
        name="loopy",
    )


def loop_functions(execution_log):
    def seed(ctx, payload):
        return {"items": [1, 2, 3]}

    def body(ctx, item):
        execution_log.append(("body", item, ctx.platform))
        ctx.compute(0.05)
        return item * 10

    def collect(ctx, items):
        return {"total": sum(items)}

    return {
        "seed": FunctionSpec("seed", seed),
        "body": FunctionSpec("body", body),
        "collect": FunctionSpec("collect", collect),
    }


class TestLoopSemantics:
    @pytest.mark.parametrize("platform_name", ["aws", "gcp", "azure"])
    def test_loop_processes_items_sequentially(self, platform_name):
        log = []
        platform = Platform(resolve_platform(platform_name), seed=2)
        result, _ = platform.run_workflow(loop_definition(), loop_functions(log), {})
        assert result == {"total": 60}
        assert [entry[1] for entry in log] == [1, 2, 3]

    def test_loop_runtime_grows_linearly(self):
        # Sequential semantics: the loop phase's duration spans all items.
        log = []
        platform = Platform(resolve_platform("aws"), seed=2)
        platform.run_workflow(loop_definition(), loop_functions(log), {}, invocation_id="loop0")
        records = [r for r in platform.metrics.records_for("loop0") if r.function == "body"]
        assert len(records) == 3
        assert records[0].end <= records[1].start + 1e-9
        assert records[1].end <= records[2].start + 1e-9


def repeat_definition(count: int) -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "again",
            "states": {"again": {"type": "repeat", "func_name": "inc", "count": count}},
        },
        name="repeaty",
    )


class TestRepeatSemantics:
    @pytest.mark.parametrize("platform_name", ["aws", "azure"])
    def test_repeat_chains_payload(self, platform_name):
        functions = {
            "inc": FunctionSpec("inc", lambda ctx, p: {"n": (p.get("n", 0) if isinstance(p, dict) else 0) + 1}),
        }
        platform = Platform(resolve_platform(platform_name), seed=2)
        result, stats = platform.run_workflow(repeat_definition(4), functions, {"n": 0})
        assert result == {"n": 4}
        assert stats.activity_count == 4


class TestParallelSemantics:
    def parallel_definition(self) -> WorkflowDefinition:
        return WorkflowDefinition.from_dict(
            {
                "root": "fanout",
                "states": {
                    "fanout": {
                        "type": "parallel",
                        "branches": [
                            {"name": "left", "root": "l",
                             "states": {"l": {"type": "task", "func_name": "left"}}},
                            {"name": "right", "root": "r",
                             "states": {"r": {"type": "task", "func_name": "right"}}},
                        ],
                    }
                },
            },
            name="parallel",
        )

    @pytest.mark.parametrize("platform_name", ["aws", "gcp", "azure"])
    def test_parallel_collects_branch_results(self, platform_name):
        functions = {
            "left": FunctionSpec("left", lambda ctx, p: "L"),
            "right": FunctionSpec("right", lambda ctx, p: "R"),
        }
        platform = Platform(resolve_platform(platform_name), seed=2)
        result, _ = platform.run_workflow(self.parallel_definition(), functions, {})
        assert result == {"left": "L", "right": "R"}

    def test_parallel_branches_share_phase_label(self):
        functions = {
            "left": FunctionSpec("left", lambda ctx, p: ctx.sleep(1.0) and None),
            "right": FunctionSpec("right", lambda ctx, p: ctx.sleep(1.0) and None),
        }
        platform = Platform(resolve_platform("aws"), seed=2)
        platform.run_workflow(self.parallel_definition(), functions, {}, invocation_id="p0")
        records = platform.metrics.records_for("p0")
        assert {record.phase for record in records} == {"fanout"}


class TestMapParallelismLimit:
    def test_gcp_map_runs_in_waves(self):
        definition = WorkflowDefinition.from_dict(
            {
                "root": "m",
                "states": {
                    "m": {"type": "map", "array": "items", "root": "t",
                          "states": {"t": {"type": "task", "func_name": "work"}}},
                },
            },
            name="wide_map",
        )
        functions = {"work": FunctionSpec("work", lambda ctx, item: ctx.sleep(1.0) or item)}
        platform = Platform(resolve_platform("gcp"), seed=2)
        payload = {"items": list(range(30))}  # above GCP's limit of 20
        result, _ = platform.run_workflow(definition, functions, payload, invocation_id="m0")
        assert len(result) == 30
        records = platform.metrics.records_for("m0")
        starts = sorted(record.start for record in records)
        # The second wave must start only after the first wave finished sleeping.
        assert starts[-1] - starts[0] >= 1.0
