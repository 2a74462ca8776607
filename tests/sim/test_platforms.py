"""Tests for platform profiles, the platform runtime, and function invocation."""

import pytest

from repro.core import WorkflowDefinition
from repro.sim import FunctionSpec, Platform, resolve_platform
from repro.sim.platforms import ALL_PLATFORMS, CLOUD_PLATFORMS, available_platforms


class TestProfileRegistry:
    def test_all_platforms_available_in_both_eras(self):
        for era in ("2022", "2024"):
            assert set(available_platforms(era)) == set(ALL_PLATFORMS)

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            resolve_platform("ibm")

    def test_unknown_era_rejected(self):
        with pytest.raises(KeyError):
            resolve_platform("aws@2030")

    def test_cloud_platforms_subset(self):
        assert set(CLOUD_PLATFORMS) == {"aws", "gcp", "azure"}

    def test_profiles_reflect_paper_table2(self):
        assert resolve_platform("aws").orchestration.max_parallelism == 40
        assert resolve_platform("gcp").orchestration.max_parallelism == 20
        assert resolve_platform("azure").orchestration.kind == "durable"
        assert resolve_platform("aws").orchestration.kind == "state_machine"

    def test_azure_pool_is_shared_and_small(self):
        profile = resolve_platform("azure")
        assert profile.scaling.max_containers == 10
        assert not profile.scaling.per_function_pools

    def test_era_2022_azure_has_higher_dispatch_overhead(self):
        old = resolve_platform("azure@2022")
        new = resolve_platform("azure@2024")
        assert old.orchestration.dispatch_base_s > new.orchestration.dispatch_base_s

    def test_with_overrides_returns_modified_copy(self):
        profile = resolve_platform("aws")
        changed = profile.with_overrides(default_memory_mb=2048)
        assert changed.default_memory_mb == 2048
        assert profile.default_memory_mb != 2048 or profile is not changed

    def test_with_overrides_rejects_unknown_fields_by_name(self):
        """A typo'd field raises a KeyError naming it and the valid fields,
        not an opaque replace() TypeError."""
        profile = resolve_platform("aws")
        with pytest.raises(KeyError) as excinfo:
            profile.with_overrides(default_memory="oops", regon="eu")
        message = str(excinfo.value)
        assert "default_memory" in message and "regon" in message
        assert "default_memory_mb" in message and "region" in message


class TestFunctionInvocation:
    def invoke(self, platform: Platform, handler, payload=None, memory=256):
        spec = FunctionSpec("probe", handler, cold_init_s=0.1)
        process = platform.env.process(
            platform.invoke_function(spec, payload or {}, "phase", "inv-1", memory)
        )
        return platform.env.run(until=process)

    def test_handler_result_returned(self, aws_platform):
        result = self.invoke(aws_platform, lambda ctx, payload: {"ok": True})
        assert result == {"ok": True}

    def test_measurement_reported(self, aws_platform):
        self.invoke(aws_platform, lambda ctx, payload: ctx.compute(0.1) and None)
        records = aws_platform.metrics.records_for("inv-1")
        assert len(records) == 1
        assert records[0].function == "probe"
        assert records[0].cold_start
        assert records[0].end > records[0].start

    def test_execution_record_for_billing(self, aws_platform):
        self.invoke(aws_platform, lambda ctx, payload: None)
        assert len(aws_platform.executions) == 1
        assert aws_platform.executions[0].memory_mb == 256

    def test_compute_scaled_by_cpu_share(self, aws_platform):
        def handler(ctx, payload):
            ctx.compute(1.0)
            return None

        self.invoke(aws_platform, handler, memory=256)
        record = aws_platform.metrics.records_for("inv-1")[0]
        # 1 second of work at ~0.14 vCPU plus cold init must take much longer than 1 s.
        assert record.duration > 4.0

    def test_azure_gets_full_cpu(self, azure_platform):
        def handler(ctx, payload):
            ctx.compute(1.0)
            return None

        self.invoke(azure_platform, handler, memory=256)
        record = azure_platform.metrics.records_for("inv-1")[0]
        assert record.duration < 2.0

    def test_storage_roundtrip_through_context(self, aws_platform):
        def writer(ctx, payload):
            ctx.upload("results/data.bin", 1_000_000)
            return {"key": "results/data.bin"}

        def reader(ctx, payload):
            obj = ctx.download(payload["key"])
            return {"size": obj.size_bytes}

        written = self.invoke(aws_platform, writer)
        spec = FunctionSpec("reader", reader)
        process = aws_platform.env.process(
            aws_platform.invoke_function(spec, written, "phase2", "inv-1", 256)
        )
        result = aws_platform.env.run(until=process)
        assert result == {"size": 1_000_000}

    def test_nosql_roundtrip_through_context(self, aws_platform):
        def handler(ctx, payload):
            ctx.nosql_put("table", "pk", {"value": 7}, sort_key="s")
            return ctx.nosql_get("table", "pk", sort_key="s")

        result = self.invoke(aws_platform, handler)
        assert result["value"] == 7


class TestWorkflowExecution:
    def test_run_workflow_on_every_platform(self, simple_definition, simple_functions):
        for name in ("aws", "gcp", "azure", "hpc"):
            platform = Platform(resolve_platform(name), seed=1)
            result, stats = platform.run_workflow(
                simple_definition, simple_functions, {"count": 3}, invocation_id="w0"
            )
            assert result == {"sum": 6, "n": 3}
            assert stats.activity_count == 5
            assert stats.wall_clock_s > 0
            assert len(platform.metrics.records_for("w0")) == 5

    def test_state_machine_counts_transitions(self, simple_definition, simple_functions):
        platform = Platform(resolve_platform("aws"), seed=1)
        _, stats = platform.run_workflow(simple_definition, simple_functions, {"count": 4})
        # fixed(2) + gen(1) + map setup(1) + 4 items(4) + agg(1)
        assert stats.state_transitions == 9

    def test_durable_counts_history_events(self, simple_definition, simple_functions):
        platform = Platform(resolve_platform("azure"), seed=1)
        _, stats = platform.run_workflow(simple_definition, simple_functions, {"count": 4})
        assert stats.state_transitions >= 2 * 6
        assert stats.orchestrator_time_s > 0

    def test_unknown_function_raises(self, simple_definition):
        platform = Platform(resolve_platform("aws"), seed=1)
        with pytest.raises(Exception):
            platform.run_workflow(simple_definition, {}, {"count": 2})

    def test_hpc_runs_much_faster_than_clouds(self, simple_definition, simple_functions):
        durations = {}
        for name in ("aws", "hpc"):
            platform = Platform(resolve_platform(name), seed=1)
            _, stats = platform.run_workflow(simple_definition, simple_functions, {"count": 3})
            durations[name] = stats.wall_clock_s
        assert durations["hpc"] < durations["aws"] / 5

    def test_switch_routing_executes_compensation_path(self):
        definition = WorkflowDefinition.from_dict(
            {
                "root": "check",
                "states": {
                    "check": {"type": "task", "func_name": "probe", "next": "route"},
                    "route": {
                        "type": "switch",
                        "cases": [
                            {"variable": "value", "operator": ">", "value": 5, "next": "big"},
                        ],
                        "default": "small",
                    },
                    "big": {"type": "task", "func_name": "handle_big"},
                    "small": {"type": "task", "func_name": "handle_small"},
                },
            },
            name="switchy",
        )
        functions = {
            "probe": FunctionSpec("probe", lambda ctx, p: {"value": 10}),
            "handle_big": FunctionSpec("handle_big", lambda ctx, p: "big"),
            "handle_small": FunctionSpec("handle_small", lambda ctx, p: "small"),
        }
        for name in ("aws", "azure"):
            platform = Platform(resolve_platform(name), seed=1)
            result, _ = platform.run_workflow(definition, functions, {})
            assert result == "big"
