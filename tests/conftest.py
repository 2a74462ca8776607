"""Shared fixtures for the SeBS-Flow reproduction test suite."""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import execute_plan, plan_artifacts, render_plan
from repro.core.definition import WorkflowDefinition
from repro.sim import FunctionSpec, Platform, resolve_platform
from repro.sim.platforms import spec as platform_spec_module


@pytest.fixture(autouse=True)
def isolated_platform_registry():
    """Snapshot the global platform registry around every test.

    Tests register eras, platforms, and scenarios freely; restoring the
    registry afterwards keeps the suite order-independent.
    """
    factories = dict(platform_spec_module._FACTORIES)
    platforms = list(platform_spec_module._PLATFORM_NAMES)
    eras = list(platform_spec_module._ERAS)
    scenarios = dict(platform_spec_module._SCENARIOS)
    runtime_keys = set(platform_spec_module._RUNTIME_KEYS)
    yield
    platform_spec_module._FACTORIES.clear()
    platform_spec_module._FACTORIES.update(factories)
    platform_spec_module._PLATFORM_NAMES[:] = platforms
    platform_spec_module._ERAS[:] = eras
    platform_spec_module._SCENARIOS.clear()
    platform_spec_module._SCENARIOS.update(scenarios)
    platform_spec_module._RUNTIME_KEYS.clear()
    platform_spec_module._RUNTIME_KEYS.update(runtime_keys)


@pytest.fixture
def simple_definition() -> WorkflowDefinition:
    """A small generate -> map -> aggregate workflow used across test modules."""
    return WorkflowDefinition.from_dict(
        {
            "root": "gen",
            "states": {
                "gen": {"type": "task", "func_name": "generate", "next": "map_phase"},
                "map_phase": {
                    "type": "map",
                    "array": "items",
                    "root": "proc",
                    "next": "agg",
                    "states": {"proc": {"type": "task", "func_name": "process"}},
                },
                "agg": {"type": "task", "func_name": "aggregate"},
            },
        },
        name="simple",
    )


@pytest.fixture
def simple_functions() -> dict:
    """Function specs matching :func:`simple_definition`."""

    def generate(ctx, payload):
        ctx.compute(0.05)
        count = int(payload.get("count", 4)) if isinstance(payload, dict) else 4
        return {"items": list(range(count))}

    def process(ctx, item):
        ctx.compute(0.1)
        return int(item) * 2

    def aggregate(ctx, items):
        ctx.compute(0.02)
        return {"sum": sum(items), "n": len(items)}

    return {
        "generate": FunctionSpec("generate", generate, cold_init_s=0.05),
        "process": FunctionSpec("process", process, cold_init_s=0.05),
        "aggregate": FunctionSpec("aggregate", aggregate, cold_init_s=0.05),
    }


@pytest.fixture(params=["aws", "gcp", "azure"])
def cloud_platform(request) -> Platform:
    """A fresh simulated platform instance for each cloud provider."""
    return Platform(resolve_platform(request.param), seed=42)


@pytest.fixture
def aws_platform() -> Platform:
    return Platform(resolve_platform("aws"), seed=7)


@pytest.fixture
def azure_platform() -> Platform:
    return Platform(resolve_platform("azure"), seed=7)


@pytest.fixture
def gcp_platform() -> Platform:
    return Platform(resolve_platform("gcp"), seed=7)


@pytest.fixture(scope="session")
def build_artifacts():
    """Plan artifacts as one campaign, execute it serially, and return each
    artifact's data as ``{name: data}``."""

    def _build(names, config):
        plan = plan_artifacts(list(names), config)
        rendered = render_plan(plan, execute_plan(plan, workers=1))
        return {name: artifact.data for name, artifact in rendered.items()}

    return _build
