"""Functional tests of the four microbenchmarks."""

import pytest

from repro.benchmarks import get_benchmark
from repro.faas import Deployment
from repro.sim import Platform, resolve_platform


def run_once(benchmark, platform_name="aws", seed=1):
    platform = Platform(resolve_platform(platform_name), seed=seed)
    deployment = Deployment.deploy(benchmark, platform)
    return deployment.invoke_once("m0"), deployment


class TestFunctionChain:
    def test_chain_length_matches_parameter(self):
        result, deployment = run_once(get_benchmark("function_chain", length=6, payload_bytes=256))
        assert result.output["hops"] == 6
        assert len(deployment.measurement("m0").functions) == 6

    def test_payload_size_forwarded(self):
        result, _ = run_once(get_benchmark("function_chain", length=3, payload_bytes=4096))
        assert len(result.output["data"]) == 4096 - 64

    def test_large_payload_slower_on_azure_than_aws(self):
        sizes = {}
        for platform in ("aws", "azure"):
            benchmark = get_benchmark("function_chain", length=10, payload_bytes=131_072)
            platform_obj = Platform(resolve_platform(platform), seed=2)
            deployment = Deployment.deploy(benchmark, platform_obj)
            deployment.invoke_once("big")
            sizes[platform] = deployment.measurement("big").runtime
        assert sizes["azure"] > sizes["aws"]


class TestStorageIO:
    def test_every_worker_downloads_the_object(self):
        result, deployment = run_once(get_benchmark("storage_io", num_functions=5,
                                                     download_bytes=1 << 20))
        assert len(result.output) == 5
        assert all(entry["received_bytes"] == 1 << 20 for entry in result.output)
        measurement = deployment.measurement("m0")
        assert len(measurement.functions) == 5

    def test_download_size_parameter_respected(self):
        result, _ = run_once(get_benchmark("storage_io", num_functions=2, download_bytes=2048))
        assert all(entry["received_bytes"] == 2048 for entry in result.output)


class TestParallelSleep:
    def test_sleepers_run_concurrently(self):
        result, deployment = run_once(get_benchmark("parallel_sleep", num_functions=4,
                                                     sleep_seconds=2.0))
        assert len(result.output) == 4
        measurement = deployment.measurement("m0")
        # Concurrent execution: the phase runtime must be far below 4 x 2 s.
        assert measurement.phase_runtime("sleep_phase") < 6.0
        assert all(f.duration >= 2.0 for f in measurement.functions)

    def test_sleep_does_not_scale_with_cpu_share(self):
        # Sleeping is wall-clock time, not compute: durations are platform-agnostic.
        result, deployment = run_once(get_benchmark("parallel_sleep", num_functions=2,
                                                     sleep_seconds=1.0), platform_name="aws")
        durations = [f.duration for f in deployment.measurement("m0").functions]
        assert all(d < 1.5 for d in durations)


class TestSelfishDetour:
    def test_reports_suspension_share(self):
        result, _ = run_once(get_benchmark("selfish_detour", events=500, memory_mb=256))
        assert 0.0 <= result.output["suspension_share"] <= 1.0
        assert result.output["events"] == 500

    def test_suspension_decreases_with_memory_on_aws(self):
        low, _ = run_once(get_benchmark("selfish_detour", events=500, memory_mb=128))
        high, _ = run_once(get_benchmark("selfish_detour", events=500, memory_mb=2048))
        assert low.output["suspension_share"] > high.output["suspension_share"]

    def test_azure_suspension_is_low_regardless_of_memory(self):
        result, _ = run_once(get_benchmark("selfish_detour", events=500, memory_mb=128),
                             platform_name="azure")
        assert result.output["suspension_share"] < 0.25
