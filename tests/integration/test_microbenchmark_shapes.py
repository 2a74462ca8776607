"""Integration tests for the microbenchmark findings (Figures 9, 10, 13, 14, 16)."""

import pytest

from repro.analysis.artifacts import ArtifactConfig

SEED = 5


@pytest.fixture
def build_figure(build_artifacts):
    """Build one figure at ``SEED`` with per-artifact overrides."""

    def _build(name, **overrides):
        config = ArtifactConfig(seed=SEED).with_overrides(name, **overrides)
        return build_artifacts([name], config)[name]

    return _build


class TestFigure9aStorage:
    def test_azure_overhead_explodes_with_download_size(self, build_figure):
        series = build_figure(
            "figure9a", download_sizes=(1 << 20, 1 << 27), num_functions=20, burst_size=8,
        )
        azure_small = series["azure"][0]["median_overhead_s"]
        azure_large = series["azure"][1]["median_overhead_s"]
        aws_small = series["aws"][0]["median_overhead_s"]
        aws_large = series["aws"][1]["median_overhead_s"]
        assert azure_large > 4 * azure_small
        assert azure_large > 5 * aws_large
        assert aws_large < aws_small * 5  # AWS stays roughly constant


class TestFigure9bPayload:
    def test_azure_latency_grows_beyond_16kb(self, build_figure):
        series = build_figure(
            "figure9b", payload_sizes=(1 << 8, 1 << 17), chain_length=5, burst_size=5,
        )
        azure_small = series["azure"][0]["median_latency_s"]
        azure_large = series["azure"][1]["median_latency_s"]
        aws_large = series["aws"][1]["median_latency_s"]
        assert azure_large > 2.5 * azure_small
        assert azure_large > 3 * aws_large


class TestFigure10ParallelSleep:
    def test_relative_overhead_ordering(self, build_figure):
        heatmaps = build_figure(
            "figure10", parallelism=(2, 8), durations_s=(1.0,), burst_size=10,
        )
        azure = heatmaps["azure"]["N=8,T=1"]["relative_overhead"]
        gcp = heatmaps["gcp"]["N=8,T=1"]["relative_overhead"]
        aws = heatmaps["aws"]["N=8,T=1"]["relative_overhead"]
        assert azure > gcp > aws
        assert aws < 2.5

    def test_aws_overhead_shrinks_with_longer_sleeps(self, build_figure):
        heatmaps = build_figure(
            "figure10", parallelism=(4,), durations_s=(1.0, 10.0), burst_size=5,
        )
        short = heatmaps["aws"]["N=4,T=1"]["relative_overhead"]
        long = heatmaps["aws"]["N=4,T=10"]["relative_overhead"]
        assert long < short


class TestFigure13Noise:
    def test_suspension_curves_and_normalisation(self, build_figure):
        data = build_figure("figure13", memory_configurations=(128, 1024, 2048),
                            events=1000)
        aws_curve = {point["memory_mb"]: point for point in data["suspension"]["aws"]}
        assert aws_curve[128]["measured_suspension"] > aws_curve[2048]["measured_suspension"]
        azure_curve = {point["memory_mb"]: point for point in data["suspension"]["azure"]}
        assert azure_curve[128]["measured_suspension"] < 0.2
        normalized = data["normalized_critical_path"]["mapreduce"]
        for platform, values in normalized.items():
            assert values["normalized_critical_path_s"] <= values["original_critical_path_s"]


class TestFigure14ScientificWorkflows:
    def test_hpc_much_faster_and_clouds_scale(self, build_figure):
        data = build_figure("figure14", job_counts=(5, 10), burst_size=2,
                            platforms=("aws", "hpc"))
        assert data["full_workflow"]["hpc"]["mean_runtime_s"] < (
            data["full_workflow"]["aws"]["mean_runtime_s"] / 5
        )
        aws_speedup = data["speedups"]["aws"][0]["speedup"]
        assert aws_speedup > 1.5  # near-ideal strong scaling on the cloud


class TestFigure16Evolution:
    def test_azure_ml_overhead_halved_between_eras(self, build_figure):
        data = build_figure("figure16", benchmarks=("ml",), burst_size=8,
                            platforms=("azure", "aws"))
        azure = data["ml"]["azure"]
        assert azure["2022"]["median_overhead_s"] > 1.5 * azure["2024"]["median_overhead_s"]
        aws = data["ml"]["aws"]
        assert aws["2024"]["median_runtime_s"] == pytest.approx(
            aws["2022"]["median_runtime_s"], rel=0.35
        )
