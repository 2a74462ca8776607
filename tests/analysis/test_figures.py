"""Unit tests for the figure builders (small configurations)."""

import pytest

from repro.analysis.artifacts import ArtifactConfig

SMALL = ArtifactConfig(burst_size=3, seed=2, benchmarks=("mapreduce",))


@pytest.fixture(scope="module")
def small_figures(build_artifacts):
    return build_artifacts(["figure7", "figure8", "figure11", "figure15"], SMALL)


class TestCampaignReuse:
    def test_figure7_and_8_share_campaign(self, small_figures):
        f7 = small_figures["figure7"]
        f8 = small_figures["figure8"]
        assert set(f7["mapreduce"]) == {"aws", "gcp", "azure"}
        for platform in f7["mapreduce"]:
            assert f7["mapreduce"][platform]["median_runtime_s"] == pytest.approx(
                f8["mapreduce"][platform]["median_runtime_s"]
            )
            assert (
                f8["mapreduce"][platform]["median_critical_path_s"]
                <= f7["mapreduce"][platform]["median_runtime_s"]
            )

    def test_figure11_profiles_from_campaign(self, small_figures):
        profiles = small_figures["figure11"]
        assert set(profiles["mapreduce"]) == {"aws", "gcp", "azure"}
        for series in profiles["mapreduce"].values():
            assert all(point["containers"] >= 0 for point in series)

    def test_figure15_pricing_from_campaign(self, small_figures):
        pricing = small_figures["figure15"]
        for platform, values in pricing["mapreduce"].items():
            assert values["total_usd"] > 0
            assert values["total_usd"] == pytest.approx(
                values["function_usd"] + values["orchestration_usd"]
                + values["storage_usd"] + values["nosql_usd"]
            )


class TestStandaloneFigures:
    def test_figure9a_series_structure(self, build_artifacts):
        config = ArtifactConfig(seed=1).with_overrides(
            "figure9a", download_sizes=(1024,), num_functions=2, burst_size=2,
            platforms=("aws",),
        )
        series = build_artifacts(["figure9a"], config)["figure9a"]
        assert list(series) == ["aws"]
        assert series["aws"][0]["download_bytes"] == 1024.0
        assert series["aws"][0]["median_overhead_s"] >= 0

    def test_figure10_cells(self, build_artifacts):
        config = ArtifactConfig(seed=1).with_overrides(
            "figure10", parallelism=(2,), durations_s=(1.0,), burst_size=2,
            platforms=("aws",),
        )
        heatmaps = build_artifacts(["figure10"], config)["figure10"]
        cell = heatmaps["aws"]["N=2,T=1"]
        assert cell["relative_overhead"] >= 1.0
        assert cell["median_runtime_s"] >= 1.0

    def test_figure13_structure(self, build_artifacts):
        config = ArtifactConfig(seed=1).with_overrides(
            "figure13", memory_configurations=(256,), events=200, platforms=("aws",),
        )
        data = build_artifacts(["figure13"], config)["figure13"]
        assert data["suspension"]["aws"][0]["memory_mb"] == 256.0
        assert "mapreduce" in data["normalized_critical_path"]

    def test_figure16_era_keys(self, build_artifacts):
        config = ArtifactConfig(seed=1).with_overrides(
            "figure16", benchmarks=("mapreduce",), burst_size=2, platforms=("aws",),
        )
        data = build_artifacts(["figure16"], config)["figure16"]
        assert set(data["mapreduce"]["aws"]) == {"2022", "2024"}
