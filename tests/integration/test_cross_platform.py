"""Integration tests: qualitative reproduction of the paper's headline findings.

These tests run small bursts (to stay fast) and assert the *shape* of the
paper's results -- who wins, where the overhead comes from -- rather than
absolute numbers.
"""

import pytest

from repro.analysis import figures
from repro.analysis.artifacts import ArtifactConfig, execute_plan, get_artifact, plan_artifacts
from repro.benchmarks import get_benchmark
from repro.faas.experiment import run_benchmark
from repro.faas.metrics import split_warm_cold
from repro.faas.workload import WorkloadSpec

BURST = 10
SEED = 11
CONFIG = ArtifactConfig(
    burst_size=BURST, seed=SEED, benchmarks=("mapreduce", "ml", "video_analysis")
)


@pytest.fixture(scope="module")
def e1_campaign():
    """A shared small-scale run of three representative application benchmarks."""
    return execute_plan(plan_artifacts(["figure7"], CONFIG), workers=1)


@pytest.fixture(scope="module")
def campaign(e1_campaign):
    return figures.collect_e1(e1_campaign, CONFIG)


class TestRQ1Runtime:
    def test_no_single_platform_wins_everywhere(self, campaign):
        fastest = set()
        for benchmark, per_platform in campaign.items():
            medians = {p: r.median_runtime for p, r in per_platform.items()}
            fastest.add(min(medians, key=medians.get))
        assert len(fastest) >= 2

    def test_azure_slowest_for_data_heavy_video(self, campaign):
        medians = {p: r.median_runtime for p, r in campaign["video_analysis"].items()}
        assert medians["azure"] == max(medians.values())
        assert medians["azure"] > 5 * medians["aws"]

    def test_azure_fast_for_mapreduce_and_ml(self, campaign):
        for benchmark in ("mapreduce", "ml"):
            medians = {p: r.median_runtime for p, r in campaign[benchmark].items()}
            assert medians["azure"] <= min(medians["aws"], medians["gcp"]) * 1.2

    def test_gcp_slower_than_aws_on_all_three(self, campaign):
        for benchmark, per_platform in campaign.items():
            assert per_platform["gcp"].median_runtime > per_platform["aws"].median_runtime


class TestRQ2OverheadAndCriticalPath:
    def test_azure_runtime_dominated_by_overhead_on_video(self, campaign):
        result = campaign["video_analysis"]["azure"]
        assert result.median_overhead > 3 * result.median_critical_path

    def test_aws_overhead_is_small(self, campaign):
        for benchmark, per_platform in campaign.items():
            result = per_platform["aws"]
            assert result.median_overhead < result.median_critical_path

    def test_azure_critical_path_fastest_at_low_memory(self, campaign):
        crits = {p: r.median_critical_path for p, r in campaign["mapreduce"].items()}
        assert crits["azure"] == min(crits.values())

    def test_cold_start_fractions_match_table5_ordering(self, campaign):
        for benchmark, per_platform in campaign.items():
            cold = {p: r.cold_start_fraction for p, r in per_platform.items()}
            assert cold["aws"] > 0.7, benchmark
            assert 0.2 < cold["gcp"] < 0.95, benchmark
            assert cold["azure"] < 0.15, benchmark

    def test_warm_invocations_shorten_critical_path(self):
        cold = run_benchmark(get_benchmark("ml"), "aws", seed=SEED,
                             workload=WorkloadSpec.burst(BURST))
        warm = run_benchmark(get_benchmark("ml"), "aws", seed=SEED,
                             workload=WorkloadSpec.warm(BURST))
        warm_only = split_warm_cold(warm.measurements)["warm"]
        assert warm_only, "warm trigger produced no fully warm invocations"
        warm_crit = sorted(m.critical_path() for m in warm_only)[len(warm_only) // 2]
        assert warm_crit < cold.median_critical_path


class TestScalingProfiles:
    def test_azure_never_exceeds_ten_containers(self, campaign):
        for benchmark, per_platform in campaign.items():
            profile = per_platform["azure"].scaling_profile
            assert max(point["containers"] for point in profile) <= 10

    def test_aws_uses_more_containers_than_gcp(self, campaign):
        aws = campaign["mapreduce"]["aws"].containers_created
        gcp = campaign["mapreduce"]["gcp"].containers_created
        azure = campaign["mapreduce"]["azure"].containers_created
        assert aws > gcp > azure


class TestRQ4Pricing:
    def test_pricing_shapes(self, e1_campaign):
        pricing = get_artifact("figure15").build(e1_campaign, CONFIG)
        # GCP is the most expensive platform for MapReduce (many state transitions).
        mapreduce = pricing["mapreduce"]
        assert mapreduce["gcp"]["total_usd"] == max(v["total_usd"] for v in mapreduce.values())
        # AWS charges the most for the compute-heavy video benchmark.
        video = pricing["video_analysis"]
        assert video["aws"]["function_usd"] > video["gcp"]["function_usd"]
        # Orchestration cost is a visible fraction on AWS/GCP.
        assert mapreduce["aws"]["orchestration_usd"] > 0
        assert mapreduce["gcp"]["orchestration_usd"] > mapreduce["aws"]["orchestration_usd"]

    def test_trip_booking_nosql_cost_share(self):
        result = run_benchmark(get_benchmark("trip_booking"), "aws", seed=SEED,
                               workload=WorkloadSpec.burst(5))
        breakdown = result.cost.per_1000_executions
        assert breakdown.nosql_usd > 0
        assert breakdown.nosql_usd < 0.2 * breakdown.total_usd
