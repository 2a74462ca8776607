"""Tests for triggers, the experiment runner, metrics aggregation, and cost reports."""

import gc
import json

import pytest

from repro.benchmarks import get_benchmark
from repro.faas import (
    Deployment,
    ExperimentConfig,
    ExperimentRunner,
    TriggerConfig,
    BurstTrigger,
    WarmTrigger,
    WorkloadSpec,
    compare_platforms,
    run_benchmark,
    split_warm_cold,
    summarize,
)
from repro.faas.results import (
    load_measurements,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.observability import MetricsRegistry, use_registry
from repro.sim.platforms import Platform, PlatformSpec, resolve_platform


@pytest.mark.parametrize("recording", [False, True], ids=["null-registry", "recording"])
@pytest.mark.parametrize("workload", ["burst:burst_size=5", "warm", "poisson:rate=2,duration=10"])
@pytest.mark.parametrize("platform", ["aws", "gcp", "azure"])
def test_repetition_world_is_freed_without_the_cyclic_gc(platform, workload, recording):
    """A finished experiment leaves nothing of its platforms for the cyclic GC:
    no reference cycle holds a repetition's engine, streams or records."""
    runner = ExperimentRunner(ExperimentConfig(platform=platform, workload=workload, seed=0))
    benchmark = get_benchmark("function_chain")
    gc.collect()
    debug = gc.get_debug()
    gc.disable()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        if recording:
            with use_registry(MetricsRegistry()):
                runner.run(benchmark)
        else:
            runner.run(benchmark)
        gc.collect()
        leaked = sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                         for obj in gc.garbage if type(obj).__module__.startswith("repro")})
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        gc.enable()
    assert not leaked


class TestTriggers:
    def test_burst_trigger_runs_all_invocations(self):
        benchmark = get_benchmark("mapreduce")
        platform = Platform(resolve_platform("aws"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        ids = BurstTrigger(TriggerConfig(burst_size=5)).fire(deployment)
        assert len(ids) == 5
        assert len(deployment.invocations) == 5

    def test_burst_invocations_overlap_in_time(self):
        benchmark = get_benchmark("mapreduce")
        platform = Platform(resolve_platform("aws"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        ids = BurstTrigger(TriggerConfig(burst_size=5)).fire(deployment)
        measurements = [deployment.measurement(i) for i in ids]
        starts = [m.start for m in measurements]
        assert max(starts) - min(starts) < 1.0

    def test_warm_trigger_produces_mostly_warm_invocations(self):
        benchmark = get_benchmark("mapreduce")
        platform = Platform(resolve_platform("aws"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        measured_ids = WarmTrigger(TriggerConfig(burst_size=5)).fire(deployment)
        measurements = [deployment.measurement(i) for i in measured_ids]
        warm = split_warm_cold(measurements)["warm"]
        assert len(warm) >= len(measurements) // 2


class TestExperimentConfig:
    def test_invalid_burst_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="burst:burst_size=0")

    def test_default_workload_is_the_paper_burst(self):
        assert ExperimentConfig().workload == WorkloadSpec.burst(30)

    @pytest.mark.parametrize("kwarg", [
        {"mode": "warm"}, {"burst_size": 5}, {"era": "2022"},
    ])
    def test_removed_trigger_kwargs_raise(self, kwarg):
        """The mode/burst_size/era aliases are gone: a workload spec and an
        era-pinned platform spec are the only way to say the same things."""
        with pytest.raises(TypeError):
            ExperimentConfig(**kwarg)
        with pytest.raises(TypeError):
            run_benchmark(get_benchmark("function_chain"), "aws", **kwarg)

    @pytest.mark.parametrize("kwarg", [{"mode": "warm"}, {"burst_size": 5}])
    def test_compare_platforms_rejects_removed_trigger_kwargs(self, kwarg):
        with pytest.raises(TypeError):
            compare_platforms(get_benchmark("function_chain"), **kwarg)


class TestExperimentRunner:
    def test_run_produces_summary_cost_and_profile(self):
        result = run_benchmark(get_benchmark("mapreduce"), "aws",
                               workload=WorkloadSpec.burst(5), seed=1)
        assert result.summary is not None
        assert result.summary.invocations == 5
        assert result.cost is not None
        assert result.cost.per_1000_executions.total_usd > 0
        assert result.scaling_profile
        assert result.containers_created > 0

    def test_repetitions_accumulate_measurements(self):
        result = run_benchmark(get_benchmark("mapreduce"), "aws", workload=WorkloadSpec.burst(3),
                               repetitions=2, seed=1)
        assert len(result.measurements) == 6

    def test_memory_override(self):
        result = run_benchmark(get_benchmark("mapreduce"), "aws",
                               workload=WorkloadSpec.burst(3), seed=1,
                               memory_mb=2048)
        assert all(m.memory_mb == 2048 for m in result.measurements)

    def test_compare_platforms_returns_result_per_platform(self):
        results = compare_platforms(get_benchmark("ml"), platforms=("aws", "azure"),
                                    workload=WorkloadSpec.burst(3), seed=1)
        assert set(results) == {"aws", "azure"}
        for result in results.values():
            assert result.median_runtime > 0

    def test_warm_mode_reduces_cold_start_fraction(self):
        cold = run_benchmark(get_benchmark("ml"), "aws", workload=WorkloadSpec.burst(5), seed=1)
        warm = run_benchmark(get_benchmark("ml"), "aws", workload=WorkloadSpec.warm(5), seed=1)
        assert warm.cold_start_fraction < cold.cold_start_fraction

    def test_deterministic_given_seed(self):
        first = run_benchmark(get_benchmark("mapreduce"), "gcp", workload=WorkloadSpec.burst(4),
                              seed=9)
        second = run_benchmark(get_benchmark("mapreduce"), "gcp",
                               workload=WorkloadSpec.burst(4), seed=9)
        assert first.median_runtime == pytest.approx(second.median_runtime)
        assert first.cold_start_fraction == pytest.approx(second.cold_start_fraction)

    def test_different_seeds_differ(self):
        first = run_benchmark(get_benchmark("mapreduce"), "gcp", workload=WorkloadSpec.burst(4),
                              seed=1)
        second = run_benchmark(get_benchmark("mapreduce"), "gcp",
                               workload=WorkloadSpec.burst(4), seed=2)
        assert first.median_runtime != pytest.approx(second.median_runtime, rel=1e-6)


class TestPlatformSpecConfig:
    def test_spec_path_golden_is_pinned(self):
        """Regression pin: an era-pinned spec and a workload spec reproduce
        the exact numbers of the earliest releases."""
        result = run_benchmark(get_benchmark("mapreduce"), "aws@2022", seed=0,
                               workload=WorkloadSpec.burst(3))
        assert result.median_runtime == 11.722144092900013
        assert result.cost is not None
        assert result.cost.per_execution.total_usd == 0.0004624146823211932

    def test_config_normalises_platform_to_a_pinned_spec(self):
        config = ExperimentConfig(platform="aws")
        assert config.platform == PlatformSpec(base="aws", era="2024")
        assert config.platform_name == "aws"
        assert ExperimentConfig(platform="aws@2022").platform_spec.era == "2022"

    def test_unknown_platform_rejected_at_config_time(self):
        with pytest.raises(KeyError):
            ExperimentConfig(platform="ibm")

    def test_override_spec_changes_results(self):
        base = run_benchmark(get_benchmark("function_chain"), "aws",
                             workload=WorkloadSpec.burst(2), seed=1)
        slow = run_benchmark(get_benchmark("function_chain"), "aws:cold_start=x5",
                             workload=WorkloadSpec.burst(2), seed=1)
        assert slow.median_runtime > base.median_runtime
        assert slow.platform == "aws:scaling.cold_start_median_s=x5"

    def test_result_platform_label_is_era_less(self):
        result = run_benchmark(get_benchmark("function_chain"), "aws@2022",
                               workload=WorkloadSpec.burst(2), seed=1)
        assert result.platform == "aws"
        assert result.config.platform_spec.era == "2022"

    def test_spec_config_round_trips_through_documents(self):
        result = run_benchmark(get_benchmark("function_chain"),
                               "azure@2022:cold_start=x1.5",
                               workload=WorkloadSpec.burst(2), seed=3)
        document = json.loads(json.dumps(result_to_dict(result)))
        assert document["config"]["platform"] == \
            "azure:scaling.cold_start_median_s=x1.5"
        assert document["config"]["era"] == "2022"
        restored = result_from_dict(document)
        assert restored.config == result.config
        assert restored.config.platform_spec == \
            PlatformSpec.parse("azure@2022:cold_start=x1.5")
        assert restored.median_runtime == pytest.approx(result.median_runtime)

    def test_documents_without_platform_spec_are_rejected(self):
        """Documents predating the platform-spec field raise instead of being
        misread from their flat platform/era copies."""
        result = run_benchmark(get_benchmark("function_chain"), "aws@2022",
                               workload=WorkloadSpec.burst(2), seed=1)
        document = json.loads(json.dumps(result_to_dict(result)))
        assert document["config"]["era"] == "2022"
        assert document["config"]["mode"] == "burst"
        assert document["config"]["burst_size"] == 2
        del document["config"]["platform_spec"]
        with pytest.raises(KeyError):
            result_from_dict(document)

    def test_compare_platforms_keeps_spec_keys_distinct(self):
        results = compare_platforms(
            get_benchmark("function_chain"), platforms=("aws", "aws@2022"),
            workload=WorkloadSpec.burst(2), seed=1,
        )
        assert set(results) == {"aws", "aws@2022"}
        with pytest.raises(ValueError, match="duplicate"):
            compare_platforms(get_benchmark("function_chain"),
                              platforms=("aws", "aws"), workload=WorkloadSpec.burst(2))
        # "aws" and "aws@2024" are the same cell once the default era applies.
        with pytest.raises(ValueError, match="duplicate"):
            compare_platforms(get_benchmark("function_chain"),
                              platforms=("aws", "aws@2024"), workload=WorkloadSpec.burst(2))

    def test_compare_platforms_pinned_era_wins_over_global_era(self):
        """Mixing era-pinned specs with a comparison-wide era compares the
        eras (campaign pinned-entry semantics) instead of raising."""
        results = compare_platforms(
            get_benchmark("function_chain"), platforms=("aws", "aws@2022"),
            era="2024", workload=WorkloadSpec.burst(2), seed=1,
        )
        assert results["aws"].config.platform_spec.era == "2024"
        assert results["aws@2022"].config.platform_spec.era == "2022"


class TestCostAccounting:
    def test_cost_per_execution_invariant_to_repetitions(self):
        """Regression: billing previously divided a single repetition's platform
        costs by the invocation count of ALL repetitions, understating the
        per-execution cost by roughly the repetition count."""
        single = run_benchmark(get_benchmark("mapreduce"), "aws", workload=WorkloadSpec.burst(5),
                               repetitions=1, seed=7)
        triple = run_benchmark(get_benchmark("mapreduce"), "aws", workload=WorkloadSpec.burst(5),
                               repetitions=3, seed=7)
        assert single.cost is not None and triple.cost is not None
        assert triple.cost.executions == 3 * single.cost.executions
        assert triple.cost.per_execution.total_usd == pytest.approx(
            single.cost.per_execution.total_usd, rel=0.05
        )
        assert triple.cost.per_execution.compute_usd == pytest.approx(
            single.cost.per_execution.compute_usd, rel=0.05
        )
        assert triple.cost.per_execution.storage_usd == pytest.approx(
            single.cost.per_execution.storage_usd, rel=0.05
        )

    def test_cost_invariance_on_durable_platform(self):
        single = run_benchmark(get_benchmark("ml"), "azure", workload=WorkloadSpec.burst(4),
                               repetitions=1, seed=11)
        double = run_benchmark(get_benchmark("ml"), "azure", workload=WorkloadSpec.burst(4),
                               repetitions=2, seed=11)
        assert double.cost.per_execution.total_usd == pytest.approx(
            single.cost.per_execution.total_usd, rel=0.05
        )

    def test_run_repetition_is_addressable(self):
        runner = ExperimentRunner(ExperimentConfig(platform="aws",
                                                   workload=WorkloadSpec.burst(3), seed=5))
        rep = runner.run_repetition(get_benchmark("mapreduce"), repetition=0)
        assert len(rep.measurements) == 3
        assert len(rep.orchestration_stats) == 3
        assert rep.containers_created > 0
        assert rep.cost is not None and rep.cost.executions == 3

    def test_repetitions_of_full_run_match_unit_of_work(self):
        config = ExperimentConfig(platform="gcp", workload=WorkloadSpec.burst(3), repetitions=2,
                                  seed=5)
        runner = ExperimentRunner(config)
        benchmark = get_benchmark("mapreduce")
        full = runner.run(benchmark)
        reps = [runner.run_repetition(benchmark, r) for r in range(2)]
        assert len(full.measurements) == sum(len(r.measurements) for r in reps)
        assert full.containers_created == sum(r.containers_created for r in reps)


class TestRepeatedTriggerModes:
    def test_burst_mode_with_repetitions(self):
        result = run_benchmark(get_benchmark("ml"), "aws", workload=WorkloadSpec.burst(4),
                               repetitions=3, seed=2)
        assert result.summary is not None
        assert result.summary.invocations == 12
        # Every repetition deploys a fresh platform, so bursts stay cold.
        assert result.cold_start_fraction > 0.5

    def test_warm_mode_with_repetitions(self):
        burst = run_benchmark(get_benchmark("ml"), "aws", workload=WorkloadSpec.burst(4),
                              repetitions=2, seed=2)
        warm = run_benchmark(get_benchmark("ml"), "aws", workload=WorkloadSpec.warm(4),
                             repetitions=2, seed=2)
        assert warm.summary is not None
        assert warm.summary.invocations == 8
        assert len(warm.measurements) == 8
        assert warm.cold_start_fraction < burst.cold_start_fraction

    def test_warm_repetitions_have_distinct_invocation_ids(self):
        result = run_benchmark(get_benchmark("ml"), "aws", workload=WorkloadSpec.warm(3),
                               repetitions=2, seed=2)
        ids = [m.invocation_id for m in result.measurements]
        assert len(set(ids)) == len(ids) == 6


class TestSummaries:
    def test_summary_statistics_consistent(self):
        result = run_benchmark(get_benchmark("mapreduce"), "azure",
                               workload=WorkloadSpec.burst(5), seed=3)
        summary = result.summary
        assert summary.median_runtime >= summary.median_critical_path
        assert summary.median_overhead >= 0
        assert 0 <= summary.cold_start_fraction <= 1
        row = summary.as_row()
        assert row["benchmark"] == "mapreduce"
        assert row["platform"] == "azure"

    def test_summarize_empty_measurements(self):
        summary = summarize("x", "aws", [])
        assert summary.median_runtime == 0.0
        assert summary.invocations == 0


class TestResultPersistence:
    def test_save_and_reload_measurements(self, tmp_path):
        result = run_benchmark(get_benchmark("mapreduce"), "aws",
                               workload=WorkloadSpec.burst(3), seed=1)
        path = tmp_path / "result.json"
        save_result(result, path)
        measurements = load_measurements(path)
        assert len(measurements) == 3
        assert measurements[0].runtime == pytest.approx(result.measurements[0].runtime)

    def test_result_to_dict_contains_cost_and_summary(self):
        result = run_benchmark(get_benchmark("mapreduce"), "gcp",
                               workload=WorkloadSpec.burst(3), seed=1)
        document = result_to_dict(result)
        assert document["benchmark"] == "mapreduce"
        assert "summary" in document
        assert "cost_per_1000" in document
        assert len(document["orchestration"]) == 3
