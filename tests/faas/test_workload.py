"""Tests for the workload subsystem: specs, executors, metrics, campaigns.

Includes the regression pins for the refactor away from the burst/warm
``mode`` string: closed-loop results must stay bit-identical with the
pre-workload implementation for the same seed.
"""

import json
import pickle

import pytest

from repro.benchmarks import get_benchmark
from repro.faas import (
    BurstTrigger,
    CampaignSpec,
    Deployment,
    ExperimentConfig,
    ExperimentRunner,
    TriggerConfig,
    WarmTrigger,
    WorkloadExecutor,
    WorkloadSpec,
    derive_platform_seed,
    invocation_id_base,
    open_loop_summary,
    result_from_dict,
    result_to_dict,
    run_benchmark,
    run_campaign,
)
from repro.sim.platforms import Platform, resolve_platform
from repro.sim.rng import RandomStreams


class TestWorkloadSpec:
    def test_burst_defaults_match_paper(self):
        spec = WorkloadSpec.burst()
        assert spec.kind == "burst"
        assert spec.burst_size == 30
        assert not spec.is_open_loop

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec.burst(burst_size=0)
        with pytest.raises(ValueError):
            WorkloadSpec.warm(settle_s=-1.0)
        with pytest.raises(ValueError):
            WorkloadSpec.poisson(rate=0, duration=10)
        with pytest.raises(ValueError):
            WorkloadSpec.constant(rate=5, duration=-1)
        with pytest.raises(ValueError):
            WorkloadSpec.ramp(start_rate=0, end_rate=0, duration=10)
        with pytest.raises(ValueError):
            WorkloadSpec.trace(timestamps=())
        with pytest.raises(ValueError):
            # Exceeds the arrival-volume safety cap.
            WorkloadSpec.poisson(rate=1e6, duration=1e6)
        with pytest.raises(ValueError):
            # Expected count exactly at the cap: no sampling headroom, so an
            # unlucky draw would overrun -- rejected up front.
            WorkloadSpec.poisson(rate=10000, duration=10)

    def test_parse_all_kinds(self):
        assert WorkloadSpec.parse("burst") == WorkloadSpec.burst()
        assert WorkloadSpec.parse("burst:burst_size=10") == WorkloadSpec.burst(burst_size=10)
        assert WorkloadSpec.parse("warm:settle_s=2.5") == WorkloadSpec.warm(settle_s=2.5)
        assert WorkloadSpec.parse("poisson:rate=50,duration=120") == \
            WorkloadSpec.poisson(rate=50, duration=120)
        assert WorkloadSpec.parse("constant:rate=10,duration=60") == \
            WorkloadSpec.constant(rate=10, duration=60)
        assert WorkloadSpec.parse("ramp:start_rate=1,end_rate=20,duration=300") == \
            WorkloadSpec.ramp(start_rate=1, end_rate=20, duration=300)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            WorkloadSpec.parse("chaotic")
        with pytest.raises(ValueError):
            WorkloadSpec.parse("poisson:rate")
        with pytest.raises(ValueError):
            WorkloadSpec.parse("poisson:rate=50,unknown=1")

    @pytest.mark.parametrize("text, message", [
        ("poisson:rate=nan,duration=10", "poisson rate must be finite"),
        ("poisson:rate=1,duration=nan", "poisson duration must be finite"),
        ("poisson:rate=inf,duration=10", "poisson rate must be finite"),
        ("constant:rate=nan,duration=10", "constant rate must be finite"),
        ("constant:rate=1,duration=nan", "constant duration must be finite"),
        ("ramp:start_rate=nan,end_rate=2,duration=10", "ramp start_rate must be finite"),
        ("ramp:start_rate=1,end_rate=nan,duration=10", "ramp end_rate must be finite"),
        ("ramp:start_rate=1,end_rate=2,duration=nan", "ramp duration must be finite"),
    ])
    def test_parse_rejects_non_finite_parameters(self, text, message):
        """NaN passes every ``<= 0`` and cap comparison, so it used to parse."""
        with pytest.raises(ValueError, match=message):
            WorkloadSpec.parse(text)

    def test_trace_rejects_non_finite_timestamps(self, tmp_path):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="trace timestamps must be finite"):
                WorkloadSpec.trace(timestamps=(1.0, bad))
        path = tmp_path / "arrivals.json"
        path.write_text("[1.0, NaN, 2.0]")
        with pytest.raises(ValueError, match="trace timestamps must be finite"):
            WorkloadSpec.parse(f"trace:path={path}")

    def test_specs_are_hashable_and_picklable(self):
        specs = [
            WorkloadSpec.burst(),
            WorkloadSpec.warm(burst_size=5),
            WorkloadSpec.poisson(rate=2, duration=30),
            WorkloadSpec.trace(timestamps=(0.0, 1.5, 2.0)),
        ]
        assert len(set(specs)) == len(specs)
        for spec in specs:
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert clone.canonical() == spec.canonical()

    def test_dict_round_trip(self):
        for spec in (
            WorkloadSpec.burst(burst_size=12),
            WorkloadSpec.warm(settle_s=1.0, priming_bursts=2),
            WorkloadSpec.ramp(start_rate=1, end_rate=10, duration=60),
            WorkloadSpec.trace(timestamps=(0.5, 1.0)),
        ):
            document = json.loads(json.dumps(spec.to_dict()))
            assert WorkloadSpec.from_dict(document) == spec

    def test_canonical_is_stable_and_distinct(self):
        a = WorkloadSpec.poisson(rate=50, duration=120)
        b = WorkloadSpec.poisson(rate=50, duration=60)
        assert a.canonical() == WorkloadSpec.parse("poisson:duration=120,rate=50").canonical()
        assert a.canonical() != b.canonical()

    def test_trace_canonical_distinguishes_contents(self):
        """Regression: the trace canonical form once encoded only (count, end),
        so different traces collided in sweep dedup and cell keys."""
        a = WorkloadSpec.trace(timestamps=(0.0, 1.0, 5.0))
        b = WorkloadSpec.trace(timestamps=(0.0, 2.0, 5.0))
        assert a.canonical() != b.canonical()
        assert a.canonical() == WorkloadSpec.trace(timestamps=(0.0, 1.0, 5.0)).canonical()

    def test_trace_loads_json_file(self, tmp_path):
        path = tmp_path / "arrivals.json"
        path.write_text(json.dumps([3.0, 1.0, 2.0]))
        spec = WorkloadSpec.parse(f"trace:path={path}")
        assert spec.arrival_times(RandomStreams(0)) == [1.0, 2.0, 3.0]
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"arrivals": [0.0, 4.0]}))
        assert WorkloadSpec.trace(path=wrapped).duration_s == 4.0


class TestArrivalSchedules:
    def test_constant_rate_lattice(self):
        times = WorkloadSpec.constant(rate=2, duration=5).arrival_times(RandomStreams(0))
        assert times == [i * 0.5 for i in range(10)]

    def test_ramp_is_monotone_and_denser_at_the_fast_end(self):
        times = WorkloadSpec.ramp(start_rate=1, end_rate=9, duration=10).arrival_times(
            RandomStreams(0)
        )
        assert len(times) == 50  # (1 + 9) / 2 * 10
        assert times == sorted(times)
        assert all(0 <= t <= 10 for t in times)
        first_half = sum(1 for t in times if t < 5)
        assert first_half < len(times) - first_half

    def test_flat_ramp_equals_constant(self):
        ramp = WorkloadSpec.ramp(start_rate=4, end_rate=4, duration=5)
        constant = WorkloadSpec.constant(rate=4, duration=5)
        assert ramp.arrival_times(RandomStreams(0)) == pytest.approx(
            constant.arrival_times(RandomStreams(0))
        )

    def test_poisson_is_deterministic_per_seed(self):
        spec = WorkloadSpec.poisson(rate=5, duration=30)
        first = spec.arrival_times(RandomStreams(42))
        second = spec.arrival_times(RandomStreams(42))
        other = spec.arrival_times(RandomStreams(43))
        assert first == second
        assert first != other
        assert all(0 <= t < 30 for t in first)
        # Rate 5/s over 30 s: ~150 arrivals give or take sampling noise.
        assert 100 < len(first) < 200

    def test_closed_loop_kinds_have_no_schedule(self):
        with pytest.raises(ValueError):
            WorkloadSpec.burst().arrival_times(RandomStreams(0))


class TestPinnedClosedLoopRegression:
    """The workload refactor must not change burst/warm results.

    The constants below were produced by the pre-workload implementation
    (`mode: str` threading through trigger/experiment/campaign) at the same
    seeds; the refactored path must reproduce them bit-identically.
    """

    def test_burst_summary_pinned(self):
        result = run_benchmark(get_benchmark("mapreduce"), "aws",
                               workload=WorkloadSpec.burst(5), seed=1)
        assert result.summary.median_runtime == pytest.approx(
            11.249266536289934, rel=1e-12
        )
        assert result.summary.median_critical_path == pytest.approx(
            9.607446744841916, rel=1e-12
        )
        assert result.summary.median_overhead == pytest.approx(
            1.6245488856977506, rel=1e-12
        )
        assert result.summary.cold_start_fraction == 1.0
        assert result.containers_created == 50
        assert result.cost.per_execution.total_usd == pytest.approx(
            0.00046243214192260527, rel=1e-12
        )

    def test_warm_summary_pinned(self):
        result = run_benchmark(
            get_benchmark("mapreduce"), "aws", workload=WorkloadSpec.warm(5), seed=1
        )
        assert result.summary.median_runtime == pytest.approx(
            5.309419059556355, rel=1e-12
        )
        assert result.summary.median_overhead == pytest.approx(
            0.11988334961429459, rel=1e-12
        )
        assert result.summary.cold_start_fraction == 0.0
        assert result.cost.per_execution.total_usd == pytest.approx(
            0.0005298600499779946, rel=1e-12
        )

    def test_second_platform_pinned(self):
        result = run_benchmark(get_benchmark("ml"), "gcp", workload=WorkloadSpec.burst(4), seed=9)
        assert result.summary.median_runtime == pytest.approx(
            13.451148771581966, rel=1e-12
        )
        assert result.summary.cold_start_fraction == 0.75
        assert result.cost.per_execution.total_usd == pytest.approx(
            0.00023439391257574832, rel=1e-12
        )

    def test_executor_matches_legacy_triggers(self):
        benchmark = get_benchmark("mapreduce")
        legacy_platform = Platform(resolve_platform("aws"), seed=4)
        legacy = Deployment.deploy(benchmark, legacy_platform)
        legacy_ids = BurstTrigger(TriggerConfig(burst_size=4)).fire(legacy)

        new_platform = Platform(resolve_platform("aws"), seed=4)
        new = Deployment.deploy(benchmark, new_platform)
        new_ids = WorkloadExecutor(WorkloadSpec.burst(burst_size=4)).execute(new)

        assert new_ids == legacy_ids
        for invocation_id in legacy_ids:
            assert new.measurement(invocation_id).runtime == pytest.approx(
                legacy.measurement(invocation_id).runtime, rel=1e-12
            )


class TestWarmSettle:
    def test_settle_is_configurable(self):
        assert TriggerConfig().settle_s == 5.0
        assert WorkloadSpec.warm(settle_s=2.0).settle_s == 2.0
        assert WorkloadSpec.parse("warm:settle_s=0").settle_s == 0.0

    def test_settle_shifts_the_measured_burst(self):
        benchmark = get_benchmark("mapreduce")

        def measured_start(settle: float) -> float:
            platform = Platform(resolve_platform("aws"), seed=6)
            deployment = Deployment.deploy(benchmark, platform)
            trigger = WarmTrigger(TriggerConfig(burst_size=3, settle_s=settle))
            ids = trigger.fire(deployment)
            return min(deployment.measurement(i).start for i in ids)

        # Same seed, same jitter draws: the measured burst moves by exactly
        # the settle difference.
        assert measured_start(8.0) - measured_start(5.0) == pytest.approx(3.0)

    def test_zero_settle_races_the_priming_burst(self):
        result_settled = run_benchmark(
            get_benchmark("ml"), "aws", seed=3, workload=WorkloadSpec.warm(burst_size=5)
        )
        result_raced = run_benchmark(
            get_benchmark("ml"), "aws", seed=3,
            workload=WorkloadSpec.warm(burst_size=5, settle_s=0.0),
        )
        # Without the settle the measured burst contends with the priming
        # tail, so it cannot see fewer cold starts than the settled variant.
        assert result_raced.cold_start_fraction >= result_settled.cold_start_fraction


class TestPlatformSeeding:
    def test_repetition_zero_keeps_raw_seed(self):
        assert derive_platform_seed(123, 0) == 123

    def test_977_collision_is_gone(self):
        """Regression: seed + repetition * 977 made (977, 0) and (0, 1) collide."""
        assert derive_platform_seed(977, 0) != derive_platform_seed(0, 1)
        assert derive_platform_seed(1954, 0) != derive_platform_seed(0, 2)

    def test_repetitions_get_distinct_seeds(self):
        seeds = {derive_platform_seed(5, rep) for rep in range(16)}
        assert len(seeds) == 16

    def test_invocation_ids_are_collision_free_across_repetitions(self):
        assert invocation_id_base("ml", 0) == "ml"
        assert invocation_id_base("ml", 3) == "ml-r3"
        result = run_benchmark(get_benchmark("ml"), "aws", workload=WorkloadSpec.burst(3),
                               repetitions=3, seed=2)
        ids = [m.invocation_id for m in result.measurements]
        assert len(set(ids)) == len(ids) == 9

    def test_repetitions_use_distinct_invocation_indices(self):
        """Regression: invocation indices select benchmark input payloads, so
        repetitions must not replay the same index range."""
        from repro.faas.trigger import INVOCATION_INDEX_STRIDE

        benchmark = get_benchmark("mapreduce")
        platform = Platform(resolve_platform("aws"), seed=1)
        deployment = Deployment.deploy(benchmark, platform)
        recorded = []
        original = deployment.invoke_process

        def spy(invocation_id, invocation_index=0):
            recorded.append(invocation_index)
            return original(invocation_id, invocation_index=invocation_index)

        deployment.invoke_process = spy
        executor = WorkloadExecutor(WorkloadSpec.burst(burst_size=3))
        executor.execute(deployment, repetition=0)
        executor.execute(deployment, repetition=1)
        # Invocations resume in jitter order, so compare as sets.
        assert sorted(recorded[:3]) == [0, 1, 2]
        assert sorted(recorded[3:]) == [INVOCATION_INDEX_STRIDE + i for i in range(3)]


class TestExperimentConfigWorkload:
    def test_workload_string_is_parsed(self):
        config = ExperimentConfig(workload="poisson:rate=3,duration=20")
        assert config.workload_spec == WorkloadSpec.poisson(rate=3, duration=20)

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="chaotic")
        with pytest.raises(ValueError):
            ExperimentConfig(workload="burst:burst_size=0")
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)


class TestOpenLoopExperiments:
    def test_poisson_run_produces_open_loop_summary(self):
        result = run_benchmark(
            get_benchmark("function_chain"), "aws", seed=3,
            workload="poisson:rate=2,duration=15",
        )
        assert result.open_loop is not None
        assert result.open_loop.invocations == len(result.measurements) > 0
        assert result.open_loop.throughput_per_s > 0
        assert result.open_loop.latency_p99_s >= result.open_loop.latency_p95_s \
            >= result.open_loop.latency_p50_s > 0
        assert result.open_loop.max_concurrency >= 1
        assert result.open_loop.windows
        assert result.summary is not None  # burst metrics stay available

    def test_closed_loop_run_has_no_open_loop_summary(self):
        result = run_benchmark(get_benchmark("function_chain"), "aws",
                               workload=WorkloadSpec.burst(3), seed=3)
        assert result.open_loop is None

    def test_open_loop_run_is_deterministic(self):
        spec = WorkloadSpec.poisson(rate=2, duration=15)
        first = run_benchmark(get_benchmark("function_chain"), "aws", seed=5, workload=spec)
        second = run_benchmark(get_benchmark("function_chain"), "aws", seed=5, workload=spec)
        assert first.open_loop.as_row() == second.open_loop.as_row()

    def test_trace_replay_fires_at_the_recorded_times(self):
        spec = WorkloadSpec.trace(timestamps=(0.0, 2.0, 7.5))
        result = run_benchmark(get_benchmark("function_chain"), "aws", seed=1,
                               workload=spec)
        # Measurement starts lag the arrival by the platform-side scheduling
        # delay (larger for cold containers), so compare loosely.
        starts = sorted(m.start for m in result.measurements)
        assert len(starts) == 3
        assert starts[1] - starts[0] == pytest.approx(2.0, abs=1.0)
        assert starts[2] - starts[0] == pytest.approx(7.5, abs=1.0)

    def test_open_loop_result_round_trips(self):
        result = run_benchmark(
            get_benchmark("function_chain"), "aws", seed=3,
            workload="constant:rate=1,duration=10",
        )
        document = json.loads(json.dumps(result_to_dict(result)))
        assert document["config"]["workload"]["kind"] == "constant"
        restored = result_from_dict(document)
        assert restored.config == result.config
        assert restored.open_loop is not None
        assert restored.open_loop.as_row() == result.open_loop.as_row()

    def test_documents_without_workload_are_rejected(self):
        """Documents predating the workload field raise instead of being
        misread from their flat mode/burst_size copies."""
        result = run_benchmark(get_benchmark("mapreduce"), "aws", seed=1,
                               workload=WorkloadSpec.burst(3))
        document = json.loads(json.dumps(result_to_dict(result)))
        del document["config"]["workload"]
        with pytest.raises(KeyError):
            result_from_dict(document)


class TestOpenLoopSummaryMath:
    def test_percentiles_use_nearest_rank(self):
        from repro.analysis.stats import percentile

        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.50) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0
        assert percentile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0], 1.0) == 3.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_repetitions_are_not_swept_as_overlapping_traffic(self):
        """Regression: repetitions run on fresh platforms whose clocks restart
        at zero; pooling them into one concurrency sweep triple-counted
        concurrency for repetitions=3."""
        spec = WorkloadSpec.poisson(rate=2, duration=10)
        single = run_benchmark(get_benchmark("function_chain"), "aws", seed=3,
                               workload=spec)
        triple = run_benchmark(get_benchmark("function_chain"), "aws", seed=3,
                               repetitions=3, workload=spec)
        assert triple.open_loop.invocations > single.open_loop.invocations
        # Concurrency under the same arrival rate stays in the same regime
        # instead of scaling with the repetition count.
        assert triple.open_loop.mean_concurrency < 2 * single.open_loop.mean_concurrency
        assert triple.open_loop.max_concurrency < 3 * single.open_loop.max_concurrency
        assert triple.open_loop.throughput_per_s == pytest.approx(
            single.open_loop.throughput_per_s, rel=0.5
        )

    def test_multi_repetition_open_loop_round_trips(self):
        result = run_benchmark(
            get_benchmark("function_chain"), "aws", seed=3, repetitions=2,
            workload="constant:rate=1,duration=10",
        )
        document = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(document)
        assert restored.open_loop.as_row() == result.open_loop.as_row()
        assert restored.open_loop.windows == result.open_loop.windows

    def test_latency_is_anchored_at_the_client_arrival(self):
        """Regression: the platform only timestamps a function after a
        container was acquired, so end - start hides queue wait; the arrival
        stashed by the open-loop executor must anchor the latency."""
        from repro.core.critical_path import FunctionMeasurement, WorkflowMeasurement

        queued = WorkflowMeasurement(workflow="w", platform="aws", invocation_id="w-0")
        queued.add(FunctionMeasurement(function="f", phase="p", start=30.0, end=31.0))
        queued.metadata["arrival_s"] = 10.0
        prompt = WorkflowMeasurement(workflow="w", platform="aws", invocation_id="w-1")
        prompt.add(FunctionMeasurement(function="f", phase="p", start=11.0, end=12.0))
        prompt.metadata["arrival_s"] = 11.0
        summary = open_loop_summary("w", "aws", [queued, prompt], duration_s=40.0)
        assert summary.latency_p99_s == pytest.approx(21.0)  # 20 s queued + 1 s run
        # Both invocations are in flight from t=11 to t=12.
        assert summary.max_concurrency == 2

    def test_open_loop_measurements_carry_their_arrival(self):
        result = run_benchmark(
            get_benchmark("function_chain"), "aws", seed=3,
            workload="constant:rate=1,duration=5",
        )
        arrivals = [m.metadata["arrival_s"] for m in result.measurements]
        assert arrivals == [float(i) for i in range(5)]
        document = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(document)
        assert [m.metadata["arrival_s"] for m in restored.measurements] == arrivals

    def test_empty_measurements(self):
        summary = open_loop_summary("x", "aws", [], duration_s=10.0)
        assert summary.invocations == 0
        assert summary.throughput_per_s == 0.0
        assert summary.windows == []

    def test_vectorized_summary_matches_python_oracle(self):
        """The numpy reduction must agree bit-for-bit with the pure-Python
        reference (`_open_loop_summary_python`), which is kept verbatim as the
        oracle of record.  Exact equality, not approx: the vectorized path is
        only admissible because it changes nothing."""
        import random

        from repro.core.critical_path import FunctionMeasurement, WorkflowMeasurement
        from repro.faas.metrics import (
            _open_loop_summary_python,
            open_loop_summary_over_repetitions,
        )

        rng = random.Random(1234)
        for trial in range(25):
            groups = []
            for repetition in range(rng.randint(1, 3)):
                measurements = []
                for index in range(rng.randint(0, 40)):
                    arrival = rng.uniform(0.0, 60.0)
                    start = arrival + rng.uniform(0.0, 5.0)
                    end = start + rng.uniform(0.001, 30.0)
                    m = WorkflowMeasurement(
                        workflow="w", platform="aws",
                        invocation_id=f"w-{repetition}-{index}",
                    )
                    m.add(FunctionMeasurement(
                        function="f", phase="p", start=start, end=end,
                        cold_start=rng.random() < 0.3,
                    ))
                    if rng.random() < 0.8:
                        m.metadata["arrival_s"] = arrival
                    if rng.random() < 0.1:
                        m.functions.clear()  # empty invocations are skipped
                    measurements.append(m)
                groups.append(measurements)
            duration = rng.choice([None, 60.0])
            window = rng.choice([5.0, 10.0])
            fast = open_loop_summary_over_repetitions(
                "w", "aws", groups,
                duration_per_repetition_s=duration, window_s=window)
            oracle = _open_loop_summary_python(
                "w", "aws", groups,
                duration_per_repetition_s=duration, window_s=window)
            assert fast.__dict__ == oracle.__dict__, f"trial {trial} diverged"

    def test_windows_partition_the_run(self):
        result = run_benchmark(
            get_benchmark("function_chain"), "aws", seed=3,
            workload="constant:rate=1,duration=30",
        )
        summary = result.open_loop
        assert sum(w["invocations"] for w in summary.windows) == summary.invocations
        window_starts = [w["window_start_s"] for w in summary.windows]
        assert window_starts == sorted(window_starts)


class TestWorkloadCampaigns:
    def test_workload_sweep_dimension(self):
        spec = CampaignSpec(
            benchmarks=("function_chain",),
            platforms=("aws",),
            seeds=(0,),
            workloads=("burst:burst_size=2", "poisson:rate=2,duration=10"),
        )
        jobs = spec.expand()
        assert len(jobs) == 2
        assert len({job.fingerprint() for job in jobs}) == 2
        assert len({job.cell_key for job in jobs}) == 2

    def test_workload_changes_the_fingerprint(self):
        base = CampaignSpec(benchmarks=("ml",), platforms=("aws",), seeds=(0,),
                            workloads=("poisson:rate=2,duration=10",))
        other = CampaignSpec(benchmarks=("ml",), platforms=("aws",), seeds=(0,),
                             workloads=("poisson:rate=2,duration=20",))
        assert base.expand()[0].fingerprint() != other.expand()[0].fingerprint()

    def test_duplicate_workloads_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(benchmarks=("ml",),
                         workloads=("burst", "burst:burst_size=30"))

    def test_jobs_with_workloads_pickle(self):
        spec = CampaignSpec(
            benchmarks=("ml",), platforms=("aws",), seeds=(0,),
            workloads=(WorkloadSpec.trace(timestamps=(0.0, 1.0)),),
        )
        for job in spec.expand():
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            document = json.loads(json.dumps(job.to_dict()))
            from repro.faas import CampaignJob
            assert CampaignJob.from_dict(document) == job

    def test_poisson_campaign_deterministic_across_worker_counts(self):
        spec = CampaignSpec(
            benchmarks=("function_chain",),
            platforms=("aws", "gcp"),
            seeds=(0, 1),
            workloads=("poisson:rate=2,duration=10",),
        )
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2)
        assert serial.aggregated_medians() == pooled.aggregated_medians()
        serial_rows = [c.result.open_loop.as_row() for c in serial.cells]
        pooled_rows = [c.result.open_loop.as_row() for c in pooled.cells]
        assert serial_rows == pooled_rows

    def test_workload_cells_are_cached(self, tmp_path):
        spec = CampaignSpec(
            benchmarks=("function_chain",), platforms=("aws",), seeds=(0,),
            workloads=("poisson:rate=2,duration=10",),
        )
        first = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert first.cache_hits == 0
        second = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert second.cache_hits == 1
        assert first.aggregated_medians() == second.aggregated_medians()

    def test_cell_lookup_by_workload(self):
        spec = CampaignSpec(
            benchmarks=("function_chain",), platforms=("aws",), seeds=(0,),
            workloads=("burst:burst_size=2", "constant:rate=1,duration=5"),
        )
        campaign = run_campaign(spec, workers=1)
        default = campaign.cell("function_chain", "aws")
        assert default.config.workload_spec.kind == "burst"
        open_loop = campaign.cell("function_chain", "aws",
                                  workload="constant:rate=1,duration=5")
        assert open_loop.open_loop is not None

    def test_comparison_table_carries_the_workload(self):
        spec = CampaignSpec(
            benchmarks=("function_chain",), platforms=("aws",), seeds=(0,),
            workloads=("burst:burst_size=2", "constant:rate=1,duration=5"),
        )
        campaign = run_campaign(spec, workers=1)
        rows = campaign.comparison_table()
        assert len(rows) == 2
        assert {row["workload"] for row in rows} == {
            WorkloadSpec.parse("burst:burst_size=2").canonical(),
            WorkloadSpec.parse("constant:rate=1,duration=5").canonical(),
        }
