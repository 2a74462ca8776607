"""Functional tests of the six application benchmarks (data flow and outputs)."""

import pytest

from repro.benchmarks import get_benchmark
from repro.benchmarks.genome import POPULATIONS, create_individuals_scaling_benchmark
from repro.benchmarks.registry import (
    APPLICATION_BENCHMARKS,
    MICRO_BENCHMARKS,
    PAPER_MEMORY_MB,
    benchmark_names,
)
from repro.faas.deployment import Deployment
from repro.sim.platforms import Platform, resolve_platform


def run_once(benchmark, platform_name="aws", seed=1, invocation="t0"):
    platform = Platform(resolve_platform(platform_name), seed=seed)
    deployment = Deployment.deploy(benchmark, platform)
    result = deployment.invoke_once(invocation)
    return result, deployment


class TestRegistry:
    def test_six_applications_and_four_micros(self):
        assert len(APPLICATION_BENCHMARKS) == 6
        assert len(MICRO_BENCHMARKS) == 4

    def test_benchmark_names_categories(self):
        from repro.benchmarks import VARIANT_BENCHMARKS

        assert set(benchmark_names("application")) == set(APPLICATION_BENCHMARKS)
        assert set(benchmark_names("micro")) == set(MICRO_BENCHMARKS)
        # "all" additionally exposes the parameterised variants (the Figure 14b
        # strong-scaling genome workflow), which stay out of the E1 sweep.
        assert set(benchmark_names("all")) == (
            set(APPLICATION_BENCHMARKS) | set(MICRO_BENCHMARKS) | set(VARIANT_BENCHMARKS)
        )
        assert "genome_individuals" not in benchmark_names("application")
        with pytest.raises(KeyError):
            benchmark_names("bogus")

    def test_parameterised_benchmark_spec_strings(self):
        from repro.benchmarks import canonical_benchmark_spec, parse_benchmark_spec

        name, params = parse_benchmark_spec("storage_io:num_functions=4,download_bytes=1024")
        assert name == "storage_io"
        assert params == {"num_functions": 4, "download_bytes": 1024}
        # Canonicalisation sorts parameters, so equivalent spellings collapse.
        assert canonical_benchmark_spec("storage_io:download_bytes=1024,num_functions=4") == \
            canonical_benchmark_spec("storage_io", num_functions=4, download_bytes=1024)
        benchmark = get_benchmark("genome_individuals:individuals_jobs=5")
        assert benchmark.name == "genome_individuals_5"
        with pytest.raises(ValueError):
            parse_benchmark_spec("storage_io:oops")
        with pytest.raises(KeyError):
            parse_benchmark_spec("nope:num_functions=4")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            get_benchmark("does-not-exist")

    def test_paper_memory_configurations(self):
        assert PAPER_MEMORY_MB["video_analysis"] == 2048
        assert PAPER_MEMORY_MB["trip_booking"] == 128
        for name, memory in PAPER_MEMORY_MB.items():
            assert get_benchmark(name).memory_mb == memory


class TestMapReduce:
    def test_word_counts_are_exact(self):
        result, _ = run_once(get_benchmark("mapreduce", total_words=300, num_mappers=3))
        totals = {entry["word"]: entry["total"] for entry in result.output}
        assert sum(totals.values()) == 300
        assert set(totals) <= {"serverless", "workflow", "benchmark", "cloud", "function"}

    def test_number_of_functions_executed(self):
        result, deployment = run_once(get_benchmark("mapreduce", num_mappers=3))
        measurement = deployment.measurement("t0")
        # split + 3 mappers + shuffle + one reducer per distinct word
        assert len(measurement.functions) == 1 + 3 + 1 + 5
        assert result.stats.activity_count == len(measurement.functions)

    def test_mapper_count_parameter_respected(self):
        _, deployment = run_once(get_benchmark("mapreduce", num_mappers=5))
        measurement = deployment.measurement("t0")
        mappers = [f for f in measurement.functions if f.function == "map_words"]
        assert len(mappers) == 5


class TestMachineLearning:
    def test_trains_both_classifiers_with_reasonable_accuracy(self):
        result, _ = run_once(get_benchmark("ml"))
        kinds = {entry["kind"]: entry["accuracy"] for entry in result.output}
        assert set(kinds) == {"svm", "forest"}
        assert all(accuracy > 0.6 for accuracy in kinds.values())

    def test_models_uploaded_to_object_storage(self):
        _, deployment = run_once(get_benchmark("ml"))
        keys = deployment.platform.object_storage.list_keys("ml/model-")
        assert len(keys) == 2


class TestTripBooking:
    def test_saga_compensation_removes_all_bookings(self):
        result, deployment = run_once(get_benchmark("trip_booking"))
        assert result.output["cancelled"] == ["flight", "car", "hotel"]
        table = deployment.platform.nosql.table("trip_bookings")
        assert len(table) == 0

    def test_successful_booking_keeps_reservations(self):
        result, deployment = run_once(get_benchmark("trip_booking", force_failure=False))
        assert result.output.get("status") == "confirmed"
        table = deployment.platform.nosql.table("trip_bookings")
        assert len(table) == 3

    def test_failure_path_executes_seven_functions(self):
        _, deployment = run_once(get_benchmark("trip_booking"))
        measurement = deployment.measurement("t0")
        assert len(measurement.functions) == 7  # 4 bookings/confirm + 3 compensations


class TestVideoAnalysis:
    def test_detections_accumulated_across_batches(self):
        result, deployment = run_once(get_benchmark("video_analysis"))
        assert "detections" in result.output
        assert sum(result.output["counts_by_class"].values()) == len(result.output["detections"])
        measurement = deployment.measurement("t0")
        detect_runs = [f for f in measurement.functions if f.function == "detect"]
        assert len(detect_runs) == 2  # ceil(10 frames / batch of 5)

    def test_frame_batches_uploaded(self):
        _, deployment = run_once(get_benchmark("video_analysis"))
        batches = deployment.platform.object_storage.list_keys("video/batch-")
        assert len(batches) == 2


class TestExCamera:
    def test_chunk_pipeline_produces_final_video(self):
        result, deployment = run_once(get_benchmark("excamera"))
        assert result.output["chunks"] == 5
        assert result.output["total_frames"] == 30
        measurement = deployment.measurement("t0")
        assert len(measurement.functions) == 16  # 3 x 5 parallel stages + rebase

    def test_invalid_chunking_rejected(self):
        with pytest.raises(ValueError):
            get_benchmark("excamera", total_frames=31, chunk_frames=6)


class TestGenome:
    def test_full_workflow_produces_population_results(self):
        result, deployment = run_once(get_benchmark("genome_1000"))
        overlap_results = result.output["overlap_branch"]
        frequency_results = result.output["frequency_branch"]
        assert {entry["population"] for entry in overlap_results} == set(POPULATIONS)
        assert {entry["population"] for entry in frequency_results} == set(POPULATIONS)
        measurement = deployment.measurement("t0")
        assert len(measurement.functions) == 19

    def test_phase_structure_has_three_phases(self):
        _, deployment = run_once(get_benchmark("genome_1000"))
        measurement = deployment.measurement("t0")
        assert measurement.phases() == [
            "individuals_phase", "aggregate_phase", "analysis_phase",
        ]

    def test_individuals_scaling_variant(self):
        benchmark = create_individuals_scaling_benchmark(10)
        result, deployment = run_once(benchmark)
        measurement = deployment.measurement("t0")
        assert len(measurement.functions) == 10
        assert len(result.output) == 10

    def test_population_parameter_validated(self):
        with pytest.raises(ValueError):
            get_benchmark("genome_1000", populations=50)
