"""Figures 7 and 8: runtime of the application benchmarks and its decomposition
into critical path and orchestration overhead (experiment E1, RQ1/RQ2)."""

from __future__ import annotations

from conftest import PAPER_MEDIAN_RUNTIME_S

from repro.analysis import report


def test_fig07_runtime_per_platform(benchmark, build_artifact):
    figure = benchmark.pedantic(
        build_artifact, args=("figure7",), rounds=1, iterations=1
    )
    print()
    print(report.format_nested(figure, "Figure 7: runtime of benchmark applications (burst)"))
    print()
    print("Paper medians [s]:", PAPER_MEDIAN_RUNTIME_S)
    for line in report.comparison_summary(figure):
        print("  ", line)

    # Qualitative shape checks against the paper's findings.
    assert figure["video_analysis"]["azure"]["median_runtime_s"] == max(
        v["median_runtime_s"] for v in figure["video_analysis"].values()
    )
    assert figure["genome_1000"]["azure"]["median_runtime_s"] == max(
        v["median_runtime_s"] for v in figure["genome_1000"].values()
    )
    for name in ("mapreduce", "ml"):
        assert figure[name]["azure"]["median_runtime_s"] <= 1.2 * min(
            figure[name]["aws"]["median_runtime_s"],
            figure[name]["gcp"]["median_runtime_s"],
        )
    # GCP trails AWS on every benchmark except Trip Booking, where AWS's
    # low-memory cold starts make it the slowest platform (paper Figure 7d).
    for name, per_platform in figure.items():
        if name == "trip_booking":
            continue
        assert per_platform["gcp"]["median_runtime_s"] > per_platform["aws"]["median_runtime_s"], name
    trip = figure["trip_booking"]
    assert trip["azure"]["median_runtime_s"] == min(v["median_runtime_s"] for v in trip.values())
    assert trip["aws"]["median_runtime_s"] > 0.9 * max(v["median_runtime_s"] for v in trip.values())


def test_fig08_critical_path_vs_overhead(benchmark, build_artifact):
    figure = benchmark.pedantic(
        build_artifact, args=("figure8",), rounds=1, iterations=1
    )
    print()
    print(report.format_nested(figure, "Figure 8: critical path vs orchestration overhead"))

    # Azure's runtime is dominated by overhead on the data-heavy benchmarks...
    for name in ("video_analysis", "excamera", "genome_1000"):
        azure = figure[name]["azure"]
        assert azure["median_overhead_s"] > azure["median_critical_path_s"], name
    # ...while its critical path is the fastest for MapReduce and ML,
    # and Google Cloud never has the fastest critical path.
    for name in ("mapreduce", "ml"):
        crits = {p: v["median_critical_path_s"] for p, v in figure[name].items()}
        assert crits["azure"] == min(crits.values()), name
        assert crits["gcp"] > crits["azure"], name
    # AWS keeps orchestration overhead below its critical path everywhere.
    for name, per_platform in figure.items():
        aws = per_platform["aws"]
        assert aws["median_overhead_s"] < aws["median_critical_path_s"], name
