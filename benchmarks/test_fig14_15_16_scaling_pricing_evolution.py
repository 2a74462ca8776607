"""Figures 14, 15, 16: scientific workflows vs HPC, pricing, and evolution over time
(experiments E1, E7, E8, RQ3-RQ5).  All cells come from the shared planned
campaign."""

from __future__ import annotations

from repro.analysis import report


def test_fig14_genome_vs_hpc_scaling(benchmark, build_artifact):
    data = benchmark.pedantic(
        build_artifact, args=("figure14",), rounds=1, iterations=1
    )
    print()
    full_rows = [dict(platform=p, **v) for p, v in data["full_workflow"].items()]
    print(report.format_table(full_rows, "Figure 14a: complete 1000Genome workflow"))
    scaling_rows = []
    for platform, durations in data["individuals_scaling"].items():
        for jobs, duration in sorted(durations.items()):
            scaling_rows.append({"platform": platform, "jobs": jobs, "median_runtime_s": duration})
    print(report.format_table(scaling_rows, "Figure 14b: strong scaling of the individuals task"))
    speedup_rows = [dict(platform=p, **entry) for p, entries in data["speedups"].items()
                    for entry in entries]
    print(report.format_table(speedup_rows, "Figure 14b: pairwise speedups"))
    print("Paper: 259.8 s (AWS), 457.7 s (GCP), 4590 s (Azure), 7.7 s (Ault); "
          "cloud speedups ~1.95x per doubling, Ault 1.51x/1.24x.")

    full = data["full_workflow"]
    assert full["hpc"]["mean_runtime_s"] < full["aws"]["mean_runtime_s"] / 5
    assert full["azure"]["mean_runtime_s"] > full["aws"]["mean_runtime_s"]
    assert full["gcp"]["mean_runtime_s"] > full["aws"]["mean_runtime_s"]
    # Near-ideal strong scaling on the clouds, weaker scaling on the HPC node.
    aws_speedups = [entry["speedup"] for entry in data["speedups"]["aws"]]
    assert all(speedup > 1.4 for speedup in aws_speedups)


def test_fig15_price_per_1000_executions(benchmark, build_artifact):
    figure = benchmark.pedantic(
        build_artifact, args=("figure15",), rounds=1, iterations=1
    )
    print()
    print(report.format_nested(figure, "Figure 15: price per 1000 workflow executions [$]"))
    print("Paper: AWS most expensive for Video/ExCamera/ML/TripBooking (compute price), "
          "GCP most expensive for MapReduce (transitions), Azure most expensive for 1000Genome.")

    def most_expensive(name):
        return max(figure[name], key=lambda p: figure[name][p]["total_usd"])

    assert most_expensive("mapreduce") == "gcp"
    assert most_expensive("video_analysis") == "aws"
    assert most_expensive("excamera") == "aws"
    assert most_expensive("genome_1000") in ("azure", "aws")
    # Azure is cheap where it is also fast (MapReduce, ML).
    for name in ("mapreduce", "ml"):
        assert figure[name]["azure"]["total_usd"] == min(
            v["total_usd"] for v in figure[name].values()
        )
    # Orchestration cost: GCP charges more transitions than AWS for MapReduce.
    assert figure["mapreduce"]["gcp"]["orchestration_usd"] > figure["mapreduce"]["aws"]["orchestration_usd"]


def test_fig16_evolution_2022_vs_2024(benchmark, build_artifact):
    figure = benchmark.pedantic(
        build_artifact, args=("figure16",), rounds=1, iterations=1
    )
    print()
    rows = []
    for name, per_platform in figure.items():
        for platform, eras in per_platform.items():
            for era, values in eras.items():
                rows.append({"benchmark": name, "platform": platform, "era": era, **values})
    print(report.format_table(rows, "Figure 16: critical path and overhead, 2022 vs 2024"))
    print("Paper: AWS and GCP essentially unchanged; Azure's ML overhead roughly halved.")

    azure_ml = figure["ml"]["azure"]
    assert azure_ml["2022"]["median_overhead_s"] > 1.5 * azure_ml["2024"]["median_overhead_s"]
    for platform in ("aws", "gcp"):
        for name in ("mapreduce", "ml"):
            eras = figure[name][platform]
            assert abs(eras["2024"]["median_runtime_s"] - eras["2022"]["median_runtime_s"]) < (
                0.4 * eras["2022"]["median_runtime_s"]
            )
