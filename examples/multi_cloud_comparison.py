#!/usr/bin/env python3
"""Compare the suite's application benchmarks across the three simulated clouds.

Reproduces a miniature version of the paper's main evaluation (Figures 7, 8, 15
and Table 5): for each selected application benchmark it reports the median
runtime, the critical-path/overhead split, the cold-start fraction, and the
price per 1000 executions on AWS, Google Cloud, and Azure -- plus a what-if
variant expressed as a `PlatformSpec` string (the 2022-era AWS measurements).

Run with:  python examples/multi_cloud_comparison.py [benchmark ...]
"""

from __future__ import annotations

import sys

from repro.analysis import report
from repro.benchmarks import benchmark_names, get_benchmark
from repro.faas.experiment import compare_platforms
from repro.faas.workload import WorkloadSpec

DEFAULT_BENCHMARKS = ("mapreduce", "ml", "trip_booking")
#: Platform specs to compare: the three 2024-era clouds and one variant.
PLATFORMS = ("gcp", "aws", "azure", "aws@2022")
BURST_SIZE = 12


def main() -> None:
    selected = sys.argv[1:] or list(DEFAULT_BENCHMARKS)
    available = set(benchmark_names("application"))
    unknown = [name for name in selected if name not in available]
    if unknown:
        raise SystemExit(f"unknown benchmarks {unknown}; available: {sorted(available)}")

    rows = []
    cost_rows = []
    for name in selected:
        print(f"Running {name} with bursts of {BURST_SIZE} invocations on "
              f"{'/'.join(PLATFORMS)} ...")
        results = compare_platforms(
            get_benchmark(name), platforms=PLATFORMS, seed=3,
            workload=WorkloadSpec.burst(BURST_SIZE)
        )
        for platform, result in results.items():
            rows.append(
                {
                    "benchmark": name,
                    "platform": platform,
                    "median runtime [s]": round(result.median_runtime, 2),
                    "critical path [s]": round(result.median_critical_path, 2),
                    "overhead [s]": round(result.median_overhead, 2),
                    "cold starts": f"{result.cold_start_fraction:.0%}",
                    "containers": result.containers_created,
                }
            )
            if result.cost is not None:
                cost_rows.append(
                    {
                        "benchmark": name,
                        "platform": platform,
                        "function [$/1000]": round(result.cost.per_1000_executions.function_usd, 4),
                        "orchestration [$/1000]": round(
                            result.cost.per_1000_executions.orchestration_usd, 4
                        ),
                        "total [$/1000]": round(result.cost.per_1000_executions.total_usd, 4),
                    }
                )

    print()
    print(report.format_table(rows, "Runtime comparison (cf. paper Figures 7 and 8)"))
    print()
    print(report.format_table(cost_rows, "Cost comparison (cf. paper Figure 15)"))
    print()
    print("Reading guide: Azure is fastest where orchestration overhead is small")
    print("(MapReduce, ML) but pays heavily for parallel, data-intensive workflows;")
    print("Google Cloud has the slowest critical path; AWS is the most consistent.")


if __name__ == "__main__":
    main()
