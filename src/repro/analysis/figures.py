"""Builders for every figure of the paper's evaluation (Section 7).

Each figure is a declarative :class:`~repro.analysis.artifacts.ArtifactSpec`:
a ``cells`` function declaring the campaign cells the figure needs, and a pure
``build`` function mapping the executed
:class:`~repro.faas.campaign.CampaignResult` back to the plotted series --
no simulation calls in the builders, so figures re-render from cached or
merged grid results at zero cost, and cells shared between figures (the E1
burst runs feeding Figures 7/8/11/15 and Table 5) execute exactly once per
plan.

To compute one figure, plan it and build it from the executed campaign::

    config = ArtifactConfig(seed=0).with_overrides("figure9a", burst_size=2)
    plan = plan_artifacts(["figure9a"], config)
    data = plan.artifacts[0].build(execute_plan(plan), config)

:class:`~repro.analysis.artifacts.ArtifactConfig` carries the ``burst_size``
(the paper uses 30), the ``seed`` and per-artifact overrides, so quick runs
stay cheap while full runs match the paper's methodology.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..benchmarks.registry import APPLICATION_BENCHMARKS, canonical_benchmark_spec
from ..faas.campaign import CampaignResult, NoiseProbe
from ..faas.experiment import ExperimentResult
from ..faas.metrics import split_warm_cold, summarize
from ..faas.workload import WorkloadSpec
from ..sim.platforms.spec import PlatformSpec, resolve_platform
from ..sim.resources import MEMORY_CONFIGURATIONS_MB
from . import report
from .artifacts import (
    ArtifactConfig,
    ArtifactSpec,
    CellRequest,
    collect_pairs,
    register_artifact,
    request_result,
)
from .stats import coefficient_of_variation, speedup

#: Legacy default benchmark selection of Figure 11 (no 1000Genome profile).
FIGURE11_BENCHMARKS = ("video_analysis", "excamera", "mapreduce", "trip_booking", "ml")

#: Default platform selection of Figure 14 (clouds plus the HPC system).
FIGURE14_PLATFORMS = ("aws", "gcp", "azure", "hpc")


# --------------------------------------------------------------------- helpers
def _platforms(config: ArtifactConfig, artifact: str) -> Tuple[str, ...]:
    return tuple(config.value(artifact, "platforms", config.platforms))  # type: ignore[arg-type]


def _e1_items(
    config: ArtifactConfig, benchmarks: Optional[Sequence[str]] = None
) -> Iterator[Tuple[str, str, CellRequest]]:
    """The E1 cells: every application benchmark on every platform, one burst."""
    names = (
        tuple(benchmarks)
        if benchmarks is not None
        else (config.benchmarks or tuple(sorted(APPLICATION_BENCHMARKS)))
    )
    workload = WorkloadSpec.burst(config.closed_burst())
    for name in names:
        for platform in config.platforms:
            yield name, platform, CellRequest(
                benchmark=name, platform=platform, workload=workload, seed=config.seed
            )


def _e1_cells(config: ArtifactConfig) -> Tuple[CellRequest, ...]:
    return tuple(request for _, _, request in _e1_items(config))


def collect_e1(
    campaign: CampaignResult,
    config: ArtifactConfig,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, ExperimentResult]]:
    """``{benchmark: {platform: ExperimentResult}}`` -- the E1 result shape
    consumed by the Figure 7/8/11/15 and Table 5 builders."""
    return collect_pairs(campaign, _e1_items(config, benchmarks))


# -------------------------------------------------------------------- figure 7
def _figure7_from_results(
    results: Dict[str, Dict[str, ExperimentResult]],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    figure: Dict[str, Dict[str, Dict[str, float]]] = {}
    for benchmark, per_platform in results.items():
        figure[benchmark] = {}
        for platform, result in per_platform.items():
            runtimes = result.summary.runtimes if result.summary else []
            figure[benchmark][platform] = {
                "median_runtime_s": result.median_runtime,
                "mean_runtime_s": statistics.fmean(runtimes) if runtimes else 0.0,
                "min_runtime_s": min(runtimes) if runtimes else 0.0,
                "max_runtime_s": max(runtimes) if runtimes else 0.0,
                "cv": coefficient_of_variation(runtimes),
            }
    return figure


register_artifact(ArtifactSpec(
    name="figure7",
    title="Figure 7: runtime of benchmark applications (burst)",
    kind="figure",
    cells=_e1_cells,
    build=lambda campaign, config: _figure7_from_results(collect_e1(campaign, config)),
    text=lambda data: report.format_nested(
        data, "Figure 7: runtime of benchmark applications (burst)"
    ),
    description="Median runtime and spread per application benchmark and platform (E1)",
))


# -------------------------------------------------------------------- figure 8
def _figure8_from_results(
    results: Dict[str, Dict[str, ExperimentResult]],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    figure: Dict[str, Dict[str, Dict[str, float]]] = {}
    for benchmark, per_platform in results.items():
        figure[benchmark] = {}
        for platform, result in per_platform.items():
            figure[benchmark][platform] = {
                "median_critical_path_s": result.median_critical_path,
                "median_overhead_s": result.median_overhead,
                "mean_overhead_s": result.summary.mean_overhead if result.summary else 0.0,
                "median_runtime_s": result.median_runtime,
            }
    return figure


register_artifact(ArtifactSpec(
    name="figure8",
    title="Figure 8: critical path vs orchestration overhead",
    kind="figure",
    cells=_e1_cells,
    build=lambda campaign, config: _figure8_from_results(collect_e1(campaign, config)),
    text=lambda data: report.format_nested(
        data, "Figure 8: critical path vs orchestration overhead"
    ),
    description="Decomposition of runtime into critical path and overhead (E1)",
))


# ------------------------------------------------------------------- figure 9a
def _figure9a_items(
    config: ArtifactConfig,
) -> Iterator[Tuple[int, str, CellRequest]]:
    sizes = config.value(
        "figure9a", "download_sizes",
        tuple(2**exp for exp in range(12, 28, 3)), quick=(2**12, 2**22),
    )
    num_functions = config.value("figure9a", "num_functions", 20, quick=5)
    burst = config.value("figure9a", "burst_size", 10, quick=2)
    workload = WorkloadSpec.burst(int(burst))  # type: ignore[arg-type]
    for size in sizes:  # type: ignore[union-attr]
        for platform in _platforms(config, "figure9a"):
            benchmark = canonical_benchmark_spec(
                "storage_io",
                num_functions=int(num_functions),  # type: ignore[arg-type]
                download_bytes=int(size),
                memory_mb=512,
            )
            yield int(size), platform, CellRequest(
                benchmark=benchmark, platform=platform, workload=workload,
                seed=config.seed,
            )


def _build_figure9a(
    campaign: CampaignResult, config: ArtifactConfig
) -> Dict[str, List[Dict[str, float]]]:
    series: Dict[str, List[Dict[str, float]]] = {
        platform: [] for platform in _platforms(config, "figure9a")
    }
    for size, platform, request in _figure9a_items(config):
        result = request_result(campaign, request)
        series[platform].append(
            {"download_bytes": float(size), "median_overhead_s": result.median_overhead}
        )
    return series


register_artifact(ArtifactSpec(
    name="figure9a",
    title="Figure 9a: overhead of parallel storage downloads",
    kind="figure",
    cells=lambda config: tuple(request for _, _, request in _figure9a_items(config)),
    build=_build_figure9a,
    text=lambda data: report.format_series(
        data, "Figure 9a: overhead of parallel storage downloads"
    ),
    description="Workflow overhead of parallel object-storage downloads vs file size (E3)",
))


# ------------------------------------------------------------------- figure 9b
def _figure9b_items(
    config: ArtifactConfig,
) -> Iterator[Tuple[int, str, CellRequest]]:
    sizes = config.value(
        "figure9b", "payload_sizes",
        tuple(2**exp for exp in range(6, 18, 2)), quick=(2**6, 2**14),
    )
    chain_length = config.value("figure9b", "chain_length", 10, quick=4)
    burst = config.value("figure9b", "burst_size", 10, quick=2)
    workload = WorkloadSpec.warm(int(burst))  # type: ignore[arg-type]
    for size in sizes:  # type: ignore[union-attr]
        for platform in _platforms(config, "figure9b"):
            benchmark = canonical_benchmark_spec(
                "function_chain",
                length=int(chain_length),  # type: ignore[arg-type]
                payload_bytes=int(size),
                memory_mb=256,
            )
            yield int(size), platform, CellRequest(
                benchmark=benchmark, platform=platform, workload=workload,
                seed=config.seed,
            )


def _build_figure9b(
    campaign: CampaignResult, config: ArtifactConfig
) -> Dict[str, List[Dict[str, float]]]:
    series: Dict[str, List[Dict[str, float]]] = {
        platform: [] for platform in _platforms(config, "figure9b")
    }
    for size, platform, request in _figure9b_items(config):
        result = request_result(campaign, request)
        warm = split_warm_cold(result.measurements)["warm"] or result.measurements
        overheads = [m.overhead() for m in warm if m.functions]
        series[platform].append(
            {
                "payload_bytes": float(size),
                "median_latency_s": statistics.median(overheads) if overheads else 0.0,
            }
        )
    return series


register_artifact(ArtifactSpec(
    name="figure9b",
    title="Figure 9b: latency of a warm function chain vs payload size",
    kind="figure",
    cells=lambda config: tuple(request for _, _, request in _figure9b_items(config)),
    build=_build_figure9b,
    text=lambda data: report.format_series(
        data, "Figure 9b: latency of a warm function chain vs payload size"
    ),
    description="Warm function-chain latency as the return payload grows (E4)",
))


# ------------------------------------------------------------------- figure 10
def _figure10_items(
    config: ArtifactConfig,
) -> Iterator[Tuple[int, float, str, CellRequest]]:
    parallelism = config.value("figure10", "parallelism", (2, 4, 8, 16), quick=(2,))
    durations = config.value(
        "figure10", "durations_s", (1.0, 5.0, 10.0, 20.0), quick=(1.0,)
    )
    burst = config.value("figure10", "burst_size", 10, quick=2)
    workload = WorkloadSpec.burst(int(burst))  # type: ignore[arg-type]
    for n in parallelism:  # type: ignore[union-attr]
        for t in durations:  # type: ignore[union-attr]
            for platform in _platforms(config, "figure10"):
                benchmark = canonical_benchmark_spec(
                    "parallel_sleep",
                    num_functions=int(n),
                    sleep_seconds=float(t),
                    memory_mb=256,
                )
                yield int(n), float(t), platform, CellRequest(
                    benchmark=benchmark, platform=platform, workload=workload,
                    seed=config.seed,
                )


def _build_figure10(
    campaign: CampaignResult, config: ArtifactConfig
) -> Dict[str, Dict[str, Dict[str, float]]]:
    heatmaps: Dict[str, Dict[str, Dict[str, float]]] = {
        platform: {} for platform in _platforms(config, "figure10")
    }
    for n, t, platform, request in _figure10_items(config):
        result = request_result(campaign, request)
        relative = result.median_runtime / float(t) if t else 0.0
        heatmaps[platform][f"N={n},T={int(t)}"] = {
            "parallelism": float(n),
            "sleep_s": float(t),
            "relative_overhead": relative,
            "median_runtime_s": result.median_runtime,
        }
    return heatmaps


register_artifact(ArtifactSpec(
    name="figure10",
    title="Figure 10: relative overhead of parallel sleep",
    kind="figure",
    cells=lambda config: tuple(
        request for _, _, _, request in _figure10_items(config)
    ),
    build=_build_figure10,
    text=lambda data: report.format_nested(
        data, "Figure 10: relative overhead of parallel sleep (per platform, N/T cell)"
    ),
    description="Parallel-sleep overhead heatmaps per platform (E5)",
))


# ------------------------------------------------------------------- figure 11
def _figure11_benchmarks(config: ArtifactConfig) -> Tuple[str, ...]:
    names = config.value("figure11", "benchmarks", None)
    if names is not None:
        return tuple(names)  # type: ignore[arg-type]
    return config.benchmarks or FIGURE11_BENCHMARKS


def _figure11_from_results(
    results: Dict[str, Dict[str, ExperimentResult]],
) -> Dict[str, Dict[str, List[Dict[str, float]]]]:
    return {
        benchmark: {
            platform: result.scaling_profile for platform, result in per_platform.items()
        }
        for benchmark, per_platform in results.items()
    }


def _figure11_text(data: Dict[str, Dict[str, List[Dict[str, float]]]]) -> str:
    rows = []
    for name, per_platform in data.items():
        for platform, profile in per_platform.items():
            rows.append({
                "benchmark": name,
                "platform": platform,
                "peak_containers": max(
                    (point["containers"] for point in profile), default=0
                ),
                "samples": len(profile),
            })
    return report.format_table(
        rows, "Figure 11: peak distinct containers during the burst"
    )


register_artifact(ArtifactSpec(
    name="figure11",
    title="Figure 11: container scaling profiles",
    kind="figure",
    cells=lambda config: tuple(
        request for _, _, request in _e1_items(config, _figure11_benchmarks(config))
    ),
    build=lambda campaign, config: _figure11_from_results(
        collect_e1(campaign, config, _figure11_benchmarks(config))
    ),
    text=_figure11_text,
    description="Distinct containers over time during the burst (E1)",
))


# ------------------------------------------------------------------- figure 12
def _figure12_items(
    config: ArtifactConfig,
) -> Iterator[Tuple[str, str, CellRequest, CellRequest]]:
    names = config.value("figure12", "benchmarks", ("ml", "mapreduce"))
    burst = int(config.value("figure12", "burst_size", config.closed_burst()))  # type: ignore[arg-type]
    cold = WorkloadSpec.burst(burst)
    warm = WorkloadSpec.warm(burst)
    for name in names:  # type: ignore[union-attr]
        for platform in _platforms(config, "figure12"):
            yield name, platform, CellRequest(
                benchmark=name, platform=platform, workload=cold, seed=config.seed,
            ), CellRequest(
                benchmark=name, platform=platform, workload=warm, seed=config.seed + 1,
            )


def _build_figure12(
    campaign: CampaignResult, config: ArtifactConfig
) -> Dict[str, Dict[str, Dict[str, float]]]:
    figure: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, platform, cold_request, warm_request in _figure12_items(config):
        cold_result = request_result(campaign, cold_request)
        warm_result = request_result(campaign, warm_request)
        warm_measurements = split_warm_cold(warm_result.measurements)["warm"]
        warm_summary = summarize(
            name, platform, warm_measurements or warm_result.measurements
        )
        figure.setdefault(name, {})[platform] = {
            "cold_critical_path_s": cold_result.median_critical_path,
            "cold_overhead_s": cold_result.median_overhead,
            "warm_critical_path_s": warm_summary.median_critical_path,
            "warm_overhead_s": warm_summary.median_overhead,
            "speedup_critical_path": speedup(
                cold_result.median_critical_path,
                warm_summary.median_critical_path or cold_result.median_critical_path,
            ),
        }
    return figure


register_artifact(ArtifactSpec(
    name="figure12",
    title="Figure 12: critical path and overhead, cold vs warm",
    kind="figure",
    cells=lambda config: tuple(
        request
        for item in _figure12_items(config)
        for request in item[2:]
    ),
    build=_build_figure12,
    text=lambda data: report.format_nested(
        data, "Figure 12: critical path and overhead, cold vs warm"
    ),
    description="Cold (burst) vs warm invocations for ML and MapReduce (E2)",
))


# ------------------------------------------------------------------- figure 13
#: Benchmarks (and the memory configuration driving the suspension share)
#: whose critical paths Figure 13b/c normalises.
FIGURE13_NORMALIZED = (("mapreduce", 256), ("ml", 1024))


def _figure13_items(config: ArtifactConfig) -> Iterator[Tuple[str, str, CellRequest]]:
    burst = int(config.value("figure13", "burst_size", 10, quick=2))  # type: ignore[arg-type]
    workload = WorkloadSpec.burst(burst)
    for benchmark, _memory in FIGURE13_NORMALIZED:
        for platform in _platforms(config, "figure13"):
            yield benchmark, platform, CellRequest(
                benchmark=benchmark, platform=platform, workload=workload,
                seed=config.seed,
            )


def _figure13_probes(config: ArtifactConfig) -> Tuple[NoiseProbe, ...]:
    """Figure 13a's selfish-detour probes, one suspension curve per platform."""
    memory_configurations = tuple(config.value(  # type: ignore[call-overload]
        "figure13", "memory_configurations", MEMORY_CONFIGURATIONS_MB, quick=(256, 1024)
    ))
    events = int(config.value("figure13", "events", 5000, quick=500))  # type: ignore[arg-type]
    return tuple(NoiseProbe(platform, config.seed, memory_configurations, events)
                 for platform in _platforms(config, "figure13"))


def _build_figure13(
    campaign: CampaignResult, config: ArtifactConfig
) -> Dict[str, object]:
    platforms = _platforms(config, "figure13")
    suspension: Dict[str, List[Dict[str, float]]] = {
        probe.platform: campaign.probes[probe.fingerprint()]
        for probe in _figure13_probes(config)
    }
    results = collect_pairs(campaign, _figure13_items(config))
    normalized: Dict[str, Dict[str, Dict[str, float]]] = {}
    for benchmark, memory in FIGURE13_NORMALIZED:
        normalized[benchmark] = {}
        for platform in platforms:
            result = results[benchmark][platform]
            profile = resolve_platform(platform)
            share = profile.cpu_model.suspension(memory)
            critical = result.median_critical_path
            normalized[benchmark][platform] = {
                "original_critical_path_s": critical,
                "normalized_critical_path_s": critical * (1.0 - share),
                "suspension_share": share,
            }
    return {"suspension": suspension, "normalized_critical_path": normalized}


def _figure13_text(data: Dict[str, object]) -> str:
    return "\n\n".join([
        report.format_series(
            data["suspension"], "Figure 13a: suspension time vs memory"  # type: ignore[arg-type]
        ),
        report.format_nested(
            data["normalized_critical_path"],  # type: ignore[arg-type]
            "Figure 13b/c: normalised critical path",
        ),
    ])


register_artifact(ArtifactSpec(
    name="figure13",
    title="Figure 13: OS noise and normalised critical paths",
    kind="figure",
    cells=lambda config: tuple(request for _, _, request in _figure13_items(config)),
    probes=_figure13_probes,
    build=_build_figure13,
    text=_figure13_text,
    description="Suspension-time curves and noise-normalised critical paths (E6)",
))


# ------------------------------------------------------------------- figure 14
def _figure14_params(config: ArtifactConfig):
    platforms = tuple(config.value("figure14", "platforms", FIGURE14_PLATFORMS))  # type: ignore[arg-type]
    job_counts = tuple(config.value("figure14", "job_counts", (5, 10, 20), quick=(5,)))  # type: ignore[arg-type]
    burst = int(config.value("figure14", "burst_size", 5, quick=2))  # type: ignore[arg-type]
    return platforms, job_counts, burst


def _figure14_full_items(config: ArtifactConfig) -> Iterator[Tuple[str, CellRequest]]:
    platforms, _, burst = _figure14_params(config)
    workload = WorkloadSpec.burst(burst)
    for platform in platforms:
        yield platform, CellRequest(
            benchmark="genome_1000", platform=platform, workload=workload,
            seed=config.seed,
        )


def _figure14_scaling_items(
    config: ArtifactConfig,
) -> Iterator[Tuple[str, int, CellRequest]]:
    platforms, job_counts, burst = _figure14_params(config)
    workload = WorkloadSpec.burst(burst)
    for platform in platforms:
        for jobs in job_counts:
            benchmark = canonical_benchmark_spec(
                "genome_individuals", individuals_jobs=int(jobs)
            )
            yield platform, int(jobs), CellRequest(
                benchmark=benchmark, platform=platform, workload=workload,
                seed=config.seed,
            )


def _build_figure14(
    campaign: CampaignResult, config: ArtifactConfig
) -> Dict[str, object]:
    platforms, _, _ = _figure14_params(config)
    full_workflow: Dict[str, Dict[str, float]] = {}
    for platform, request in _figure14_full_items(config):
        result = request_result(campaign, request)
        runtimes = result.summary.runtimes if result.summary else []
        full_workflow[platform] = {
            "mean_runtime_s": statistics.fmean(runtimes) if runtimes else 0.0,
            "median_runtime_s": result.median_runtime,
            "cv": coefficient_of_variation(runtimes),
        }

    individuals_scaling: Dict[str, Dict[int, float]] = {
        platform: {} for platform in platforms
    }
    for platform, jobs, request in _figure14_scaling_items(config):
        individuals_scaling[platform][jobs] = request_result(
            campaign, request
        ).median_runtime

    speedups: Dict[str, List[Dict[str, float]]] = {}
    for platform, durations in individuals_scaling.items():
        speedups[platform] = [
            {"from_jobs": float(small), "to_jobs": float(large), "speedup": value}
            for small, large, value in _pairwise_speedups(durations)
        ]
    return {
        "full_workflow": full_workflow,
        "individuals_scaling": individuals_scaling,
        "speedups": speedups,
    }


def _pairwise_speedups(durations: Dict[int, float]):
    jobs = sorted(durations)
    for small, large in zip(jobs, jobs[1:]):
        yield small, large, speedup(durations[small], durations[large])


def _figure14_text(data: Dict[str, object]) -> str:
    full_rows = [
        dict(platform=platform, **values)
        for platform, values in data["full_workflow"].items()  # type: ignore[union-attr]
    ]
    scaling_rows = [
        {"platform": platform, "jobs": jobs, "median_runtime_s": duration}
        for platform, durations in data["individuals_scaling"].items()  # type: ignore[union-attr]
        for jobs, duration in sorted(durations.items())
    ]
    speedup_rows = [
        dict(platform=platform, **entry)
        for platform, entries in data["speedups"].items()  # type: ignore[union-attr]
        for entry in entries
    ]
    return "\n\n".join([
        report.format_table(full_rows, "Figure 14a: complete 1000Genome workflow"),
        report.format_table(scaling_rows, "Figure 14b: strong scaling of the individuals task"),
        report.format_table(speedup_rows, "Figure 14b: pairwise speedups"),
    ])


register_artifact(ArtifactSpec(
    name="figure14",
    title="Figure 14: 1000Genome on clouds vs HPC",
    kind="figure",
    cells=lambda config: tuple(
        [request for _, request in _figure14_full_items(config)]
        + [request for _, _, request in _figure14_scaling_items(config)]
    ),
    build=_build_figure14,
    text=_figure14_text,
    description="Scientific workflow on clouds vs the HPC system, with strong scaling (E7/E8)",
))


# ------------------------------------------------------------------- figure 15
def _figure15_from_results(
    results: Dict[str, Dict[str, ExperimentResult]],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    figure: Dict[str, Dict[str, Dict[str, float]]] = {}
    for benchmark, per_platform in results.items():
        figure[benchmark] = {}
        for platform, result in per_platform.items():
            if result.cost is None:
                continue
            breakdown = result.cost.per_1000_executions
            figure[benchmark][platform] = {
                "function_usd": breakdown.function_usd,
                "orchestration_usd": breakdown.orchestration_usd,
                "storage_usd": breakdown.storage_usd,
                "nosql_usd": breakdown.nosql_usd,
                "total_usd": breakdown.total_usd,
            }
    return figure


register_artifact(ArtifactSpec(
    name="figure15",
    title="Figure 15: price per 1000 workflow executions [$]",
    kind="figure",
    cells=_e1_cells,
    build=lambda campaign, config: _figure15_from_results(collect_e1(campaign, config)),
    text=lambda data: report.format_nested(
        data, "Figure 15: price per 1000 workflow executions [$]"
    ),
    description="Cost breakdown per 1000 executions per benchmark and platform (E1)",
))


# ------------------------------------------------------------------- figure 16
def _figure16_items(
    config: ArtifactConfig,
) -> Iterator[Tuple[str, str, str, CellRequest]]:
    names = config.value("figure16", "benchmarks", ("mapreduce", "ml"))
    eras = config.value("figure16", "eras", ("2022", "2024"))
    burst = int(config.value("figure16", "burst_size", config.closed_burst()))  # type: ignore[arg-type]
    workload = WorkloadSpec.burst(burst)
    for name in names:  # type: ignore[union-attr]
        for platform in _platforms(config, "figure16"):
            for era in eras:  # type: ignore[union-attr]
                spec = PlatformSpec.coerce(platform).with_era(str(era))
                yield name, platform, str(era), CellRequest(
                    benchmark=name, platform=spec, workload=workload, seed=config.seed,
                )


def _build_figure16(
    campaign: CampaignResult, config: ArtifactConfig
) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    figure: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for name, platform, era, request in _figure16_items(config):
        result = request_result(campaign, request)
        figure.setdefault(name, {}).setdefault(platform, {})[era] = {
            "median_critical_path_s": result.median_critical_path,
            "median_overhead_s": result.median_overhead,
            "median_runtime_s": result.median_runtime,
        }
    return figure


def _figure16_text(data: Dict[str, Dict[str, Dict[str, Dict[str, float]]]]) -> str:
    rows = []
    for name, per_platform in data.items():
        for platform, eras in per_platform.items():
            for era, values in eras.items():
                rows.append(
                    {"benchmark": name, "platform": platform, "era": era, **values}
                )
    return report.format_table(
        rows, "Figure 16: critical path and overhead, 2022 vs 2024"
    )


register_artifact(ArtifactSpec(
    name="figure16",
    title="Figure 16: evolution 2022 vs 2024",
    kind="figure",
    cells=lambda config: tuple(
        request for _, _, _, request in _figure16_items(config)
    ),
    build=_build_figure16,
    text=_figure16_text,
    description="Critical path and overhead across measurement eras (RQ5)",
))


# ------------------------------------------------------- open-loop companion
def _open_loop_items(config: ArtifactConfig) -> Iterator[Tuple[str, CellRequest]]:
    benchmark = str(config.value("open_loop", "benchmark", "function_chain"))
    rate = float(config.value("open_loop", "rate", 5.0, quick=2.0))  # type: ignore[arg-type]
    duration = float(config.value("open_loop", "duration", 30.0, quick=5.0))  # type: ignore[arg-type]
    workload = WorkloadSpec.poisson(rate=rate, duration=duration)
    for platform in _platforms(config, "open_loop"):
        yield platform, CellRequest(
            benchmark=benchmark, platform=platform, workload=workload,
            seed=config.seed,
        )


def _build_open_loop(
    campaign: CampaignResult, config: ArtifactConfig
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for platform, request in _open_loop_items(config):
        result = request_result(campaign, request)
        if result.open_loop is None:
            continue
        rows.append({"platform": platform, **result.open_loop.as_row()})
    return rows


register_artifact(ArtifactSpec(
    name="open_loop",
    title="Open-loop companion: sustained Poisson traffic per platform",
    kind="figure",
    cells=lambda config: tuple(request for _, request in _open_loop_items(config)),
    build=_build_open_loop,
    text=lambda data: report.format_table(
        data, "Open-loop companion: sustained Poisson traffic per platform"
    ),
    description="Throughput and tail latency under sustained arrivals "
                "(beyond-the-paper companion; not a paper figure)",
))
