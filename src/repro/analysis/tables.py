"""Builders for every table of the paper.

* Table 1 -- literature survey (from :mod:`repro.analysis.literature`);
* Table 2 -- key features of the workflow platforms;
* Table 3 -- pricing constants;
* Table 4 -- key features of the benchmarks (computed from the definitions);
* Table 5 -- cold-start fractions and state-transition counts (from experiment
  results plus the platform transcribers).

Each table is also registered as a declarative artifact with
:mod:`repro.analysis.artifacts`: Tables 1-4 are static (they declare no
campaign cells), Table 5 shares the E1 burst cells with Figures 7/8/11/15, so
one planned campaign feeds all of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..benchmarks import get_benchmark
from ..benchmarks.registry import APPLICATION_BENCHMARKS
from ..core.transcription import compare_transitions
from ..faas.experiment import ExperimentResult
from ..sim.billing import PRICING_BY_PLATFORM
from ..sim.platforms.spec import resolve_platform
from . import report
from .artifacts import ArtifactSpec, register_artifact
from .figures import _e1_cells, collect_e1
from .literature import table1_rows

#: Display order of the application benchmarks, matching the paper's tables.
BENCHMARK_ORDER = (
    "video_analysis",
    "trip_booking",
    "mapreduce",
    "excamera",
    "ml",
    "genome_1000",
)


def table1_literature() -> List[Dict[str, object]]:
    """Table 1: analysis of research papers on serverless workflows."""
    return table1_rows()


def table2_platform_features() -> List[Dict[str, object]]:
    """Table 2: key features of the serverless workflow platforms."""
    rows = []
    features = {
        "aws": {
            "Prog. Model": "State Machine",
            "Model Flexibility": "Static",
            "Max. Parallelism": "40",
            "Interface": "JSON",
        },
        "azure": {
            "Prog. Model": "Orchestrator Function",
            "Model Flexibility": "Dynamic",
            "Max. Parallelism": "Unlimited",
            "Interface": "Durable Functions",
        },
        "gcp": {
            "Prog. Model": "State Machine",
            "Model Flexibility": "Semi-dynamic",
            "Max. Parallelism": "20",
            "Interface": "JSON/YAML",
        },
    }
    for platform in ("aws", "azure", "gcp"):
        profile = resolve_platform(platform)
        row: Dict[str, object] = {"Platform": profile.display_name}
        row.update(features[platform])
        row["Simulated max parallelism"] = profile.orchestration.max_parallelism
        rows.append(row)
    return rows


def table3_pricing() -> List[Dict[str, object]]:
    """Table 3: pricing of compute, invocations, and orchestration per platform."""
    rows = []
    for platform in ("aws", "gcp", "azure"):
        pricing = PRICING_BY_PLATFORM[platform]
        rows.append(
            {
                "Platform": platform.upper() if platform != "azure" else "Azure",
                "Compute time [$/GBs]": pricing.compute_gbs_usd,
                "Invocation [$ per 1M]": pricing.invocations_per_million_usd,
                "Orchestration [$ per 1000 transitions]": pricing.transitions_per_1000_usd,
                "Orchestration [$/GBs]": pricing.orchestration_gbs_usd,
            }
        )
    return rows


def table4_benchmarks(benchmarks: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    """Table 4: #functions, parallelism, critical path, and data volume per benchmark."""
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARK_ORDER)
    rows = []
    for name in names:
        if name not in APPLICATION_BENCHMARKS:
            raise KeyError(f"unknown application benchmark {name!r}")
        benchmark = get_benchmark(name)
        rows.append(benchmark.statistics().as_row())
    return rows


def table5_cold_starts_and_transitions(
    results: Dict[str, Dict[str, ExperimentResult]],
) -> List[Dict[str, object]]:
    """Table 5: cold-start fractions (from experiments) and state transitions
    (from the platform transcribers) per benchmark."""
    rows = []
    for benchmark_name, per_platform in results.items():
        benchmark = get_benchmark(benchmark_name)
        comparison = compare_transitions(benchmark.definition, benchmark.array_sizes)
        row: Dict[str, object] = {"Benchmark": benchmark_name}
        for platform in ("aws", "gcp", "azure"):
            result = per_platform.get(platform)
            if result is not None:
                row[f"Cold starts {platform.upper()}"] = round(result.cold_start_fraction, 4)
        row["State transitions AWS"] = comparison.aws_transitions
        row["State transitions GCP"] = comparison.gcp_transitions
        row["History events Azure"] = comparison.azure_history_events
        rows.append(row)
    return rows


# ------------------------------------------------------------------ artifacts
def _static_table(name: str, title: str, build, description: str) -> None:
    register_artifact(ArtifactSpec(
        name=name,
        title=title,
        kind="table",
        cells=lambda config: (),
        build=lambda campaign, config: build(),
        text=lambda data, _title=title: report.format_table(data, _title),
        description=description,
    ))


_static_table(
    "table1",
    "Table 1: analysis of research papers on serverless workflows",
    table1_literature,
    "Literature survey of 72 papers on serverless workflows",
)
_static_table(
    "table2",
    "Table 2: key features of serverless workflow platforms",
    table2_platform_features,
    "Programming model, flexibility, parallelism, and interface per platform",
)
_static_table(
    "table3",
    "Table 3: pricing according to vendor documentation",
    table3_pricing,
    "Compute, invocation, and orchestration pricing constants",
)
_static_table(
    "table4",
    "Table 4: key features of the benchmarks",
    table4_benchmarks,
    "#functions, parallelism, critical path, and data volume per benchmark",
)

register_artifact(ArtifactSpec(
    name="table5",
    title="Table 5: relative #cold starts and #state transitions",
    kind="table",
    cells=_e1_cells,
    build=lambda campaign, config: table5_cold_starts_and_transitions(
        collect_e1(campaign, config)
    ),
    text=lambda data: report.format_table(
        data, "Table 5: relative #cold starts and #state transitions"
    ),
    description="Cold-start fractions (E1) and state-transition counts per benchmark",
))
