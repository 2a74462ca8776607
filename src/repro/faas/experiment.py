"""Experiment runner: the paper's measurement methodology (Section 7.1).

An experiment deploys a benchmark to a platform, executes a workload against
it (the paper's bursts, optionally after priming warm containers, or any
open-loop arrival process from :mod:`repro.faas.workload`), collects
per-function measurements from the metrics store, and produces the summary
statistics, cost report, and scaling profile the evaluation figures are built
from.

The repetition policy follows the paper: the number of required repetitions is
determined from non-parametric confidence intervals on the median (the paper
aims at a 5 % interval of the median with 95 % confidence and conservatively
executes every benchmark 180 times = 6 bursts of 30).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.critical_path import WorkflowMeasurement
from ..observability import EngineMonitor, current_registry
from ..sim.orchestration.events import OrchestrationStats
from ..sim.platforms.base import Platform, PlatformProfile
from ..sim.platforms.spec import DEFAULT_ERA, PlatformSpec, is_builtin_spec
from .benchmark import WorkflowBenchmark
from .cost import CostReport, combine_cost_reports, compute_cost_report
from .deployment import Deployment
from .metrics import (
    BenchmarkSummary,
    OpenLoopSummary,
    container_scaling_profile,
    open_loop_summary_over_repetitions,
    summarize,
)
from .trigger import WorkloadExecutor
from .workload import WorkloadSpec


def derive_platform_seed(seed: int, repetition: int) -> int:
    """Platform seed for one repetition of an experiment.

    Repetition 0 keeps the raw experiment seed, so single-repetition results
    are bit-identical with historical runs.  Later repetitions derive an
    independent seed with the same SHA-256 scheme as
    :func:`repro.faas.campaign.derive_job_seed` and
    :meth:`repro.sim.rng.RandomStreams.stream`.  The previous affine scheme
    (``seed + repetition * 977``) collided across (seed, repetition) pairs --
    e.g. seed 977/repetition 0 and seed 0/repetition 1 simulated the exact
    same platform.
    """
    if repetition == 0:
        return int(seed)
    digest = hashlib.sha256(f"{int(seed)}:repetition:{int(repetition)}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**31)


@dataclass
class ExperimentConfig:
    """How a benchmark experiment is executed.

    ``platform`` accepts a :class:`~repro.sim.platforms.spec.PlatformSpec`, a
    spec string (``"aws"``, ``"aws@2022"``,
    ``"azure@2024:cold_start=x1.5"``), or a registered scenario name; it is
    normalised to a spec with the era pinned (the default era when the spec
    names none).  ``workload`` accepts a
    :class:`~repro.faas.workload.WorkloadSpec` or a CLI spec string and
    defaults to the paper's burst of 30.
    """

    platform: Union[str, PlatformSpec] = "aws"
    seed: int = 0
    repetitions: int = 1
    memory_mb: Optional[int] = None
    workload: Optional[Union[str, WorkloadSpec]] = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        self.platform = PlatformSpec.coerce(self.platform).with_default_era()
        if self.workload is None:
            self.workload = WorkloadSpec.burst()
        elif isinstance(self.workload, str):
            self.workload = WorkloadSpec.parse(self.workload)

    @property
    def platform_spec(self) -> PlatformSpec:
        assert isinstance(self.platform, PlatformSpec)  # normalised in __post_init__
        return self.platform

    @property
    def platform_name(self) -> str:
        """Era-less platform label (``"aws"`` for plain specs) used in tables."""
        return self.platform_spec.label

    @property
    def workload_spec(self) -> WorkloadSpec:
        assert isinstance(self.workload, WorkloadSpec)  # normalised in __post_init__
        return self.workload


@dataclass
class RepetitionResult:
    """Everything one repetition (one workload run on a fresh platform) produced.

    A repetition is the smallest addressable unit of experiment work: it runs
    on its own platform instance, so its cost report is computed from exactly
    the executions, orchestration stats, and storage traffic of that platform.
    """

    repetition: int
    measurements: List[WorkflowMeasurement] = field(default_factory=list)
    orchestration_stats: List[OrchestrationStats] = field(default_factory=list)
    containers_created: int = 0
    cost: Optional[CostReport] = None


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    benchmark: str
    platform: str
    config: ExperimentConfig
    measurements: List[WorkflowMeasurement] = field(default_factory=list)
    orchestration_stats: List[OrchestrationStats] = field(default_factory=list)
    summary: Optional[BenchmarkSummary] = None
    open_loop: Optional[OpenLoopSummary] = None
    cost: Optional[CostReport] = None
    scaling_profile: List[Dict[str, float]] = field(default_factory=list)
    containers_created: int = 0

    def __getattr__(self, name: str) -> object:
        # Reached only while ``name`` is unset: a result decoded from the
        # cell cache's column layout (repro.faas.results) leaves its record
        # lists unset and builds each one on its first read.
        unbuilt = self.__dict__.get("_unbuilt", {})
        if name not in unbuilt:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        build, args = unbuilt[name]
        value = self.__dict__[name] = build(*args)
        # A new dict, not a pop: a shallow copy shares the old one.
        self._unbuilt = {key: item for key, item in unbuilt.items() if key != name}
        return value

    def build_on_first_read(
        self, unbuilt: Dict[str, Tuple[Callable[..., list], tuple]]
    ) -> None:
        """Unset each named list; its first read sets it to ``build(*args)``.

        ``build`` is a module-level function and ``args`` plain data, so an
        unbuilt result still pickles and copies; equality, ``repr`` and
        ``dataclasses.replace`` read, and so build, every list.
        """
        for name in unbuilt:
            delattr(self, name)
        self._unbuilt = unbuilt

    @property
    def median_runtime(self) -> float:
        return self.summary.median_runtime if self.summary else 0.0

    @property
    def median_critical_path(self) -> float:
        return self.summary.median_critical_path if self.summary else 0.0

    @property
    def median_overhead(self) -> float:
        return self.summary.median_overhead if self.summary else 0.0

    @property
    def cold_start_fraction(self) -> float:
        return self.summary.cold_start_fraction if self.summary else 0.0


def _attach_engine_monitor(platform: Platform) -> None:
    """Attach an :class:`EngineMonitor` to a fresh platform's engine.

    Only when a recording registry is ambient: the default null registry
    leaves the engine's monitor seam at ``None``, keeping the hot loop's
    telemetry cost at exactly one ``is None`` check per :meth:`run` call.
    The monitor is duck-typed through ``getattr`` so the engine itself never
    imports observability (lint rule R009).
    """
    if not current_registry().enabled:
        return
    env = getattr(platform, "env", None)
    set_monitor = getattr(env, "set_monitor", None)
    if set_monitor is not None:
        set_monitor(EngineMonitor())


#: Per-process memo of compiled platform profiles, keyed by
#: ``(spec.canonical(), memory_mb)``.  Only specs resolving against the
#: builtin registry are memoised: runtime-registered platforms (and runtime
#: overwrites of builtin names) may change between cells, and
#: ``is_builtin_spec`` flips to False the moment that happens.  Profiles are
#: shared across Platform instances -- safe because nothing mutates a profile
#: after construction (``with_overrides`` copies).  Rebuilt per worker
#: process; never pickled across the process boundary.
_PROFILE_MEMO: Dict[object, PlatformProfile] = {}


def _compiled_profile(spec: PlatformSpec, memory_mb: Optional[int]) -> PlatformProfile:
    if not is_builtin_spec(spec):
        profile = spec.resolve()
        if memory_mb is not None:
            profile = profile.with_overrides(default_memory_mb=memory_mb)
        return profile
    key = (spec.canonical(), memory_mb)
    profile = _PROFILE_MEMO.get(key)
    if profile is None:
        profile = spec.resolve()
        if memory_mb is not None:
            profile = profile.with_overrides(default_memory_mb=memory_mb)
        if len(_PROFILE_MEMO) >= 256:
            _PROFILE_MEMO.clear()
        _PROFILE_MEMO[key] = profile
    return profile


class ExperimentRunner:
    """Runs benchmark experiments on simulated platforms."""

    def __init__(self, config: ExperimentConfig) -> None:
        self._config = config

    @property
    def config(self) -> ExperimentConfig:
        return self._config

    def _make_platform(self, repetition: int) -> Platform:
        profile = _compiled_profile(self._config.platform_spec, self._config.memory_mb)
        platform = Platform(profile, seed=derive_platform_seed(self._config.seed, repetition))
        _attach_engine_monitor(platform)
        return platform

    def _effective_benchmark(self, benchmark: WorkflowBenchmark) -> WorkflowBenchmark:
        if self._config.memory_mb is not None and self._config.memory_mb != benchmark.memory_mb:
            return _with_memory(benchmark, self._config.memory_mb)
        return benchmark

    def run_repetition(self, benchmark: WorkflowBenchmark, repetition: int) -> RepetitionResult:
        """Run one repetition (one workload run on a fresh platform).

        The cost report is computed from this repetition's platform and
        orchestration stats only, so billing is correct regardless of how many
        repetitions the surrounding experiment runs.
        """
        benchmark = self._effective_benchmark(benchmark)
        platform = self._make_platform(repetition)
        deployment = Deployment.deploy(benchmark, platform)
        executor = WorkloadExecutor(self._config.workload_spec)
        invocation_ids = executor.execute(deployment, repetition=repetition)
        result = RepetitionResult(repetition=repetition)
        for invocation_id in invocation_ids:
            measurement = deployment.measurement(invocation_id)
            if invocation_id in executor.arrivals:
                # Client-observed arrival: the platform only timestamps a
                # function once its container was acquired, so queue wait
                # under sustained load is invisible without this anchor.
                measurement.metadata["arrival_s"] = executor.arrivals[invocation_id]
            result.measurements.append(measurement)
            result.orchestration_stats.append(deployment.stats_for(invocation_id))
        result.containers_created = platform.container_pool.containers_created()
        result.cost = compute_cost_report(
            benchmark.name, platform, result.orchestration_stats
        )
        return result

    def run(self, benchmark: WorkflowBenchmark) -> ExperimentResult:
        """Execute the configured number of workload runs and aggregate them."""
        benchmark = self._effective_benchmark(benchmark)

        result = ExperimentResult(
            benchmark=benchmark.name,
            platform=self._config.platform_name,
            config=self._config,
        )
        cost_reports: List[CostReport] = []
        repetition_groups: List[List[WorkflowMeasurement]] = []
        for repetition in range(self._config.repetitions):
            rep = self.run_repetition(benchmark, repetition)
            repetition_groups.append(rep.measurements)
            result.measurements.extend(rep.measurements)
            result.orchestration_stats.extend(rep.orchestration_stats)
            result.containers_created += rep.containers_created
            if rep.cost is not None:
                cost_reports.append(rep.cost)

        result.summary = summarize(
            benchmark.name, self._config.platform_name, result.measurements
        )
        result.scaling_profile = container_scaling_profile(result.measurements)
        workload = self._config.workload_spec
        if workload.is_open_loop:
            result.open_loop = open_loop_summary_over_repetitions(
                benchmark.name,
                self._config.platform_name,
                repetition_groups,
                duration_per_repetition_s=workload.duration_s,
            )
        if cost_reports:
            result.cost = combine_cost_reports(cost_reports)
        return result


def run_benchmark(
    benchmark: WorkflowBenchmark,
    platform: Union[str, PlatformSpec],
    *,
    repetitions: int = 1,
    seed: int = 0,
    memory_mb: Optional[int] = None,
    workload: Optional[Union[str, WorkloadSpec]] = None,
) -> ExperimentResult:
    """One-call convenience wrapper around :class:`ExperimentRunner`.

    ``platform`` accepts a :class:`~repro.sim.platforms.spec.PlatformSpec`, a
    spec string (``"aws@2022:cold_start=x1.5"``), or a scenario name;
    ``workload`` accepts a :class:`~repro.faas.workload.WorkloadSpec` or a CLI
    spec string (``"poisson:rate=50,duration=120"``).
    """
    config = ExperimentConfig(
        platform=platform,
        seed=seed,
        repetitions=repetitions,
        memory_mb=memory_mb,
        workload=workload,
    )
    return ExperimentRunner(config).run(benchmark)


def compare_platforms(
    benchmark: WorkflowBenchmark,
    platforms: Sequence[Union[str, PlatformSpec]] = ("gcp", "aws", "azure"),
    *,
    repetitions: int = 1,
    seed: int = 0,
    era: Optional[str] = None,
    workload: Optional[Union[str, WorkloadSpec]] = None,
) -> Dict[str, ExperimentResult]:
    """Run the same benchmark on several platforms (the paper's main comparison).

    ``platforms`` entries are platform specs (objects, spec strings, or
    scenario names); the returned dict is keyed by each entry's canonical
    form, so plain names keep their plain keys (``"aws"``) while
    ``"aws@2022"``-style variants stay distinguishable.  ``era`` applies to
    era-less entries only (a spec's own era wins, matching the campaign's
    pinned-entry semantics).
    """
    specs = [PlatformSpec.coerce(platform) for platform in platforms]
    keys = [spec.canonical() for spec in specs]
    # Duplicates are detected on the era-resolved identity, so "aws" and
    # "aws@2024" (the same cell once the default era applies) are caught,
    # matching CampaignSpec.expand()'s duplicate-cell check.
    resolved = [
        spec.with_era(spec.era or era or DEFAULT_ERA).canonical() for spec in specs
    ]
    if len(set(resolved)) != len(resolved):
        raise ValueError(f"duplicate platforms in comparison: {keys}")
    return {
        # A spec's own era wins over the comparison-wide era -- so
        # "aws aws@2022" with era="2024" compares the two eras instead of
        # erroring.
        key: run_benchmark(
            benchmark,
            spec.with_era(spec.era or era or DEFAULT_ERA),
            repetitions=repetitions,
            seed=seed,
            workload=workload,
        )
        for key, spec in zip(keys, specs)
    }


def _with_memory(benchmark: WorkflowBenchmark, memory_mb: int) -> WorkflowBenchmark:
    """Copy of the benchmark with a different memory configuration."""
    return WorkflowBenchmark(
        name=benchmark.name,
        definition=benchmark.definition,
        functions=benchmark.functions,
        memory_mb=memory_mb,
        prepare=benchmark.prepare,
        make_input=benchmark.make_input,
        array_sizes=dict(benchmark.array_sizes),
        data_spec=dict(benchmark.data_spec),
        description=benchmark.description,
        category=benchmark.category,
    )
