"""Parallel experiment campaigns: the paper's full evaluation sweep.

The evaluation of the paper is a large cross product -- every benchmark on
every platform, across eras, memory configurations, arrival-process workloads
(see :mod:`repro.faas.workload`), and repeated with several seeds.  A :class:`CampaignSpec` describes such a sweep declaratively; it is
expanded into independent :class:`CampaignJob` cells, each of which is one
:class:`~repro.faas.experiment.ExperimentConfig` executed by the ordinary
:class:`~repro.faas.experiment.ExperimentRunner`.

Three properties make campaigns practical at scale:

* **parallelism** -- cells are independent, so they are distributed over a
  ``concurrent.futures.ProcessPoolExecutor`` worker pool (the simulator is
  CPU-bound pure Python, so processes beat threads);
* **determinism** -- every cell derives its RNG seed by hashing the campaign's
  base seed with the cell coordinates (the same scheme
  :class:`~repro.sim.rng.RandomStreams` uses for named streams), so results
  are identical regardless of worker count or execution order;
* **incrementality** -- finished cells are cached on disk as JSON keyed by a
  fingerprint of the cell's full configuration, so re-running a campaign only
  computes the missing cells.

The :class:`CampaignResult` aggregator rolls the per-cell
:class:`~repro.faas.experiment.ExperimentResult` objects into the comparison
tables and figure inputs of the paper's evaluation.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from time import perf_counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..observability import current_registry
from ..sim.platforms.spec import DEFAULT_ERA, PlatformSpec, available_eras, is_builtin_spec
from .cost import CostReport, combine_cost_reports
from .experiment import ExperimentConfig, ExperimentResult
from .results import result_from_dict, result_to_dict
from .workload import WorkloadSpec

#: Bump when the cached document layout changes; stale entries are recomputed.
#: v2: jobs carry a full WorkloadSpec (the workloads sweep dimension) instead
#: of the burst_size/mode pair, and the fingerprint covers it.
#: v3: jobs identify the platform by a full PlatformSpec (base, era,
#: overrides) instead of the (platform, era) string pair; fingerprints cover
#: the spec, so every v2 cell document is invalidated and recomputed.
CACHE_VERSION = 3

#: Sentinel distinguishing "use the spec's first memory config" from an
#: explicit ``None`` (= the benchmark's own memory configuration).
_FIRST = object()


def derive_job_seed(base_seed: int, *coordinates: object) -> int:
    """Deterministic per-cell seed from the campaign seed and cell coordinates.

    Mirrors :meth:`repro.sim.rng.RandomStreams.stream`: the coordinates are
    hashed with SHA-256 so every cell gets an independent, reproducible seed
    and adding new sweep dimensions never perturbs existing cells.
    """
    name = ":".join(str(part) for part in coordinates)
    digest = hashlib.sha256(f"{int(base_seed)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**31)


@dataclass(frozen=True)
class CampaignJob:
    """One cell of a campaign: a fully specified, picklable unit of work.

    ``platform`` is a fully resolved :class:`PlatformSpec` (the era is always
    pinned).  Cells over builtin platforms/eras are self-contained -- worker
    processes resolve them without the parent's scenario definitions, which
    are expanded at parse time.  Cells referencing platforms or eras
    registered at runtime (``register_platform``/``register_era``) depend on
    the registering process and are executed there (see
    :func:`run_campaign`).
    """

    benchmark: str
    platform: PlatformSpec
    memory_mb: Optional[int]
    seed_index: int
    seed: int
    workload: WorkloadSpec
    repetitions: int

    @property
    def era(self) -> str:
        return self.platform.era or DEFAULT_ERA

    @property
    def platform_label(self) -> str:
        """Era-less canonical spec -- the 'platform' coordinate of tables."""
        return self.platform.label

    @property
    def cell_key(self) -> Tuple[str, str, str, Optional[int], str, int]:
        return (
            self.benchmark, self.platform_label, self.era, self.memory_mb,
            self.workload.canonical(), self.seed_index,
        )

    @property
    def group_key(self) -> Tuple[str, str, str, Optional[int], str]:
        """The aggregation group: every seed replicate of one table cell."""
        return (
            self.benchmark, self.platform_label, self.era, self.memory_mb,
            self.workload.canonical(),
        )

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            platform=self.platform,
            seed=self.seed,
            repetitions=self.repetitions,
            memory_mb=self.memory_mb,
            workload=self.workload,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "platform": self.platform.to_dict(),
            "era": self.era,
            "memory_mb": self.memory_mb,
            "seed_index": self.seed_index,
            "seed": self.seed,
            "workload": self.workload.to_dict(),
            "repetitions": self.repetitions,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "CampaignJob":
        # Job documents of earlier formats (a mode/burst_size pair, or a bare
        # platform string) raise instead of being misread.
        memory_mb = document.get("memory_mb")
        workload = WorkloadSpec.from_dict(document["workload"])  # type: ignore[arg-type]
        platform_doc = document["platform"]
        if not isinstance(platform_doc, dict):
            raise TypeError(f"job platform {platform_doc!r} is not a platform spec document")
        platform = PlatformSpec.from_dict(platform_doc)
        return cls(
            benchmark=str(document["benchmark"]),
            platform=platform,
            memory_mb=int(memory_mb) if memory_mb is not None else None,
            seed_index=int(document["seed_index"]),
            seed=int(document["seed"]),
            workload=workload,
            repetitions=int(document["repetitions"]),
        )

    def fingerprint(self) -> str:
        """Stable cache key covering everything that influences the result.

        Memoized: the grid paths consult the fingerprint many times per cell
        (shard assignment, leases, logs, merge), and the job is frozen, so
        the digest is computed once per instance.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True)
            cached = hashlib.sha256(f"v{CACHE_VERSION}:{canonical}".encode()).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: benchmarks x platforms x eras x memory x workloads x seeds.

    ``platforms`` is a spec-valued sweep dimension: entries may be
    :class:`~repro.sim.platforms.spec.PlatformSpec` objects, spec strings
    (``"aws"``, ``"aws@2022"``, ``"azure:cold_start=x1.5"``), or registered
    scenario names.  Era-less entries are crossed with the ``eras`` dimension
    exactly as the bare platform strings always were; an entry that pins its
    own era (``"aws@2022"``) is swept once, ignoring ``eras``.

    ``workloads`` is the arrival-process sweep dimension; entries may be
    :class:`~repro.faas.workload.WorkloadSpec` objects or CLI spec strings
    (``"poisson:rate=50,duration=120"``).  When left empty, the deprecated
    ``mode``/``burst_size`` pair is compiled into the single equivalent
    workload, preserving the pre-workload behaviour.

    ``cells`` holds *explicit* cells appended to the cross product: ragged
    coordinate sets -- per-cell benchmarks, platforms, workloads, memory and
    raw seeds -- that no cross product can express.  Entries are
    :class:`CampaignJob` objects or their ``to_dict`` documents.  Explicit
    cells carry their platform seed verbatim (``seed == seed_index``), which
    is how the artifact pipeline (:mod:`repro.analysis.artifacts`) reproduces
    the figure builders' historical seeds bit-identically.  A campaign may be
    purely explicit (``benchmarks=()``).
    """

    benchmarks: Sequence[str] = ()
    platforms: Sequence[Union[str, PlatformSpec]] = ("gcp", "aws", "azure")
    eras: Sequence[str] = (DEFAULT_ERA,)
    memory_configs: Sequence[Optional[int]] = (None,)
    seeds: Sequence[int] = (0, 1)
    burst_size: int = 30
    repetitions: int = 1
    mode: str = "burst"  # deprecated alias; see class docstring
    base_seed: int = 0
    workloads: Sequence[Union[str, WorkloadSpec]] = ()
    cells: Sequence[Union["CampaignJob", Dict[str, object]]] = ()

    def __post_init__(self) -> None:
        # Frozen dataclass: normalisation goes through object.__setattr__
        # (the same pattern as PlatformSpec / CampaignJob).
        coerce = lambda name, value: object.__setattr__(self, name, value)  # noqa: E731
        coerce("benchmarks", tuple(self.benchmarks))
        coerce("platforms", tuple(
            PlatformSpec.coerce(entry) for entry in self.platforms
        ))
        # Era labels are strings throughout (a programmatic eras=(2022,)
        # would otherwise crash the validation below with a TypeError).
        coerce("eras", tuple(str(era) for era in self.eras))
        coerce("memory_configs", tuple(self.memory_configs) or (None,))
        coerce("seeds", tuple(self.seeds))
        coerce("cells", tuple(
            entry if isinstance(entry, CampaignJob) else CampaignJob.from_dict(entry)
            for entry in self.cells
        ))
        if not self.benchmarks and not self.cells:
            raise ValueError("a campaign needs at least one benchmark or explicit cell")
        if not self.platforms or not self.eras or not self.seeds:
            raise ValueError("platforms, eras, and seeds must be non-empty")
        if len({p.canonical() for p in self.platforms}) != len(self.platforms):
            raise ValueError("duplicate platforms in the sweep")
        known_eras = available_eras()
        pinned_eras = {p.era for p in self.platforms if p.era is not None}
        pinned_eras |= {job.era for job in self.cells}
        unknown_eras = sorted((set(self.eras) | pinned_eras) - set(known_eras))
        if unknown_eras:
            # Catch bad eras -- swept or pinned inside a platform spec --
            # before any worker burns compute on the campaign.
            raise ValueError(
                f"unknown era(s) {', '.join(unknown_eras)}; registered: {known_eras}"
            )
        if self.mode not in ("burst", "warm"):
            raise ValueError(f"unknown trigger mode {self.mode!r}")
        if self.burst_size < 1 or self.repetitions < 1:
            raise ValueError("burst size and repetitions must be positive")
        if self.workloads:
            coerce("workloads", tuple(
                WorkloadSpec.parse(entry) if isinstance(entry, str) else entry
                for entry in self.workloads
            ))
        else:
            legacy = WorkloadSpec.burst if self.mode == "burst" else WorkloadSpec.warm
            coerce("workloads", (legacy(self.burst_size),))
        if len({w.canonical() for w in self.workloads}) != len(self.workloads):
            raise ValueError("duplicate workloads in the sweep")

    def expand(self) -> List[CampaignJob]:
        """The cross product of all sweep dimensions, in deterministic order."""
        jobs: List[CampaignJob] = []
        for benchmark in self.benchmarks:
            for platform in self.platforms:
                # An era-pinned spec is swept once; era-less specs cross the
                # eras dimension (the legacy platforms x eras behaviour).
                entry_eras = (platform.era,) if platform.era is not None else self.eras
                for era in entry_eras:
                    resolved = platform.with_era(era)
                    for memory_mb in self.memory_configs:
                        for workload in self.workloads:
                            for seed_index in self.seeds:
                                # The workload is deliberately not part of the
                                # seed coordinates: different arrival processes
                                # over the same cell reuse one platform seed
                                # (exactly as burst/warm always did), so
                                # workload sweeps are paired comparisons.  The
                                # platform coordinate is the era-less label, so
                                # plain specs keep their historical seeds and
                                # "aws@2022" pairs with "aws" in era 2022.
                                seed = derive_job_seed(
                                    self.base_seed, benchmark, resolved.label,
                                    era, memory_mb, seed_index,
                                )
                                jobs.append(
                                    CampaignJob(
                                        benchmark=benchmark,
                                        platform=resolved,
                                        memory_mb=memory_mb,
                                        seed_index=seed_index,
                                        seed=seed,
                                        workload=workload,
                                        repetitions=self.repetitions,
                                    )
                                )
        jobs.extend(self.cells)
        seen: Dict[Tuple[str, str, str, Optional[int], str, int], CampaignJob] = {}
        for job in jobs:
            if job.cell_key in seen:
                raise ValueError(
                    f"sweep produces duplicate cells, e.g. {job.cell_key!r} "
                    f"(check for repeated sweep values, or an era-pinned "
                    f"platform spec colliding with an era-less one crossed "
                    f"with the same era)"
                )
            seen[job.cell_key] = job
        return jobs

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "benchmarks": list(self.benchmarks),
            "platforms": [p.canonical() for p in self.platforms],
            "eras": list(self.eras),
            "memory_configs": list(self.memory_configs),
            "seeds": list(self.seeds),
            "burst_size": self.burst_size,
            "repetitions": self.repetitions,
            "mode": self.mode,
            "base_seed": self.base_seed,
            "workloads": [w.to_dict() for w in self.workloads],
        }
        if self.cells:
            # Emitted only when present, so documents of purely cross-product
            # campaigns -- and the grid manifests built from them -- stay
            # byte-identical with earlier releases.
            document["cells"] = [job.to_dict() for job in self.cells]
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        The round trip is exact: the rebuilt spec expands to jobs with the
        same fingerprints, so a run directory created on one host describes
        the identical campaign on every other host.
        """
        return cls(
            benchmarks=[str(name) for name in document["benchmarks"]],  # type: ignore[union-attr]
            platforms=list(document["platforms"]),  # type: ignore[arg-type]
            eras=list(document["eras"]),  # type: ignore[arg-type]
            memory_configs=[
                int(value) if value is not None else None
                for value in document.get("memory_configs", [None])  # type: ignore[union-attr]
            ],
            seeds=[int(value) for value in document["seeds"]],  # type: ignore[union-attr]
            burst_size=int(document.get("burst_size", 30)),  # type: ignore[arg-type]
            repetitions=int(document.get("repetitions", 1)),  # type: ignore[arg-type]
            mode=str(document.get("mode", "burst")),
            base_seed=int(document.get("base_seed", 0)),  # type: ignore[arg-type]
            workloads=[
                WorkloadSpec.from_dict(entry)  # type: ignore[arg-type]
                for entry in document.get("workloads", [])  # type: ignore[union-attr]
            ],
            cells=list(document.get("cells", [])),  # type: ignore[arg-type]
        )


#: Per-process memo of constructed benchmarks, keyed by the cell's benchmark
#: spec string.  The registry is module-static (no runtime registration API)
#: and a constructed :class:`WorkflowBenchmark` is read-only configuration --
#: runs accumulate state on the platform/deployment, never on the benchmark --
#: so a warm worker can hand the same object to every cell that names it.
#: Rebuilt from scratch in each worker process; never pickled across the
#: process boundary.
_BENCHMARK_MEMO: Dict[str, object] = {}


def _warm_benchmark(name: str):
    from ..benchmarks import get_benchmark

    benchmark = _BENCHMARK_MEMO.get(name)
    if benchmark is None:
        benchmark = get_benchmark(name)
        if len(_BENCHMARK_MEMO) >= 128:
            _BENCHMARK_MEMO.clear()
        _BENCHMARK_MEMO[name] = benchmark
    return benchmark


def _execute_job(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: run one cell and return its serialised result.

    Takes and returns plain JSON-compatible dictionaries so the payload both
    pickles cheaply across the process boundary and doubles as the on-disk
    cache document.  Imports are local so a fresh worker process only pays for
    what it uses.
    """
    from .experiment import ExperimentRunner

    job = CampaignJob.from_dict(payload)
    benchmark = _warm_benchmark(job.benchmark)
    result = ExperimentRunner(job.experiment_config()).run(benchmark)
    return result_to_dict(result)


def _execute_job_timed(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point with cost accounting: result document + wall time.

    The grid logs each cell's observed wall cost (``elapsed_s``) next to its
    result so :func:`repro.faas.grid.autoscale_hint` can size worker fleets
    from real medians.  Monotonic-timer durations are measurement, not
    simulation state -- they never reach fingerprints or result documents.
    """
    start = perf_counter()
    document = _execute_job(payload)
    return {"document": document, "elapsed_s": perf_counter() - start}


#: Wall-clock budget one chunk task aims for.  Small enough that progress
#: reporting and grid lease heartbeats stay responsive, large enough that
#: sub-millisecond cells amortise the per-task pickle/dispatch overhead.
CHUNK_TARGET_S = 0.2
#: Hard ceiling on cells per chunk, whatever the observed cell cost.
MAX_CHUNK_CELLS = 32


def _execute_chunk(payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Worker entry point for a batch of cells: one envelope per payload.

    Faults stay per-cell: a raising cell contributes an ``{"error": ...}``
    envelope while its chunk-mates still return ``{"document", "elapsed_s"}``
    envelopes, so batching never couples one cell's fate to another's.  The
    parent maps error envelopes back onto the retry/fail path exactly as if
    the cell had been submitted alone.
    """
    envelopes: List[Dict[str, object]] = []
    for payload in payloads:
        try:
            envelopes.append(_execute_job_timed(payload))
        except Exception as exc:  # noqa: BLE001 - isolate per-cell faults
            envelopes.append({"error": f"{type(exc).__name__}: {exc}"})
    return envelopes


def execute_job_inline(job: "CampaignJob") -> Dict[str, object]:
    """Run one cell in the calling process and return its result document.

    The public twin of the pool worker entry: same serialise -> run ->
    serialise round trip a worker performs, without a pool, cache, or grid
    around it.  Used by the bench harness (``repro-flow bench``) to time
    campaign cells, and handy for profiling a single cell under a debugger.
    """
    return _execute_job(job.to_dict())


@dataclass
class CampaignCell:
    """One finished cell: the job, its result, and where the result came from."""

    job: CampaignJob
    result: ExperimentResult
    from_cache: bool = False


@dataclass
class CampaignResult:
    """All finished cells of a campaign plus the paper-style aggregations."""

    spec: CampaignSpec
    cells: List[CampaignCell] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.from_cache)

    def index(self) -> Dict[Tuple[str, str, str, Optional[int], str, int], CampaignCell]:
        """``cell_key -> CampaignCell`` for O(1) lookups.

        Rebuilt whenever the cell list changes size (partial merges grow the
        result between renders), so consumers may hold one ``CampaignResult``
        across incremental updates.
        """
        cached = getattr(self, "_index", None)
        if cached is None or len(cached) != len(self.cells):
            cached = {cell.job.cell_key: cell for cell in self.cells}
            object.__setattr__(self, "_index", cached)
        return cached

    def _resolve_key(
        self,
        benchmark: str,
        platform: Union[str, PlatformSpec],
        era: Optional[str],
        memory_mb: object,
        seed_index: Optional[int],
        workload: Optional[Union[str, WorkloadSpec]],
    ) -> Tuple[str, str, str, Optional[int], str, int]:
        spec = PlatformSpec.coerce(platform)
        if spec.era is not None:
            era = spec.era
        elif era is None:
            era = self.spec.eras[0]
        memory_mb = self.spec.memory_configs[0] if memory_mb is _FIRST else memory_mb
        seed_index = seed_index if seed_index is not None else self.spec.seeds[0]
        workload = workload if workload is not None else self.spec.workloads[0]
        if isinstance(workload, str):
            workload = WorkloadSpec.parse(workload)
        return (benchmark, spec.label, era, memory_mb, workload.canonical(), seed_index)

    def cell(
        self,
        benchmark: str,
        platform: Union[str, PlatformSpec],
        era: Optional[str] = None,
        memory_mb: object = _FIRST,
        seed_index: Optional[int] = None,
        workload: Optional[Union[str, WorkloadSpec]] = None,
    ) -> ExperimentResult:
        """Look up one cell's result (defaults resolve to the spec's first value).

        ``platform`` accepts any spec form; a spec that pins its own era
        (``"aws@2022"``) overrides the ``era`` argument.
        """
        key = self._resolve_key(benchmark, platform, era, memory_mb, seed_index, workload)
        found = self.index().get(key)
        if found is None:
            raise KeyError(f"no campaign cell {key!r}")
        return found.result

    def get(
        self,
        benchmark: str,
        platform: Union[str, PlatformSpec],
        era: Optional[str] = None,
        memory_mb: object = _FIRST,
        seed_index: Optional[int] = None,
        workload: Optional[Union[str, WorkloadSpec]] = None,
    ) -> Optional[ExperimentResult]:
        """Like :meth:`cell` but returns None for absent cells (partial merges)."""
        key = self._resolve_key(benchmark, platform, era, memory_mb, seed_index, workload)
        found = self.index().get(key)
        return found.result if found is not None else None

    def has_job(self, job: CampaignJob) -> bool:
        """True when the result holds ``job``'s cell (partial-render probes)."""
        return job.cell_key in self.index()

    def _groups(self) -> Dict[Tuple[str, str, str, Optional[int], str], List[CampaignCell]]:
        groups: Dict[Tuple[str, str, str, Optional[int], str], List[CampaignCell]] = {}
        for cell in self.cells:
            groups.setdefault(cell.job.group_key, []).append(cell)
        for members in groups.values():
            members.sort(key=lambda cell: cell.job.seed_index)
        return groups

    def aggregated_medians(self) -> Dict[Tuple[str, str, str, Optional[int], str], float]:
        """Median across seed replicates of each cell's median runtime.

        This is the headline number of the paper's comparison figures; it is
        also what the determinism tests compare across worker counts.
        """
        return {
            key: statistics.median(c.result.median_runtime for c in members)
            for key, members in sorted(self._groups().items(), key=lambda kv: str(kv[0]))
        }

    def comparison_table(self) -> List[Dict[str, object]]:
        """Figure 7 / Figure 8 style rows: one row per benchmark-platform cell,
        aggregated over seed replicates."""
        rows: List[Dict[str, object]] = []
        for key, members in sorted(self._groups().items(), key=lambda kv: str(kv[0])):
            benchmark, platform, era, memory_mb, workload = key
            results = [cell.result for cell in members]
            rows.append(
                {
                    "benchmark": benchmark,
                    "platform": platform,
                    "era": era,
                    "memory_mb": memory_mb if memory_mb is not None else "default",
                    "workload": workload,
                    "seeds": len(results),
                    "median_runtime_s": round(
                        statistics.median(r.median_runtime for r in results), 3
                    ),
                    "median_critical_path_s": round(
                        statistics.median(r.median_critical_path for r in results), 3
                    ),
                    "median_overhead_s": round(
                        statistics.median(r.median_overhead for r in results), 3
                    ),
                    "cold_start_fraction": round(
                        statistics.fmean(r.cold_start_fraction for r in results), 4
                    ),
                    "invocations": sum(
                        r.summary.invocations for r in results if r.summary
                    ),
                }
            )
        return rows

    def cost_table(self) -> List[Dict[str, object]]:
        """Figure 15 style rows: per-1000-executions cost, averaged over seeds."""
        rows: List[Dict[str, object]] = []
        for key, members in sorted(self._groups().items(), key=lambda kv: str(kv[0])):
            benchmark, platform, era, memory_mb, workload = key
            reports = [cell.result.cost for cell in members if cell.result.cost is not None]
            if not reports:
                continue
            combined = combine_cost_reports(reports)
            row: Dict[str, object] = {
                "benchmark": benchmark,
                "platform": platform,
                "era": era,
                "memory_mb": memory_mb if memory_mb is not None else "default",
                "workload": workload,
            }
            row.update(combined.per_1000_executions.as_row())
            # as_row() reports the profile's base name; the sweep coordinate
            # (which may carry spec overrides) is the row identity.
            row["platform"] = platform
            rows.append(row)
        return rows

    def _view_keys(self, era: Optional[str]) -> Dict[Tuple[str, str], str]:
        """``(platform_label, era) -> display key`` for the first-seed views.

        With ``era=None``, every platform entry contributes one cell: era-less
        entries at the spec's first era, era-pinned entries (``"aws@2022"``)
        at their own era -- so pinned variants are never silently dropped.
        With an explicit ``era``, only cells of that era are selected.  The
        display key is the era-less label unless two entries share it (e.g.
        ``aws@2022`` and ``aws@2024`` pinned side by side), in which case the
        era-qualified canonical form keeps them distinct.
        """
        selected: List[Tuple[str, str, str]] = []  # (label, era, canonical)
        for entry in self.spec.platforms:
            if entry.era is not None:
                # Era-pinned entries exist only in their own era.
                if era is not None and entry.era != era:
                    continue
                entry_era = entry.era
            else:
                # Era-less entries sweep the eras dimension: pick the
                # requested era, or the spec's first era for the default view.
                entry_era = era if era is not None else str(self.spec.eras[0])
            selected.append((entry.label, entry_era, entry.with_era(entry_era).canonical()))
        labels = [label for label, _, _ in selected]
        return {
            (label, entry_era): label if labels.count(label) == 1 else canonical
            for label, entry_era, canonical in selected
        }

    def scaling_profiles(
        self, era: Optional[str] = None, memory_mb: object = _FIRST
    ) -> Dict[str, Dict[str, List[Dict[str, float]]]]:
        """Figure 11 inputs: ``{benchmark: {platform: profile}}`` (first seed)."""
        view = self._view_keys(era)
        memory_mb = self.spec.memory_configs[0] if memory_mb is _FIRST else memory_mb
        seed_index = self.spec.seeds[0]
        workload = self.spec.workloads[0].canonical()
        profiles: Dict[str, Dict[str, List[Dict[str, float]]]] = {}
        for cell in self.cells:
            job = cell.job
            key = view.get((job.platform_label, job.era))
            if key is None or job.memory_mb != memory_mb or job.seed_index != seed_index:
                continue
            if job.workload.canonical() != workload:
                continue
            profiles.setdefault(job.benchmark, {})[key] = cell.result.scaling_profile
        return profiles

    def by_benchmark_platform(
        self, era: Optional[str] = None, memory_mb: object = _FIRST
    ) -> Dict[str, Dict[str, ExperimentResult]]:
        """First-seed results as ``{benchmark: {platform: result}}`` -- the shape
        consumed by :func:`repro.analysis.tables.table5_cold_starts_and_transitions`
        and the figure builders."""
        view = self._view_keys(era)
        memory_mb = self.spec.memory_configs[0] if memory_mb is _FIRST else memory_mb
        seed_index = self.spec.seeds[0]
        workload = self.spec.workloads[0].canonical()
        grouped: Dict[str, Dict[str, ExperimentResult]] = {}
        for cell in self.cells:
            job = cell.job
            key = view.get((job.platform_label, job.era))
            if key is None or job.memory_mb != memory_mb or job.seed_index != seed_index:
                continue
            if job.workload.canonical() != workload:
                continue
            grouped.setdefault(job.benchmark, {})[key] = cell.result
        return grouped

    def to_dict(self, include_results: bool = False) -> Dict[str, object]:
        """Serialise the campaign result.

        The default document carries per-cell summaries plus the aggregated
        tables (what ``--output`` has always written).  With
        ``include_results=True`` each cell additionally embeds its full
        :func:`~repro.faas.results.result_to_dict` document, making the file
        self-contained: :meth:`from_dict` (and the artifact pipeline's
        ``--from-campaign``) can rebuild every ``ExperimentResult`` without
        touching a cache directory or run dir.
        """
        cells: List[Dict[str, object]] = []
        for cell in self.cells:
            entry: Dict[str, object] = {
                "job": cell.job.to_dict(),
                "fingerprint": cell.job.fingerprint(),
                "from_cache": cell.from_cache,
                "summary": cell.result.summary.as_row() if cell.result.summary else {},
                "open_loop": (
                    cell.result.open_loop.as_row()
                    if cell.result.open_loop is not None
                    else {}
                ),
                "cost_per_1000": (
                    cell.result.cost.per_1000_executions.as_row()
                    if cell.result.cost is not None
                    else {}
                ),
            }
            if include_results:
                entry["result"] = result_to_dict(cell.result)
            cells.append(entry)
        return {
            "spec": self.spec.to_dict(),
            "cells": cells,
            "comparison_table": self.comparison_table(),
            "cost_table": self.cost_table(),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "CampaignResult":
        """Rebuild a result from a ``to_dict(include_results=True)`` document.

        Cells without an embedded ``result`` entry are skipped (the document
        may be a summary-only export or a partial run); the spec round-trips
        exactly, so downstream cell lookups behave as for a live campaign.
        """
        from .results import iter_campaign_cell_results

        spec = CampaignSpec.from_dict(document["spec"])  # type: ignore[arg-type]
        cells = [
            CampaignCell(
                job=CampaignJob.from_dict(job_document),
                result=result,
                from_cache=from_cache,
            )
            for job_document, result, from_cache in iter_campaign_cell_results(document)
        ]
        return cls(spec=spec, cells=cells)


# ---------------------------------------------------------------------- cache
def _cache_path(cache_dir: Path, job: CampaignJob) -> Path:
    return cache_dir / f"{job.fingerprint()}.json"


def _load_cached_document(cache_dir: Optional[Path], job: CampaignJob) -> Optional[Dict[str, object]]:
    """The raw serialised result document of a cached cell, if valid."""
    if cache_dir is None:
        return None
    if not is_builtin_spec(job.platform):
        # The fingerprint covers the spec but not the runtime-registered
        # factory behind it; editing that factory must never serve stale
        # cached numbers, so such cells bypass the cache entirely.
        return None
    try:
        # A missing file is a FileNotFoundError, so no separate stat.
        document = json.loads(_cache_path(cache_dir, job).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if document.get("version") != CACHE_VERSION:
        return None
    if document.get("fingerprint") != job.fingerprint():
        return None
    result_doc = document.get("result")
    return result_doc if isinstance(result_doc, dict) else None


def _load_cached(cache_dir: Optional[Path], job: CampaignJob) -> Optional[ExperimentResult]:
    document = _load_cached_document(cache_dir, job)
    if document is None:
        return None
    try:
        return result_from_dict(document)
    except (KeyError, TypeError, ValueError):
        return None


def scan_cache_fingerprints(cache_dir: Optional[Union[str, Path]]) -> frozenset:
    """Fingerprints that have a cache entry file, from one directory scan.

    A batched existence probe: campaign and grid cache sweeps consult this
    set before paying a per-cell open+parse, which turns N per-cell stat
    calls on a cold or sparse cache into a single ``scandir``.  Membership is
    only a hint -- entries are still validated per cell on load (version and
    fingerprint match), so a stale or truncated file is merely a miss.
    """
    if cache_dir is None:
        return frozenset()
    try:
        with os.scandir(Path(cache_dir)) as entries:
            return frozenset(
                entry.name[:-5] for entry in entries if entry.name.endswith(".json")
            )
    except OSError:
        return frozenset()


def probe_cache(cache_dir: Optional[Union[str, Path]], job: CampaignJob) -> bool:
    """True when the cell cache already holds this job's result (dry runs)."""
    if cache_dir is None:
        return False
    return _load_cached_document(Path(cache_dir), job) is not None


def _store_cached(cache_dir: Optional[Path], job: CampaignJob, document: Dict[str, object]) -> None:
    if cache_dir is None:
        return
    if not is_builtin_spec(job.platform):
        return  # see _load_cached: runtime factories are not fingerprintable
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "fingerprint": job.fingerprint(),
        "job": job.to_dict(),
        "result": document,
    }
    path = _cache_path(cache_dir, job)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


# ------------------------------------------------------------------ execution
@dataclass(frozen=True)
class CellFailure:
    """One cell that still failed after every retry."""

    job: CampaignJob
    error: str
    attempts: int

    def describe(self) -> str:
        return (
            f"cell {self.job.fingerprint()[:12]} {self.job.cell_key!r}: "
            f"{self.error} (after {self.attempts} attempt(s))"
        )


class CampaignError(RuntimeError):
    """Some campaign cells failed permanently.

    Raised only after every in-flight cell has been drained and every
    completed cell has been salvaged: written to the cache/logs when the run
    has one, and in any case carried on the exception as ``partial`` (a
    :class:`CampaignResult` of the completed cells), so an operator can fix
    the cause and re-run just the failed cells.  ``failures`` names each
    failed job by fingerprint and cell key.
    """

    def __init__(self, failures: Sequence[CellFailure],
                 partial: Optional["CampaignResult"] = None):
        self.failures = list(failures)
        self.partial = partial
        details = "\n  ".join(failure.describe() for failure in self.failures)
        super().__init__(f"{len(self.failures)} campaign cell(s) failed:\n  {details}")


def run_cells(
    pending: Sequence[CampaignJob],
    workers: Optional[int],
    finish: Callable[[CampaignJob, Dict[str, object], float], None],
    fail: Callable[[CellFailure], None],
    *,
    max_retries: int = 1,
    admit: Optional[Callable[[CampaignJob], bool]] = None,
    skip: Optional[Callable[[CampaignJob], None]] = None,
    tick: Optional[Callable[[], None]] = None,
    tick_interval_s: Optional[float] = None,
) -> None:
    """The cell-execution core shared by :func:`run_campaign` and the grid.

    Runs every admitted cell, serially (``workers <= 1``) or over a
    ``ProcessPoolExecutor``.  ``finish`` receives ``(job, document,
    elapsed_s)`` -- the cell's result plus its observed wall cost, measured
    inside the worker so pool scheduling does not inflate it.  A raising cell
    is retried up to ``max_retries`` times and then reported through ``fail``
    -- one bad cell never aborts the rest of the batch.  The hooks exist for
    the distributed grid path:

    * ``admit`` is consulted once per cell just before its first attempt
      (lease claiming); returning False routes the cell to ``skip`` instead
      of executing it.  Retries of an admitted cell are not re-admitted.
    * ``tick`` fires at least every ``tick_interval_s`` seconds while cells
      are in flight on the pool, and between serial attempts (lease
      heartbeat renewal).
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    jobs = list(pending)
    if not jobs:
        return
    if workers is None:
        workers = min(len(jobs), os.cpu_count() or 1)

    # Telemetry handles (no-ops under the default NullRegistry).  Metrics are
    # write-only here: nothing below reads them back into scheduling
    # decisions, so cell results stay bit-identical with telemetry on.
    registry = current_registry()
    cells_started = registry.counter(
        "repro_campaign_cells_started_total", "Cells admitted for execution."
    )
    cells_done = registry.counter(
        "repro_campaign_cells_done_total", "Cells that finished successfully."
    )
    cells_failed = registry.counter(
        "repro_campaign_cells_failed_total", "Cells that failed permanently."
    )
    inflight = registry.gauge(
        "repro_campaign_inflight", "Cells currently executing on the pool."
    )
    cell_seconds = registry.histogram(
        "repro_campaign_cell_seconds", "Observed wall cost per executed cell."
    )
    registry.gauge(
        "repro_campaign_workers", "Worker processes serving this campaign."
    ).set(workers)

    user_finish, user_fail = finish, fail

    def finish(job: CampaignJob, document: Dict[str, object],
               elapsed_s: float) -> None:
        cells_done.inc()
        cell_seconds.observe(elapsed_s)
        registry.flush(min_interval_s=1.0)
        user_finish(job, document, elapsed_s)

    def fail(failure: CellFailure) -> None:
        cells_failed.inc()
        registry.flush(min_interval_s=1.0)
        user_fail(failure)

    # Jobs not yet finished/failed/skipped, and which of them already passed
    # admission -- the drain list if the process pool itself dies.
    remaining: Dict[str, CampaignJob] = {job.fingerprint(): job for job in jobs}
    admitted: set = set()

    def settle(job: CampaignJob) -> None:
        remaining.pop(job.fingerprint(), None)

    def attempt(job: CampaignJob, pre_admitted: bool = False,
                isolated: bool = False) -> None:
        if not pre_admitted:
            if admit is not None and not admit(job):
                settle(job)
                if skip is not None:
                    skip(job)
                return
            admitted.add(job.fingerprint())
            cells_started.inc()
        last: Optional[BaseException] = None
        for _ in range(max_retries + 1):
            if tick is not None:
                tick()
            try:
                if isolated:
                    # One fresh single-cell pool per attempt: a cell that
                    # hard-kills its host process (OOM, segfault) burns its
                    # retries and becomes a CellFailure instead of taking
                    # this process -- and all undrained results -- with it.
                    with ProcessPoolExecutor(max_workers=1) as solo:
                        envelope = solo.submit(
                            _execute_job_timed, job.to_dict()
                        ).result()
                else:
                    envelope = _execute_job_timed(job.to_dict())
            except Exception as exc:  # noqa: BLE001 - isolate per-cell faults
                last = exc
                continue
            settle(job)
            finish(job, envelope["document"], envelope["elapsed_s"])
            return
        settle(job)
        fail(CellFailure(job=job, error=f"{type(last).__name__}: {last}",
                         attempts=max_retries + 1))

    if workers <= 1:
        for job in jobs:
            attempt(job)
        return

    # Cells whose platform or era exists only in this process's registry
    # (runtime register_platform/register_era calls) cannot be resolved by
    # freshly spawned workers -- scenario references are already expanded,
    # but a custom factory is not picklable state.  Run those cells in the
    # parent while the pool churns through the portable ones.
    portable = [job for job in jobs if is_builtin_spec(job.platform)]
    local = [job for job in jobs if not is_builtin_spec(job.platform)]
    if not portable:
        for job in local:
            attempt(job)
        return

    attempts: Dict[str, int] = {}
    queue = deque(portable)
    # Submission happens in windows rather than all at once so that, on the
    # grid, a cell is only lease-claimed shortly before it can actually run
    # -- late-joining workers pick up the unclaimed remainder of a shard.
    # The window counts chunk *tasks*: cells are batched so cheap cells
    # amortise the per-task pickle/dispatch cost, sized from the observed
    # median cell cost to keep each task near CHUNK_TARGET_S of work.
    window = workers * 2
    observed: List[float] = []

    def chunk_size() -> int:
        if not observed:
            return 1  # no cost signal yet: stay responsive, learn fast
        median = statistics.median(observed)
        if median <= 0.0:
            return MAX_CHUNK_CELLS
        return max(1, min(MAX_CHUNK_CELLS, int(CHUNK_TARGET_S / median)))

    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(portable))) as pool:
            live: Dict[Future, List[CampaignJob]] = {}

            def refill() -> None:
                while queue and len(live) < window:
                    chunk: List[CampaignJob] = []
                    while queue and len(chunk) < chunk_size():
                        job = queue.popleft()
                        if admit is not None and not admit(job):
                            settle(job)
                            if skip is not None:
                                skip(job)
                            continue
                        admitted.add(job.fingerprint())
                        cells_started.inc()
                        attempts[job.fingerprint()] = 1
                        chunk.append(job)
                    if chunk:
                        payloads = [job.to_dict() for job in chunk]
                        live[pool.submit(_execute_chunk, payloads)] = chunk
                inflight.set(sum(len(chunk) for chunk in live.values()))

            def retry_or_fail(job: CampaignJob, error: str) -> None:
                count = attempts.get(job.fingerprint(), 1)
                if count <= max_retries:
                    attempts[job.fingerprint()] = count + 1
                    # Retries go out as single-cell chunks: the failure may
                    # be cost- or state-dependent, so don't gamble siblings.
                    live[pool.submit(_execute_chunk, [job.to_dict()])] = [job]
                else:
                    settle(job)
                    fail(CellFailure(job=job, error=error, attempts=count))

            refill()
            while live:
                done, _ = wait(live, timeout=tick_interval_s, return_when=FIRST_COMPLETED)
                if tick is not None:
                    tick()
                for future in done:
                    chunk = live.pop(future)
                    try:
                        envelopes = future.result()
                    except BrokenProcessPool:
                        raise  # the pool died, not the cell: drain serially below
                    except Exception as exc:  # noqa: BLE001 - isolate per-cell faults
                        # A whole-chunk failure (pickling, worker teardown)
                        # charges every member one attempt, like a cell-level
                        # exception would have under unbatched dispatch.
                        envelopes = [
                            {"error": f"{type(exc).__name__}: {exc}"} for _ in chunk
                        ]
                    if len(envelopes) != len(chunk):
                        # A worker returning the wrong shape is a worker bug;
                        # treat unmatched cells as failed rather than lost.
                        returned = len(envelopes)
                        envelopes = list(envelopes[: len(chunk)])
                        envelopes += [
                            {"error": "ChunkProtocolError: worker returned "
                                      f"{returned} envelope(s) for {len(chunk)} cell(s)"}
                            for _ in range(len(chunk) - len(envelopes))
                        ]
                    for job, envelope in zip(chunk, envelopes):
                        error = envelope.get("error")
                        if error is not None:
                            retry_or_fail(job, str(error))
                        else:
                            settle(job)
                            observed.append(envelope["elapsed_s"])
                            finish(job, envelope["document"], envelope["elapsed_s"])
                refill()
            # Local cells run in the parent *after* the pooled loop: while
            # the pool churns, the parent sits in wait() firing tick()
            # heartbeats, which a long local cell executing here would
            # starve -- letting a rival reclaim every in-flight pooled
            # cell's lease mid-run.
            for job in local:
                attempt(job)
    except BrokenProcessPool:
        # A pool worker was killed hard (OOM killer, segfault) and took the
        # executor down with it.  That must not abort the campaign: every
        # unfinished cell -- in flight, queued, or local -- is drained with
        # the usual per-cell fault isolation.  The killer may be any of the
        # cells that were in flight and may crash deterministically, so
        # portable cells are drained in fresh single-cell pools, never in
        # this process.  Local cells stay in-parent (they never entered the
        # pool, so they cannot be the killer, and a fresh pool under the
        # spawn start method could not resolve their runtime registrations).
        for fingerprint, job in list(remaining.items()):
            attempt(job, pre_admitted=fingerprint in admitted,
                    isolated=is_builtin_spec(job.platform))


def load_cached_campaign(
    spec: CampaignSpec, cache_dir: Union[str, Path]
) -> CampaignResult:
    """Cache-only load: every cell already in ``cache_dir``, executing nothing.

    The result is partial when some cells were never computed -- the
    render-only artifact path uses this to re-render whatever a warm cache
    holds without simulating anything.
    """
    cache_path = Path(cache_dir)
    cached_fingerprints = scan_cache_fingerprints(cache_path)
    cells = []
    for job in spec.expand():
        if job.fingerprint() not in cached_fingerprints:
            continue
        cached = _load_cached(cache_path, job)
        if cached is not None:
            cells.append(CampaignCell(job=job, result=cached, from_cache=True))
    return CampaignResult(spec=spec, cells=cells)


def run_campaign(
    spec: CampaignSpec,
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[CampaignJob, bool], None]] = None,
    max_retries: int = 1,
) -> CampaignResult:
    """Execute a campaign, one worker process per CPU by default.

    ``workers=1`` runs the cells serially in-process (useful for debugging and
    determinism tests); larger values distribute the cells over a
    ``ProcessPoolExecutor``.  With a ``cache_dir``, previously computed cells
    are loaded from disk instead of recomputed, and fresh cells are written
    back.  ``progress`` is called once per finished cell with the job and
    whether it was served from cache.

    A raising cell is retried ``max_retries`` times (transient worker
    failures); cells that keep failing are collected and raised as one
    :class:`CampaignError` -- but only after every other cell has finished
    and been salvaged to the cache, so no completed work is ever lost.

    For multi-host execution over a shared run directory, see
    :mod:`repro.faas.grid`.
    """
    jobs = spec.expand()
    cache_path = Path(cache_dir) if cache_dir is not None else None

    registry = current_registry()
    cache_hits = registry.counter(
        "repro_campaign_cache_hits_total",
        "Cells served from the on-disk cell cache.",
    )
    cache_misses = registry.counter(
        "repro_campaign_cache_misses_total", "Cells that had to execute."
    )

    results: Dict[str, Tuple[ExperimentResult, bool]] = {}
    pending: List[CampaignJob] = []
    cached_fingerprints = scan_cache_fingerprints(cache_path)
    for job in jobs:
        cached = (
            _load_cached(cache_path, job)
            if job.fingerprint() in cached_fingerprints
            else None
        )
        if cached is not None:
            results[job.fingerprint()] = (cached, True)
            cache_hits.inc()
            if progress is not None:
                progress(job, True)
        else:
            cache_misses.inc()
            pending.append(job)

    failures: List[CellFailure] = []

    def finish(job: CampaignJob, document: Dict[str, object],
               elapsed_s: float) -> None:
        # Cache (and report) every cell as soon as it completes, so an
        # interrupted campaign keeps the work it already did.  The observed
        # cost is a grid-log concern; the in-process result ignores it.
        _store_cached(cache_path, job, document)
        results[job.fingerprint()] = (result_from_dict(document), False)
        if progress is not None:
            progress(job, False)

    run_cells(pending, workers, finish, failures.append, max_retries=max_retries)
    cells = [
        CampaignCell(job=job, result=results[fingerprint][0],
                     from_cache=results[fingerprint][1])
        for job in jobs
        if (fingerprint := job.fingerprint()) in results
    ]
    if failures:
        # Without a cache_dir the on-disk salvage is a no-op, so the
        # completed cells ride along on the exception instead of being lost.
        raise CampaignError(failures, partial=CampaignResult(spec=spec, cells=cells))
    return CampaignResult(spec=spec, cells=cells)
