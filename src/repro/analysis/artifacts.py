"""Campaign-native artifact pipeline: figures and tables as declarative specs.

Historically every ``figure*``/``table*`` builder re-ran its experiments
inline -- sequentially, uncached, and blind to the campaign/grid substrate
underneath.  This module inverts that: each paper artifact is an
:class:`ArtifactSpec` that

* **declares** the campaign cells it needs (:class:`CellRequest` objects --
  benchmark spec x platform spec x workload spec x seed x memory), and
* **builds** its rows/series from a :class:`~repro.faas.campaign.CampaignResult`
  with a pure function that performs no simulation calls.

:func:`plan_artifacts` unions any set of artifacts into ONE deduplicated
:class:`~repro.faas.campaign.CampaignSpec` (the E1 burst cells feeding
Figures 7/8/11/15 and Table 5 execute exactly once), which then runs through
the ordinary cache-aware :func:`~repro.faas.campaign.run_campaign` or any grid
run directory -- so the full paper evaluation shards across hosts, caches,
resumes, and streams exactly like any other campaign, and every artifact
re-renders from finished results at zero cost (mirroring SeBS's separation of
experiment execution from result post-processing).

The artifact definitions themselves live next to the builders in
:mod:`repro.analysis.figures` and :mod:`repro.analysis.tables`; they register
here on import.
"""

from __future__ import annotations

import importlib
import json
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..faas.campaign import (
    CampaignJob,
    CampaignResult,
    CampaignSpec,
    NoiseProbe,
    collector_paused,
    run_campaign,
    run_probes,
)
from ..faas.workload import WorkloadSpec
from ..observability import current_registry, span
from ..sim.platforms.spec import PlatformSpec, scenario_epoch

#: The paper's cloud platforms, in its display order.
CLOUDS = ("gcp", "aws", "azure")

#: Closed-loop burst size used by ``quick`` runs (CI smoke / previews).
QUICK_BURST = 3


# ------------------------------------------------------------- cell requests
@dataclass(frozen=True)
class CellRequest:
    """One campaign cell an artifact needs.

    ``benchmark`` is a benchmark spec string (plain name or parameterised,
    ``"storage_io:download_bytes=4096,num_functions=20"``); ``platform``
    accepts any platform spec form; ``seed`` is the *raw* platform seed -- the
    planner pins it verbatim (``seed_index == seed``), which is what keeps the
    pipeline bit-identical with the historical figure builders.
    """

    benchmark: str
    platform: Union[str, PlatformSpec]
    workload: WorkloadSpec
    seed: int
    memory_mb: Optional[int] = None
    repetitions: int = 1

    def job(self) -> CampaignJob:
        """The fully resolved campaign cell this request addresses.

        Memoized by value, so every render reuses the planned job and its
        fingerprint.  The key carries the scenario epoch: a scenario name
        registered anew resolves anew.
        """
        key = (self, scenario_epoch())
        job = _JOB_MEMO.get(key)
        if job is None:
            from ..benchmarks.registry import canonical_benchmark_spec

            job = CampaignJob(
                benchmark=canonical_benchmark_spec(self.benchmark),
                platform=PlatformSpec.coerce(self.platform).with_default_era(None),
                memory_mb=self.memory_mb,
                seed_index=int(self.seed),
                seed=int(self.seed),
                workload=self.workload,
                repetitions=self.repetitions,
            )
            if len(_JOB_MEMO) >= 1024:
                _JOB_MEMO.clear()
            _JOB_MEMO[key] = job
        return job


_JOB_MEMO: Dict[Tuple[CellRequest, int], CampaignJob] = {}


def request_result(campaign: CampaignResult, request: CellRequest):
    """The :class:`~repro.faas.experiment.ExperimentResult` of one request.

    Raises ``KeyError`` naming the cell when the campaign does not hold it --
    the per-artifact completeness check in :func:`render_artifact` normally
    prevents builders from ever seeing that.
    """
    job = request.job()
    cell = campaign.index().get(job.cell_key)
    if cell is None:
        raise KeyError(f"campaign result holds no cell {job.cell_key!r}")
    return cell.result


# ------------------------------------------------------------- configuration
@dataclass(frozen=True)
class ArtifactConfig:
    """Shared knobs of one artifact plan.

    ``burst_size``/``seed`` parameterise the closed-loop E1-style artifacts;
    ``quick`` shrinks bursts and sweep series to smoke-test size.
    ``overrides`` carries per-artifact parameters
    (``{"figure9a": {"download_sizes": (4096,)}}``).
    """

    burst_size: int = 30
    seed: int = 0
    quick: bool = False
    benchmarks: Optional[Tuple[str, ...]] = None
    platforms: Tuple[str, ...] = CLOUDS
    overrides: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.benchmarks is not None:
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "platforms", tuple(self.platforms))

    def closed_burst(self) -> int:
        """The E1 burst size (quick runs cap it at :data:`QUICK_BURST`)."""
        return min(self.burst_size, QUICK_BURST) if self.quick else self.burst_size

    def value(
        self, artifact: str, key: str, default: object, quick: object = None
    ) -> object:
        """Per-artifact parameter: override > quick preset > default."""
        overrides = self.overrides.get(artifact, {})
        if key in overrides:
            return overrides[key]
        if self.quick and quick is not None:
            return quick
        return default

    def with_overrides(self, artifact: str, **params: object) -> "ArtifactConfig":
        """Copy with ``params`` merged into ``artifact``'s override namespace."""
        merged = {name: dict(values) for name, values in self.overrides.items()}
        merged.setdefault(artifact, {}).update(params)
        return replace(self, overrides=merged)


# ----------------------------------------------------------------- registry
@dataclass(frozen=True)
class ArtifactSpec:
    """One paper artifact: declared cells plus a pure builder.

    ``cells`` maps an :class:`ArtifactConfig` to the :class:`CellRequest`
    tuple the artifact needs (deterministically -- planning and rendering call
    it independently), and ``probes`` to the noise probes it needs the same
    way; ``build`` maps the executed campaign back to the artifact's
    rows/series without running anything; ``text`` renders the built data
    for terminals (defaults to pretty JSON).
    """

    name: str
    title: str
    kind: str  # "figure" | "table"
    cells: Callable[[ArtifactConfig], Tuple[CellRequest, ...]]
    build: Callable[[CampaignResult, ArtifactConfig], object]
    text: Optional[Callable[[object], str]] = None
    description: str = ""
    probes: Callable[[ArtifactConfig], Tuple[NoiseProbe, ...]] = lambda config: ()


_ARTIFACTS: Dict[str, ArtifactSpec] = {}
_BUILDERS_LOADED = False

#: Canonical paper ordering of the artifacts (``--all`` renders in this order).
ARTIFACT_ORDER = (
    "figure7", "figure8", "figure9a", "figure9b", "figure10", "figure11",
    "figure12", "figure13", "figure14", "figure15", "figure16",
    "table1", "table2", "table3", "table4", "table5",
)


def register_artifact(spec: ArtifactSpec) -> ArtifactSpec:
    """Add an artifact to the registry (last registration wins, like platforms)."""
    _ARTIFACTS[spec.name] = spec
    return spec


def _ensure_builders() -> None:
    """Import the builder modules so their registrations have happened."""
    global _BUILDERS_LOADED
    if not _BUILDERS_LOADED:
        for module in ("figures", "tables"):
            importlib.import_module(f".{module}", __package__)
        # Only after both imports succeed: a transient ImportError must
        # surface again on the next call, not leave the registry silently
        # empty for the rest of the process.
        _BUILDERS_LOADED = True


def available_artifacts() -> List[str]:
    """Registered artifact names, paper order first, extras sorted after."""
    _ensure_builders()
    ordered = [name for name in ARTIFACT_ORDER if name in _ARTIFACTS]
    extras = sorted(set(_ARTIFACTS) - set(ordered))
    return ordered + extras


def get_artifact(name: str) -> ArtifactSpec:
    _ensure_builders()
    if name not in _ARTIFACTS:
        raise KeyError(
            f"unknown artifact {name!r}; available: {', '.join(available_artifacts())}"
        )
    return _ARTIFACTS[name]


# ------------------------------------------------------------------ planning
@dataclass
class ArtifactPlan:
    """The union of several artifacts over one deduplicated campaign."""

    artifacts: Tuple[ArtifactSpec, ...]
    config: ArtifactConfig
    requests: Dict[str, Tuple[CellRequest, ...]]
    jobs: Tuple[CampaignJob, ...]
    spec: Optional[CampaignSpec]  # None when no artifact needs any cell
    probes: Tuple[NoiseProbe, ...] = ()  # run after the cells, outside the spec

    @property
    def requested_cells(self) -> int:
        """Cell requests before deduplication (the dedup saving is
        ``requested_cells - len(jobs)``)."""
        return sum(len(requests) for requests in self.requests.values())

    def describe(self) -> str:
        shared = self.requested_cells - len(self.jobs)
        return (
            f"plan: {len(self.artifacts)} artifact(s), {len(self.jobs)} campaign "
            f"cell(s) ({self.requested_cells} requested, {shared} shared)"
        )


def plan_artifacts(
    names: Sequence[str], config: Optional[ArtifactConfig] = None
) -> ArtifactPlan:
    """Union the named artifacts into one deduplicated campaign plan.

    Cells requested by several artifacts (the E1 burst cells, the Figure 12
    cold cells, Figure 16's 2024-era cells, ...) appear exactly once in the
    resulting :class:`~repro.faas.campaign.CampaignSpec`.  Two artifacts
    requesting the *same* cell coordinates with conflicting execution
    parameters is a planning bug and raises ``ValueError``.  Noise probes
    are deduplicated too, and stay out of the spec.
    """
    config = config if config is not None else ArtifactConfig()
    specs = tuple(get_artifact(name) for name in names)
    requests: Dict[str, Tuple[CellRequest, ...]] = {}
    jobs: Dict[Tuple, CampaignJob] = {}
    probes = tuple(dict.fromkeys(
        probe for artifact in specs for probe in artifact.probes(config)))
    for artifact in specs:
        artifact_requests = tuple(artifact.cells(config))
        requests[artifact.name] = artifact_requests
        for request in artifact_requests:
            job = request.job()
            existing = jobs.get(job.cell_key)
            if existing is None:
                jobs[job.cell_key] = job
            elif existing != job:
                raise ValueError(
                    f"artifact {artifact.name!r} requests cell "
                    f"{job.cell_key!r} with parameters conflicting with an "
                    f"earlier artifact ({existing.to_dict()} != {job.to_dict()})"
                )
    ordered = tuple(jobs.values())
    spec = CampaignSpec(cells=ordered) if ordered else None
    return ArtifactPlan(artifacts=specs, config=config, requests=requests,
                        jobs=ordered, spec=spec, probes=probes)


def cell_priorities(
    plan: ArtifactPlan, campaign: Optional[CampaignResult] = None
) -> Dict[str, int]:
    """Rank the plan's cells by how many *pending* artifacts each one blocks.

    The returned mapping (cell fingerprint -> count of unfinished artifacts
    requesting it) feeds ``run_grid_worker(priority=...)``: a cell three
    pending figures are waiting on drains before a cell only one needs, so
    ``--watch`` renders complete artifacts as early as possible instead of
    finishing them all at once at the end.  With ``campaign`` (typically a
    partial merge) given, artifacts whose cells are all present are treated
    as finished and stop boosting their cells; without it every artifact
    counts as pending.
    """
    index = campaign.index() if campaign is not None else {}
    priorities: Dict[str, int] = {}
    for artifact in plan.artifacts:
        jobs = [request.job() for request in plan.requests.get(artifact.name, ())]
        if not jobs:
            continue
        if campaign is not None and all(job.cell_key in index for job in jobs):
            continue  # every cell present: this artifact can already render
        for job in jobs:
            fingerprint = job.fingerprint()
            priorities[fingerprint] = priorities.get(fingerprint, 0) + 1
    return priorities


def execute_plan(
    plan: ArtifactPlan,
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    max_retries: int = 1,
    progress: Optional[Callable[[CampaignJob, bool], None]] = None,
) -> Optional[CampaignResult]:
    """Run the plan's campaign, then its noise probes (:func:`run_probes`);
    None when the plan needs no cells at all."""
    if plan.spec is None:
        return None
    campaign = run_campaign(plan.spec, workers=workers, cache_dir=cache_dir,
                            progress=progress, max_retries=max_retries)
    return run_probes(campaign, plan.probes, cache_dir)


# ----------------------------------------------------------------- rendering
@dataclass
class RenderedArtifact:
    """One rendered artifact: data, terminal text, and provenance.

    ``complete`` is False when the campaign (e.g. a partial grid merge while
    workers are still streaming) does not yet hold every declared cell; the
    artifact then carries the missing cell keys instead of data, and rendering
    it is not an error -- the ``--watch`` path re-renders as cells land.
    """

    name: str
    title: str
    kind: str
    complete: bool
    data: Optional[object] = None
    text: str = ""
    missing: List[str] = field(default_factory=list)
    provenance: Dict[str, object] = field(default_factory=dict)

    def document(self) -> Dict[str, object]:
        """The machine-readable export (``repro-flow figures --output DIR``)."""
        return {
            "name": self.name,
            "title": self.title,
            "kind": self.kind,
            "complete": self.complete,
            "missing_cells": list(self.missing),
            "data": self.data,
            "provenance": self.provenance,
        }


def _provenance(
    requests: Sequence[CellRequest],
    campaign: Optional[CampaignResult],
    config: ArtifactConfig,
) -> Dict[str, object]:
    cells: List[Dict[str, object]] = []
    cache_hits = 0
    for request in requests:
        job = request.job()
        held = campaign.index().get(job.cell_key) if campaign is not None else None
        if held is not None and held.from_cache:
            cache_hits += 1
        cells.append(
            {
                "fingerprint": job.fingerprint(),
                "benchmark": job.benchmark,
                "platform": job.platform.canonical(),
                "workload": job.workload.canonical(),
                "seed": job.seed,
                "memory_mb": job.memory_mb,
                "repetitions": job.repetitions,
                "present": held is not None,
                "from_cache": bool(held.from_cache) if held is not None else False,
            }
        )
    return {
        "config": {
            "burst_size": config.burst_size,
            "seed": config.seed,
            "quick": config.quick,
        },
        "cell_count": len(cells),
        "cache_hits": cache_hits,
        "cells": cells,
    }


def export_json(document: object) -> str:
    """``json.dumps(document, indent=2, sort_keys=True, default=str)``, byte
    for byte, from one recursive writer instead of json's pure-Python
    indenting encoder.  A document with a shape the writer does not cover
    (dict keys of mixed or other types, a value only ``default=str``
    encodes, a cycle) goes to ``json.dumps`` whole."""
    out: List[str] = []
    try:
        _write_json(document, out.append, "\n")
    except (TypeError, RecursionError):
        return json.dumps(document, indent=2, sort_keys=True, default=str)
    return "".join(out)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(node: object, append: Callable[[str], None], newline: str) -> None:
    """Append ``node``'s JSON text; ``newline`` is the line break plus the
    indent of ``node``'s own level.  Each value is encoded as json encodes
    it (float and int subclasses included); no JSON type can subclass
    another but bool, so only ``True``/``False`` must come before ``int``.
    A node json could only encode through ``default=str`` is a TypeError."""
    if isinstance(node, float):
        text = float.__repr__(node)
        append(_NON_FINITE.get(text, text))
    elif isinstance(node, dict):
        if not node:
            append("{}")
            return
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        # json sorts the keys as they are (mixed types raise), then turns
        # int keys into text.
        for key in sorted(node):
            if type(key) is str:
                append(separator + encode_basestring_ascii(key) + ": ")
            elif type(key) is int:
                append(separator + '"' + int.__repr__(key) + '": ')
            else:
                raise TypeError(f"unwritten key type {type(key).__name__}")
            separator = comma
            _write_json(node[key], append, inner)
        append(newline + "}")
    elif isinstance(node, str):
        append(encode_basestring_ascii(node))
    elif node is None or node is True or node is False:
        append(_JSON_CONSTANTS[node])
    elif isinstance(node, int):
        append(int.__repr__(node))
    elif isinstance(node, (list, tuple)):
        if not node:
            append("[]")
            return
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in node:
            append(separator)
            separator = comma
            _write_json(item, append, inner)
        append(newline + "]")
    else:
        raise TypeError(f"unwritten value type {type(node).__name__}")


def render_artifact(
    artifact: Union[str, ArtifactSpec],
    campaign: Optional[CampaignResult],
    config: Optional[ArtifactConfig] = None,
) -> RenderedArtifact:
    """Build one artifact from an executed (possibly partial) campaign."""
    spec = get_artifact(artifact) if isinstance(artifact, str) else artifact
    config = config if config is not None else ArtifactConfig()
    requests = tuple(spec.cells(config))
    probes = tuple(spec.probes(config))
    missing = [
        str(request.job().cell_key)
        for request in requests
        if campaign is None or not campaign.has_job(request.job())
    ] + [
        f"noise probe {probe.platform}"
        for probe in probes
        if campaign is None or probe.fingerprint() not in campaign.probes
    ]
    current_registry().gauge(
        "repro_artifact_cells_pending",
        "Campaign cells an artifact still needs before it can render.",
    ).set(len(missing), artifact=spec.name)
    rendered = RenderedArtifact(
        name=spec.name,
        title=spec.title,
        kind=spec.kind,
        complete=not missing,
        missing=missing,
        provenance=_provenance(requests, campaign, config),
    )
    if missing:
        rendered.text = (
            f"{spec.title}\n(pending: {len(missing)}/{len(requests) + len(probes)} "
            f"campaign cell(s) or probe(s) not ready yet)"
        )
        return rendered
    with span("artifact_render", artifact=spec.name):
        rendered.data = spec.build(campaign, config)
        rendered.text = (spec.text or export_json)(rendered.data)
    return rendered


def render_plan(
    plan: ArtifactPlan, campaign: Optional[CampaignResult]
) -> Dict[str, RenderedArtifact]:
    """Render every artifact of a plan (partial campaigns yield pending ones).

    Under one collector pause: the renders build the record lists of the
    cells they read (cache-served results build them on first read), and
    make no reference cycles.
    """
    with collector_paused():
        return {
            artifact.name: render_artifact(artifact, campaign, plan.config)
            for artifact in plan.artifacts
        }


def write_artifacts(
    rendered: Mapping[str, RenderedArtifact], out_dir: Union[str, Path]
) -> List[Path]:
    """Write one ``<name>.json`` (+ ``<name>.txt``) per artifact into ``out_dir``.

    The JSON document carries the artifact's rows/series plus provenance
    (cell fingerprints, seeds, cache hits); the ``.txt`` file holds the same
    text rendering the CLI prints.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, artifact in rendered.items():
        json_path = out_path / f"{name}.json"
        json_path.write_text(export_json(artifact.document()))
        text_path = out_path / f"{name}.txt"
        text_path.write_text(artifact.text + "\n")
        written.extend([json_path, text_path])
    return written


def collect_pairs(
    campaign: CampaignResult,
    items: Iterable[Tuple[str, str, CellRequest]],
) -> Dict[str, Dict[str, object]]:
    """``{group: {key: ExperimentResult}}`` from ``(group, key, request)`` triples.

    The shape shared by the E1-style builders (Figures 7/8/11/15, Table 5):
    group = benchmark, key = platform display name.
    """
    collected: Dict[str, Dict[str, object]] = {}
    for group, key, request in items:
        collected.setdefault(group, {})[key] = request_result(campaign, request)
    return collected
