"""Sharded, resumable, multi-host campaign execution with streaming aggregation.

:func:`~repro.faas.campaign.run_campaign` executes a campaign inside a single
process tree.  This module scales the same campaigns across any number of
worker processes on any number of hosts that share one *coordination
backend* -- the execution fabric of the full paper evaluation.  Cell
fingerprints already make cells location-independent, so the grid only has
to coordinate *who runs what*:

* **shard planner** -- :func:`plan_shards` deterministically partitions the
  expanded cells by fingerprint, so disjoint hosts given ``--shard 0/4`` ..
  ``--shard 3/4`` never even look at each other's cells;
* **lease queue** -- within a shard, :class:`LeaseQueue` hands out TTL leases
  through the backend, so ad-hoc workers can join or leave and a crashed
  worker's cells are reclaimed once its lease expires;
* **streaming result log** -- workers append finished cells to per-shard
  record streams as they complete, so progress is durable and observable
  while the run is live;
* **merge and status** -- :func:`merge_run` folds the records (plus the
  ordinary cell cache) into a :class:`~repro.faas.campaign.CampaignResult`
  one record at a time, idempotently and order-independently;
  :func:`grid_status` reports done/failed/leased/pending counts per shard and
  :func:`autoscale_hint` turns them into a suggested worker count.

Where the state lives is pluggable (:mod:`repro.faas.backends`): the default
:class:`~repro.faas.backends.file.FileBackend` keeps the original shared
run-directory layout (``grid.json`` + ``leases/`` + ``results/``), the
in-process :class:`~repro.faas.backends.memory.MemoryBackend` serves tests
and single-host elastic workers, and
:class:`~repro.faas.backends.object_store.ObjectStoreBackend` speaks
S3/GCS conditional-put semantics so thousands of workers can coordinate
through a bucket.  The merge is bit-identical to the single-process run on
every backend.
"""

from __future__ import annotations

import math
import statistics
import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..observability import current_registry
from .backends import FileBackend, GridBackend
from .backends.base import _safe_worker_id, _wall_clock
from .backends.file import _unique_token  # noqa: F401  (re-exported seam)
from .campaign import (
    CACHE_VERSION,
    CampaignCell,
    CampaignJob,
    CampaignResult,
    CampaignSpec,
    CellFailure,
    _load_cached,
    _load_cached_document,
    _store_cached,
    run_cells,
    scan_cache_fingerprints,
)
from .experiment import ExperimentResult
from .results import ResultLog, result_from_dict  # noqa: F401  (ResultLog re-exported)

#: Bump when the run-directory layout changes incompatibly.
GRID_VERSION = 1

#: Default lease time-to-live.  A pooled worker (workers > 1) heartbeats its
#: leases several times per TTL even while cells are executing, so there the
#: TTL only needs to cover scheduling hiccups.  A serial worker (workers=1)
#: renews only *between* cells, so its TTL must cover the longest single
#: cell runtime -- or a concurrent worker may reclaim and duplicate the cell
#: mid-flight (harmless for correctness, the merge deduplicates, but wasted
#: compute).
DEFAULT_LEASE_TTL_S = 300.0


# ------------------------------------------------------------- shard planner
def shard_of(fingerprint: str, shard_count: int) -> int:
    """The shard owning a cell: the fingerprint's leading 64 bits mod N.

    Depends only on the SHA-256 cell fingerprint, so every process on every
    host -- regardless of ``PYTHONHASHSEED``, platform, or the order cells
    are considered in -- assigns each cell to the same shard.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return int(fingerprint[:16], 16) % shard_count


def plan_shards(spec: CampaignSpec, shard_count: int) -> List[List[CampaignJob]]:
    """Partition the expanded cells into ``shard_count`` disjoint shards.

    Every cell lands in exactly one shard; within a shard, cells keep the
    spec's deterministic expansion order.  Fingerprint hashing spreads cells
    roughly evenly without any global coordination.
    """
    shards: List[List[CampaignJob]] = [[] for _ in range(shard_count)]
    for job in spec.expand():
        shards[shard_of(job.fingerprint(), shard_count)].append(job)
    return shards


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``i/N`` shard argument into ``(index, count)``."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like i/N with 0 <= i < N, e.g. 0/4: {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard index out of range: {text!r}")
    return index, count


# --------------------------------------------------------------- lease queue
class LeaseQueue:
    """One worker's view of a backend's TTL leases.

    Binds a worker identity and TTL to a :class:`GridBackend`, so call sites
    deal in fingerprints only.  Constructed either over a bare directory
    (``LeaseQueue(path)`` -- the historical file-based form, still the unit
    of coordination for standalone use) or over any backend
    (``LeaseQueue(backend=...)``).

    The lease *semantics* -- atomic claims, one-winner expiry reclaim,
    permanent done markers, availability over exclusivity -- are the
    backend's contract; see :class:`~repro.faas.backends.base.GridBackend`
    and the per-backend docs.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        worker_id: str = "worker",
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Optional[Callable[[], float]] = None,
        backend: Optional[GridBackend] = None,
    ) -> None:
        if backend is None:
            if directory is None:
                raise ValueError("LeaseQueue needs a directory or a backend")
            backend = FileBackend.for_lease_dir(
                directory, clock=clock if clock is not None else _wall_clock
            )
        elif clock is not None:
            backend.clock = clock
        self.backend = backend
        self.worker_id = worker_id
        self.ttl_s = ttl_s

    @property
    def clock(self) -> Callable[[], float]:
        """Injectable time source; every deadline read/write goes through this."""
        return self.backend.clock

    @clock.setter
    def clock(self, value: Callable[[], float]) -> None:
        self.backend.clock = value

    def claim(self, fingerprint: str) -> bool:
        """Try to acquire the lease; True when this worker now holds it."""
        return self.backend.claim(fingerprint, self.worker_id, self.ttl_s)

    def read(self, fingerprint: str) -> Optional[Dict[str, object]]:
        return self.backend.read_lease(fingerprint)

    def renew(self, fingerprint: str) -> bool:
        """Heartbeat: push our lease's deadline out by another TTL.

        Returns False -- without touching the lease -- when it is no longer
        ours: a worker that stalled past its TTL and was reclaimed must not
        clobber the reclaimer's live claim.
        """
        return self.backend.renew(fingerprint, self.worker_id, self.ttl_s)

    def mark_done(self, fingerprint: str) -> None:
        """Replace the lease with a permanent done marker.

        The cell's result is in the logs, so no later claim should ever
        succeed: a worker whose startup scan predates this completion would
        otherwise find the lease gone, reclaim the cell, and recompute it.
        The marker is written unconditionally -- even if the lease was
        reclaimed from us mid-cell, the cell *is* done.
        """
        self.backend.mark_done(fingerprint, self.worker_id)

    def release(self, fingerprint: str) -> None:
        """Drop our lease; a rival's claim (after reclaiming us) is left alone."""
        self.backend.release(fingerprint, self.worker_id)

    def active(self) -> Dict[str, Dict[str, object]]:
        """All unexpired leases, keyed by fingerprint."""
        return self.backend.active()


# ----------------------------------------------------------------- run state
@dataclass
class GridScan:
    """One streaming pass over the shard logs: who is done, who failed."""

    completed: Dict[str, Dict[str, object]] = field(default_factory=dict)
    failed: Dict[str, Dict[str, object]] = field(default_factory=dict)


class _ShardAppender:
    """Append handle for one (shard, worker) stream of a non-file backend."""

    def __init__(self, backend: GridBackend, shard: int, worker_id: str) -> None:
        self.backend = backend
        self.shard = shard
        self.worker_id = worker_id

    def append(self, document: Dict[str, object]) -> None:
        self.backend.append_record(self.shard, self.worker_id, document)


@dataclass
class GridRun:
    """A durable, shareable campaign run over a coordination backend."""

    backend: GridBackend
    spec: CampaignSpec
    shard_count: int

    MANIFEST = "grid.json"

    # -- construction -------------------------------------------------------
    @classmethod
    def create(
        cls,
        spec: CampaignSpec,
        run_dir: Optional[Union[str, Path]] = None,
        shard_count: Optional[int] = 1,
        backend: Optional[GridBackend] = None,
    ) -> "GridRun":
        """Initialise a run, or join it if it already exists.

        ``run_dir`` is shorthand for a :class:`FileBackend` over that
        directory; any other backend is passed explicitly.  Joining verifies
        that the run was initialised for the *same* campaign (identical spec
        document and shard count); a mismatch is an error rather than a
        silent mixture of two different sweeps.  Passing ``shard_count=None``
        joins an existing run at whatever shard count it was initialised with
        (a fresh run defaults to one shard) -- the "help finish this run, any
        shard" entry.
        """
        if shard_count is not None and shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        backend = cls._resolve_backend(run_dir, backend)
        spec_document = json.loads(json.dumps(spec.to_dict()))

        def join() -> "GridRun":
            manifest = cls._validated_manifest(backend)
            if shard_count is not None and int(manifest["shard_count"]) != shard_count:
                raise ValueError(
                    f"run directory {backend.describe()} was initialised with "
                    f"{manifest['shard_count']} shard(s), not {shard_count}"
                )
            if manifest["spec"] != spec_document:
                raise ValueError(
                    f"run directory {backend.describe()} was initialised for a "
                    f"different campaign spec; start a fresh run directory"
                )
            return cls._from_manifest(backend, manifest)

        manifest = {
            "grid_version": GRID_VERSION,
            "cache_version": CACHE_VERSION,
            "shard_count": int(shard_count) if shard_count is not None else 1,
            "spec": spec_document,
        }
        if backend.write_manifest(manifest):
            return cls._from_manifest(backend, manifest)
        # A manifest already exists (or a racing initialiser won): validate
        # against it instead of replacing it.
        return join()

    @classmethod
    def open(
        cls,
        run_dir: Optional[Union[str, Path]] = None,
        backend: Optional[GridBackend] = None,
    ) -> "GridRun":
        """Open an existing run (the resume/status/merge entry)."""
        backend = cls._resolve_backend(run_dir, backend)
        return cls._from_manifest(backend, cls._validated_manifest(backend))

    @staticmethod
    def _resolve_backend(
        run_dir: Optional[Union[str, Path]], backend: Optional[GridBackend]
    ) -> GridBackend:
        if backend is not None:
            return backend
        if run_dir is None:
            raise ValueError("GridRun needs a run_dir or a backend")
        return FileBackend(run_dir)

    @classmethod
    def _validated_manifest(cls, backend: GridBackend) -> Dict[str, object]:
        manifest = backend.read_manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"{backend.describe()} is not a grid run directory "
                f"(no {cls.MANIFEST})"
            )
        if manifest.get("grid_version") != GRID_VERSION:
            raise ValueError(
                f"{backend.describe()} has grid_version "
                f"{manifest.get('grid_version')!r}; this build speaks {GRID_VERSION}"
            )
        if manifest.get("cache_version") != CACHE_VERSION:
            # Result documents in the logs were produced under different cell
            # semantics; merging them would silently mix incompatible data.
            raise ValueError(
                f"{backend.describe()} was produced with cell-cache version "
                f"{manifest.get('cache_version')!r} (current: {CACHE_VERSION}); "
                f"start a fresh run directory"
            )
        return manifest

    @classmethod
    def _from_manifest(
        cls, backend: GridBackend, manifest: Dict[str, object]
    ) -> "GridRun":
        # Always rebuild the spec from the manifest document (not from the
        # caller's in-memory spec) so every host merges from bit-identical
        # state.
        return cls(
            backend=backend,
            spec=CampaignSpec.from_dict(manifest["spec"]),  # type: ignore[arg-type]
            shard_count=int(manifest["shard_count"]),  # type: ignore[arg-type]
        )

    # -- layout -------------------------------------------------------------
    @property
    def run_dir(self) -> Union[Path, str]:
        """The run's location: a real path for file runs, a label otherwise."""
        if isinstance(self.backend, FileBackend):
            return self.backend.root
        return self.backend.describe()

    @property
    def leases_dir(self) -> Path:
        if isinstance(self.backend, FileBackend):
            return self.backend.leases_dir
        raise AttributeError(
            f"{type(self.backend).__name__} keeps leases in its own medium, "
            f"not a directory"
        )

    @property
    def results_dir(self) -> Path:
        if isinstance(self.backend, FileBackend):
            return self.backend.results_dir
        raise AttributeError(
            f"{type(self.backend).__name__} keeps records in its own medium, "
            f"not a directory"
        )

    def shard_log(self, shard: int, worker_id: str):
        """This worker's private append segment of a shard's result stream.

        For the file backend this is the worker's own JSONL
        :class:`~repro.faas.results.ResultLog` (no two processes ever write
        the same file); other backends return a lightweight appender bound to
        the same ``(shard, worker)`` coordinates.  Readers fold all of a
        shard's segments together (:meth:`iter_shard_records`); the merge is
        order-independent, so the segmentation is invisible to consumers.
        """
        if isinstance(self.backend, FileBackend):
            return self.backend.shard_log(shard, worker_id)
        return _ShardAppender(self.backend, shard, worker_id)

    def iter_shard_records(self, shard: int) -> Iterator[Dict[str, object]]:
        """Every record of a shard, streamed across all worker segments."""
        return self.backend.iter_records(shard)

    # -- state --------------------------------------------------------------
    def scan(self, shard: Optional[int] = None) -> GridScan:
        """Stream the shard logs once and classify cells.

        ``shard`` limits the scan to one shard's logs (what a shard-pinned
        worker needs at startup); ``None`` scans the whole run.  A success
        record wins over any failure record for the same cell (a resumed
        worker retrying a previously failed cell appends the success after
        the failure), and duplicate successes collapse to the first.  Result
        payloads are dropped from the retained records -- the scan is
        bookkeeping (who is done, who failed, by which worker), so its memory
        footprint stays per-cell-constant however large the results are;
        :func:`merge_run` streams the payloads separately.
        """
        scan = GridScan()
        shards = range(self.shard_count) if shard is None else (shard,)
        for shard_index in shards:
            for record in self.iter_shard_records(shard_index):
                fingerprint = str(record.get("fingerprint", ""))
                if not fingerprint:
                    continue
                if isinstance(record.get("result"), dict):
                    # Mirror merge_run's structural check: a record whose
                    # payload cannot possibly merge must not mark the cell
                    # done, or it could never be recomputed.
                    slim = {key: value for key, value in record.items()
                            if key not in ("result", "job")}
                    scan.completed.setdefault(fingerprint, slim)
                    scan.failed.pop(fingerprint, None)
                elif "result" not in record and fingerprint not in scan.completed:
                    scan.failed[fingerprint] = record
        return scan


# --------------------------------------------------------------- grid worker
@dataclass
class GridWorkerReport:
    """What one :func:`run_grid_worker` invocation did."""

    worker_id: str
    executed: int = 0
    cache_hits: int = 0
    already_done: int = 0
    skipped_leased: int = 0
    failed: int = 0
    failures: List[CellFailure] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"worker {self.worker_id}: {self.executed} executed, "
            f"{self.cache_hits} from cache, {self.already_done} already done, "
            f"{self.skipped_leased} leased elsewhere, {self.failed} failed"
        )


def run_grid_worker(
    run: GridRun,
    shard: Optional[int] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    worker_id: Optional[str] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    max_retries: int = 1,
    progress: Optional[Callable[[CampaignJob, bool], None]] = None,
    clock: Optional[Callable[[], float]] = None,
    priority: Optional[Mapping[str, float]] = None,
) -> GridWorkerReport:
    """Execute (one shard of) a grid run, cooperating through the lease queue.

    ``shard`` restricts this worker to one planner shard; ``None`` walks
    every shard, which is the resume path.  The call is safe to run
    concurrently with any number of other workers on this or other hosts:
    cells already in the logs are skipped, cells under a live lease are left
    to their holder, and expired leases of crashed workers are reclaimed.
    Failures are recorded in the shard logs (and the report), never raised --
    a bad cell on one host must not take down the fleet.

    ``clock`` overrides the backend's time source for every lease decision
    this run makes (tests drive expiry with a fake clock instead of sleeps).
    ``priority`` maps fingerprints to ranks; higher-ranked pending cells are
    attempted first (ties keep the spec's deterministic expansion order) --
    the hook :func:`repro.analysis.artifacts.cell_priorities` feeds so cells
    blocking a pending figure drain before cells nothing is waiting on.

    Lease heartbeats fire from the pool wait loop, so with ``workers > 1``
    leases stay fresh even while cells execute.  With ``workers=1`` renewal
    only happens between cells: pick a ``lease_ttl_s`` longer than the
    longest cell, or concurrent workers may duplicate in-flight cells (the
    merge deduplicates, so results stay correct either way).
    """
    if shard is not None and not 0 <= shard < run.shard_count:
        raise ValueError(
            f"shard {shard} out of range for a {run.shard_count}-shard run"
        )
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    worker_id = _safe_worker_id(worker_id)
    report = GridWorkerReport(worker_id=worker_id)
    leases = LeaseQueue(
        backend=run.backend, worker_id=worker_id, ttl_s=lease_ttl_s, clock=clock,
    )
    cache_path = Path(cache_dir) if cache_dir is not None else None

    # Telemetry handles (no-ops unless a recording registry is current).
    registry = current_registry()
    grid_cache_hits = registry.counter(
        "repro_campaign_cache_hits_total",
        "Cells served from the on-disk cell cache.",
    )
    lease_depth = registry.gauge(
        "repro_grid_lease_queue_depth", "Leases this worker currently holds."
    )

    scan = run.scan(shard)
    cached_fingerprints = scan_cache_fingerprints(cache_path)
    pending: List[CampaignJob] = []
    for job in run.spec.expand():
        fingerprint = job.fingerprint()
        job_shard = shard_of(fingerprint, run.shard_count)
        if shard is not None and job_shard != shard:
            continue
        if fingerprint in scan.completed:
            report.already_done += 1
            continue
        cached_document = (
            _load_cached_document(cache_path, job)
            if fingerprint in cached_fingerprints
            else None
        )
        if cached_document is not None:
            try:
                result_from_dict(cached_document)
            except (KeyError, TypeError, ValueError):
                cached_document = None  # merge could not use it: a miss, as in run_campaign
        if cached_document is not None:
            # Log cache-served cells too, so a merge needs only the logs.
            run.backend.append_record(job_shard, worker_id, {
                "fingerprint": fingerprint,
                "shard": job_shard,
                "worker": worker_id,
                "from_cache": True,
                "job": job.to_dict(),
                "result": cached_document,
            })
            leases.mark_done(fingerprint)
            report.cache_hits += 1
            grid_cache_hits.inc()
            if progress is not None:
                progress(job, True)
            continue
        pending.append(job)
    if priority:
        # Stable sort: equal-rank cells keep the expansion order above.
        pending.sort(key=lambda job: -float(priority.get(job.fingerprint(), 0.0)))

    held: set = set()

    def admit(job: CampaignJob) -> bool:
        fingerprint = job.fingerprint()
        if leases.claim(fingerprint):
            held.add(fingerprint)
            lease_depth.set(len(held))
            return True
        return False

    def skip(job: CampaignJob) -> None:
        report.skipped_leased += 1

    def tick() -> None:
        for fingerprint in list(held):
            if not leases.renew(fingerprint):
                # We stalled past the TTL and a rival reclaimed the cell; it
                # may now run twice, which the merge deduplicates.  Stop
                # heartbeating a lease that is no longer ours.
                held.discard(fingerprint)
        lease_depth.set(len(held))
        registry.flush(min_interval_s=1.0)

    def finish(job: CampaignJob, document: Dict[str, object],
               elapsed_s: Optional[float] = None) -> None:
        fingerprint = job.fingerprint()
        job_shard = shard_of(fingerprint, run.shard_count)
        _store_cached(cache_path, job, document)
        record: Dict[str, object] = {
            "fingerprint": fingerprint,
            "shard": job_shard,
            "worker": worker_id,
            "from_cache": False,
            "job": job.to_dict(),
            "result": document,
        }
        if elapsed_s is not None:
            # Observed wall cost of this cell; autoscale_hint() medians these
            # to size the fleet.  Merge/scan ignore unknown record keys.
            record["elapsed_s"] = round(float(elapsed_s), 6)
        run.backend.append_record(job_shard, worker_id, record)
        held.discard(fingerprint)
        lease_depth.set(len(held))
        # A done marker instead of a plain release: a concurrent worker whose
        # startup scan predates this completion must not re-claim the cell.
        leases.mark_done(fingerprint)
        report.executed += 1
        if progress is not None:
            progress(job, False)

    def fail(failure: CellFailure) -> None:
        fingerprint = failure.job.fingerprint()
        job_shard = shard_of(fingerprint, run.shard_count)
        run.backend.append_record(job_shard, worker_id, {
            "fingerprint": fingerprint,
            "shard": job_shard,
            "worker": worker_id,
            "job": failure.job.to_dict(),
            "error": failure.error,
            "attempts": failure.attempts,
        })
        held.discard(fingerprint)
        lease_depth.set(len(held))
        leases.release(fingerprint)
        report.failed += 1
        report.failures.append(failure)

    run_cells(
        pending, workers, finish, fail,
        max_retries=max_retries,
        admit=admit, skip=skip,
        tick=tick, tick_interval_s=max(lease_ttl_s / 3.0, 0.05),
    )
    return report


# ----------------------------------------------------------- merge and status
def merge_run(
    run: GridRun,
    cache_dir: Optional[Union[str, Path]] = None,
    allow_partial: bool = False,
) -> CampaignResult:
    """Fold the shard logs (plus the cell cache) into a ``CampaignResult``.

    Streams the logs record by record: each raw document is parsed into an
    :class:`~repro.faas.experiment.ExperimentResult` and immediately dropped,
    so memory scales with the number of distinct cells, never with log volume
    (duplicates, retries, failure records).  The fold is idempotent and
    order-independent -- cells are emitted in the spec's expansion order
    whatever order the logs were written in, so merging twice, or merging
    shard logs in any order, yields bit-identical ``to_dict()`` documents.

    Cells absent from the logs are looked up in ``cache_dir`` (the ordinary
    per-cell cache).  With ``allow_partial=True`` the merge may run while
    workers are still live and covers the cells finished so far; otherwise an
    incomplete run raises a ``ValueError`` naming the gap.
    """
    jobs = run.spec.expand()
    wanted = {job.fingerprint() for job in jobs}
    merged: Dict[str, Tuple[ExperimentResult, bool]] = {}
    for shard in range(run.shard_count):
        for record in run.iter_shard_records(shard):
            fingerprint = str(record.get("fingerprint", ""))
            if fingerprint not in wanted or fingerprint in merged:
                continue
            result_document = record.get("result")
            if not isinstance(result_document, dict):
                continue
            try:
                result = result_from_dict(result_document)
            except (KeyError, TypeError, ValueError):
                continue  # corrupt record; a duplicate or the cache may supply it
            merged[fingerprint] = (result, bool(record.get("from_cache", False)))
    cache_path = Path(cache_dir) if cache_dir is not None else None
    if cache_path is not None:
        for job in jobs:
            fingerprint = job.fingerprint()
            if fingerprint in merged:
                continue
            cached = _load_cached(cache_path, job)
            if cached is not None:
                merged[fingerprint] = (cached, True)
    missing = [job for job in jobs if job.fingerprint() not in merged]
    if missing and not allow_partial:
        raise ValueError(
            f"run is incomplete: {len(missing)}/{len(jobs)} cells have no result "
            f"yet (e.g. {missing[0].cell_key!r}); run more workers, resume the "
            f"run, or merge with allow_partial=True for a preview"
        )
    cells = [
        CampaignCell(job=job, result=merged[fingerprint][0],
                     from_cache=merged[fingerprint][1])
        for job in jobs
        if (fingerprint := job.fingerprint()) in merged
    ]
    return CampaignResult(spec=run.spec, cells=cells)


def iter_partial_merges(
    run: GridRun,
    cache_dir: Optional[Union[str, Path]] = None,
    interval_s: float = 2.0,
    max_polls: Optional[int] = None,
):
    """Stream ``(CampaignResult, done, failed, total)`` snapshots of a live run.

    Each snapshot is a partial :func:`merge_run` over whatever the shard logs
    (plus the cell cache) hold at that moment -- the merge is idempotent and
    order-independent, so polling while workers append is safe.  ``failed``
    counts cells whose latest logged attempt failed and that no live lease is
    retrying: once ``done + failed`` covers every cell the run cannot make
    further progress on its own, so the generator ends (rather than spinning
    forever on a run with permanently failed cells).  ``max_polls`` bounds the
    number of snapshots (None = until settled), so callers can preview a
    stalled run without blocking.  This is the engine behind
    ``repro-flow figures --watch``: artifacts re-render live off each
    incremental snapshot as grid workers stream results.
    """
    total = len(run.spec.expand())
    polls = 0
    while True:
        campaign = merge_run(run, cache_dir=cache_dir, allow_partial=True)
        done = len(campaign.cells)
        if done >= total:
            failed = 0
        else:
            # Cells under a live lease are still being retried, and a cell the
            # merge recovered (e.g. from the cache) is done regardless of old
            # failure records; only count failures nobody is working on.
            merged = {cell.job.fingerprint() for cell in campaign.cells}
            scan = run.scan()
            leases = run.backend.active()
            failed = sum(
                1 for fingerprint in scan.failed
                if fingerprint not in leases and fingerprint not in merged
            )
        yield campaign, done, failed, total
        polls += 1
        if done + failed >= total or (max_polls is not None and polls >= max_polls):
            return
        time.sleep(interval_s)


@dataclass(frozen=True)
class ShardStatus:
    """Progress of one shard of a grid run."""

    shard: int
    total: int
    done: int
    failed: int
    leased: int
    pending: int

    def as_row(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "cells": self.total,
            "done": self.done,
            "failed": self.failed,
            "leased": self.leased,
            "pending": self.pending,
        }


def grid_status(run: GridRun) -> List[ShardStatus]:
    """Per-shard done/failed/leased/pending counts from one log+lease scan.

    ``failed`` counts cells whose latest attempt failed and that nobody is
    currently retrying; a cell under a live lease counts as ``leased`` even
    if an earlier attempt failed.  ``done + failed + leased + pending``
    always equals the shard's cell count.
    """
    scan = run.scan()
    leases = run.backend.active()
    shards = plan_shards(run.spec, run.shard_count)
    statuses: List[ShardStatus] = []
    for shard, members in enumerate(shards):
        done = failed = leased = 0
        for job in members:
            fingerprint = job.fingerprint()
            if fingerprint in scan.completed:
                done += 1
            elif fingerprint in leases:
                leased += 1
            elif fingerprint in scan.failed:
                failed += 1
        statuses.append(ShardStatus(
            shard=shard,
            total=len(members),
            done=done,
            failed=failed,
            leased=leased,
            pending=len(members) - done - failed - leased,
        ))
    return statuses


# ------------------------------------------------------------ autoscale hints
#: How quickly a fleet sized by :func:`autoscale_hint` should drain the
#: backlog: enough workers that ``pending x median cost`` clears in about
#: this many seconds (assuming cells parallelise perfectly, which the
#: fingerprint-disjoint grid cells do).
DEFAULT_TARGET_DRAIN_S = 120.0

#: Suggested fleet size when nothing has executed yet (no observed cost to
#: extrapolate from): enough workers to make quick progress, few enough not
#: to stampede a backend for a possibly tiny run.
_COLD_START_WORKER_CAP = 8


@dataclass(frozen=True)
class AutoscaleHint:
    """Elastic-worker sizing derived from observed cell cost.

    ``median_cost_s`` is the median wall time of the cells the run has
    actually executed (cache-served cells are excluded -- they say nothing
    about compute cost); ``backlog_s`` extrapolates it over the pending
    cells.  ``suggested_workers`` is the fleet that drains that backlog in
    about ``target_drain_s``, clamped to ``[1, pending]`` -- never more
    workers than there are cells to hand out, never zero while work remains.
    """

    pending: int
    leased: int
    failed: int
    observed_cells: int
    median_cost_s: Optional[float]
    backlog_s: Optional[float]
    target_drain_s: float
    suggested_workers: int

    def describe(self) -> str:
        """One status line; always contains ``suggested workers: N``."""
        if self.pending == 0:
            if self.failed:
                tail = f"{self.failed} failed cell(s) need fixes, not workers"
            elif self.leased:
                tail = f"{self.leased} cell(s) in flight elsewhere"
            else:
                tail = "run complete"
            return f"autoscale: 0 pending cell(s); suggested workers: 0 ({tail})"
        if self.median_cost_s is None:
            return (
                f"autoscale: {self.pending} pending cell(s), no observed cell "
                f"cost yet; suggested workers: {self.suggested_workers}"
            )
        return (
            f"autoscale: {self.pending} pending cell(s) x "
            f"{self.median_cost_s:.3f}s median observed cell cost = "
            f"{self.backlog_s:.1f}s backlog; suggested workers: "
            f"{self.suggested_workers} (target drain {self.target_drain_s:.0f}s)"
        )


def autoscale_hint(
    run: GridRun,
    statuses: Optional[List[ShardStatus]] = None,
    target_drain_s: float = DEFAULT_TARGET_DRAIN_S,
) -> AutoscaleHint:
    """Suggest a worker count for a run: pending cells x observed cell cost.

    Executed cells log their wall time (``elapsed_s``); the median over every
    such record, times the pending-cell count, estimates the remaining
    compute.  Dividing by ``target_drain_s`` sizes a fleet that clears it in
    roughly that long.  Before anything has executed the hint falls back to
    ``min(pending, 8)`` -- enough to start learning the cost.  Leased cells
    are someone's already; they count toward neither backlog nor fleet.
    """
    if statuses is None:
        statuses = grid_status(run)
    pending = sum(status.pending for status in statuses)
    leased = sum(status.leased for status in statuses)
    failed = sum(status.failed for status in statuses)
    costs: List[float] = []
    for shard in range(run.shard_count):
        for record in run.iter_shard_records(shard):
            if record.get("from_cache") or not isinstance(record.get("result"), dict):
                continue
            elapsed = record.get("elapsed_s")
            if isinstance(elapsed, (int, float)) and elapsed >= 0:
                costs.append(float(elapsed))
    median = statistics.median(costs) if costs else None
    if pending == 0:
        backlog = 0.0 if median is not None else None
        suggested = 0
    elif median is None:
        backlog = None
        suggested = min(pending, _COLD_START_WORKER_CAP)
    else:
        backlog = pending * median
        suggested = max(1, min(pending, math.ceil(backlog / target_drain_s)))
    # The single code path exporting the hint as gauges: campaign-status
    # --metrics and the serve /metrics endpoint both call through here, so
    # the printed hint and the scraped numbers can never disagree.
    registry = current_registry()
    registry.gauge(
        "repro_autoscale_pending", "Pending cells the autoscale hint saw."
    ).set(pending)
    registry.gauge(
        "repro_autoscale_median_cell_cost_seconds",
        "Median observed wall cost per executed cell (0 until one executes).",
    ).set(median if median is not None else 0.0)
    registry.gauge(
        "repro_autoscale_suggested_workers",
        "Worker count suggested to drain the backlog on target.",
    ).set(suggested)
    return AutoscaleHint(
        pending=pending,
        leased=leased,
        failed=failed,
        observed_cells=len(costs),
        median_cost_s=median,
        backlog_s=backlog,
        target_drain_s=target_drain_s,
        suggested_workers=suggested,
    )
