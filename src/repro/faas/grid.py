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
  :func:`grid_status` reports done/failed/leased/pending counts per shard
  (and who holds each live lease, until when) and
  :func:`autoscale_hint` turns them into a suggested worker count.

Where the state lives is pluggable (:mod:`repro.faas.backends`): the default
:class:`~repro.faas.backends.file.FileBackend` keeps the original shared
run-directory layout (``grid.json`` + ``leases/`` + ``results/``), the
in-process :class:`~repro.faas.backends.memory.MemoryBackend` serves tests
and single-host elastic workers.  The merge is bit-identical to the single-process run on
every backend.

Cell execution itself is not the grid's: :func:`run_grid_worker` runs the
same cache driver as :func:`~repro.faas.campaign.run_campaign`
(:func:`~repro.faas.campaign.drive_cells` -- cache probe, pooled execution,
cache store) and differs only in where a finished cell goes: a backend
record plus a lease done marker instead of an in-memory dict.  The grid adds
leases, records, and shards, and reaches run state only through
``run.backend``.
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
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..observability import current_registry
from .backends import FileBackend, GridBackend
from .backends.base import _safe_worker_id
from .campaign import (
    CACHE_VERSION,
    CampaignJob,
    CampaignResult,
    CampaignSpec,
    CellFailure,
    Delivered,
    collector_paused,
    drive_cells,
    iter_cached_cells,
)
from .experiment import ExperimentResult
from .results import (  # noqa: F401  (ResultLog re-exported)
    DECODE_ERRORS, ResultLog, encode_document, record_line, result_from_columns,
    result_to_columns, result_to_dict,
)

#: Bump when the run-directory layout changes incompatibly (2: column records).
GRID_VERSION = 2

#: Default lease time-to-live.  A held lease is rewritten once it is at
#: least TTL/6 old; a pooled worker (workers > 1) checks every TTL/6 even
#: while cells execute, so each lease is rewritten at most TTL/3 after its
#: last write and the TTL only needs to cover scheduling hiccups.  A serial
#: worker (workers=1) checks only *between* cells, so its TTL must cover the
#: longest single cell runtime -- or a concurrent worker may reclaim and
#: duplicate the cell mid-flight (harmless for correctness, the merge
#: deduplicates, but wasted compute).
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
    deal in fingerprints only.  What each call does to a lease is decided in
    one place for every backend: :func:`~repro.faas.backends.base.decide`.
    """

    def __init__(
        self,
        backend: GridBackend,
        worker_id: str = "worker",
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if clock is not None:
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

    def claim_many(self, fingerprints: Sequence[str]) -> List[bool]:
        """Try to acquire each lease; True where this worker now holds it."""
        return self.backend.claim_many(fingerprints, self.worker_id, self.ttl_s)

    def read(self, fingerprint: str) -> Optional[Dict[str, object]]:
        return self.backend.read_lease(fingerprint)

    def renew(self, fingerprint: str) -> bool:
        """Heartbeat; False, leaving the lease alone, once it is not ours."""
        return self.backend.renew(fingerprint, self.worker_id, self.ttl_s)

    def mark_done_many(self, fingerprints: Sequence[str]) -> None:
        """Replace each lease with a permanent done marker, whoever holds it."""
        self.backend.mark_done_many(fingerprints, self.worker_id)

    def release(self, fingerprint: str) -> None:
        """Drop our lease; a rival's claim and a done marker stay."""
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

    Lease heartbeats fire from the pool wait loop, which wakes at least every
    TTL/6, so with ``workers > 1`` leases stay fresh even while cells
    execute: a held lease is rewritten once it is at least TTL/6 old, so at
    most TTL/3 after its last write.  A cell shorter than TTL/6 never renews
    its lease at all.  With ``workers=1`` renewal only happens between cells:
    pick a ``lease_ttl_s`` longer than the longest cell, or concurrent
    workers may duplicate in-flight cells (the merge deduplicates, so
    results stay correct either way).
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

    # Telemetry handle (a no-op unless a recording registry is current).
    registry = current_registry()
    lease_depth = registry.gauge(
        "repro_grid_lease_queue_depth", "Leases this worker currently holds."
    )

    scan = run.scan(shard)
    jobs: List[CampaignJob] = []
    for job in run.spec.expand():
        fingerprint = job.fingerprint()
        if shard is not None and shard_of(fingerprint, run.shard_count) != shard:
            continue
        if fingerprint in scan.completed:
            report.already_done += 1
        else:
            jobs.append(job)
    if priority:
        # Stable sort: equal-rank cells keep the expansion order above.
        jobs.sort(key=lambda job: -float(priority.get(job.fingerprint(), 0.0)))

    # Held leases -> when we last wrote them (claim or renew), on the lease
    # clock.  A lease is rewritten only once it is due, not on every tick.
    held: Dict[str, float] = {}
    renew_after_s = lease_ttl_s / 6.0

    def admit(batch: List[CampaignJob]) -> List[bool]:
        fingerprints = [job.fingerprint() for job in batch]
        now = leases.clock()
        won = leases.claim_many(fingerprints)
        for fingerprint, claimed in zip(fingerprints, won):
            if claimed:
                held[fingerprint] = now
        lease_depth.set(len(held))
        return won

    def skip(job: CampaignJob) -> None:
        report.skipped_leased += 1

    def tick() -> None:
        now = leases.clock()
        for fingerprint, written in list(held.items()):
            if now - written < renew_after_s:
                continue
            if leases.renew(fingerprint):
                held[fingerprint] = now
            else:
                # We stalled past the TTL and a rival reclaimed the cell; it
                # may now run twice, which the merge deduplicates.  Stop
                # heartbeating a lease that is no longer ours.
                del held[fingerprint]
        lease_depth.set(len(held))
        registry.flush(min_interval_s=1.0)

    def record(job: CampaignJob, fields: Dict[str, object],
               result: Optional[str] = None) -> Tuple[int, str]:
        """One settled cell's encoded log record, and its shard."""
        fingerprint = job.fingerprint()
        job_shard = shard_of(fingerprint, run.shard_count)
        return job_shard, record_line({
            "fingerprint": fingerprint, "shard": job_shard, "worker": worker_id,
            "job": job.to_dict(), **fields,
        }, result)

    def deliver(cells: List[Delivered]) -> None:
        by_shard: Dict[int, List[str]] = {}
        for job, document, result, elapsed_s in cells:
            fields: Dict[str, object] = {"from_cache": result is not None}
            if elapsed_s is not None:
                # Observed wall cost of this cell; autoscale_hint() medians
                # these to size the fleet.  Merge/scan ignore unknown keys.
                fields["elapsed_s"] = round(float(elapsed_s), 6)
            # A fresh document arrives as column text (encode_documents
            # below), and so does a cache hit, as its entry stores it; a hit
            # is logged too, so a merge needs only the logs.  Only an entry
            # of an older layout has its columns rebuilt from the result.
            text = document or encode_document(result_to_columns(result_to_dict(result)))
            job_shard, line = record(job, fields, text)  # type: ignore[arg-type]
            by_shard.setdefault(job_shard, []).append(line)
        # Group commit: every record of the batch is durable before any of
        # its done markers is written, so a marker never names an unlogged
        # cell, and a crash before the commit loses only leases that expire.
        for job_shard, lines in by_shard.items():
            run.backend.append_records(job_shard, worker_id, lines)
        # Done markers instead of plain releases: a concurrent worker whose
        # startup scan predates this completion must not re-claim the cells.
        # Heartbeats continue until the markers are written.
        leases.mark_done_many([job.fingerprint() for job, _, _, _ in cells])
        for job, _, result, _ in cells:
            held.pop(job.fingerprint(), None)
            if result is None:
                report.executed += 1
            else:
                report.cache_hits += 1
        lease_depth.set(len(held))

    def fail(failure: CellFailure) -> None:
        job_shard, line = record(failure.job, {
            "error": failure.error,
            "attempts": failure.attempts,
        })
        # The failure is logged before the lease is given up.
        run.backend.append_records(job_shard, worker_id, [line])
        leases.release(failure.job.fingerprint())
        held.pop(failure.job.fingerprint(), None)
        lease_depth.set(len(held))
        report.failed += 1
        report.failures.append(failure)

    drive_cells(
        jobs, workers, cache_dir, deliver, fail,
        progress=progress, max_retries=max_retries,
        admit=admit, skip=skip,
        tick=tick, tick_interval_s=max(renew_after_s, 0.05),
        encode_documents=True,
    )
    return report


# ----------------------------------------------------------- merge and status
def merge_run(
    run: GridRun,
    cache_dir: Optional[Union[str, Path]] = None,
    allow_partial: bool = False,
) -> CampaignResult:
    """Fold the shard logs (plus the cell cache) into a ``CampaignResult``.

    Streams the logs record by record: each record's column document is
    decoded into an :class:`~repro.faas.experiment.ExperimentResult` and dropped,
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
    with collector_paused():  # one pause over the whole fold, as in drive_cells
        for shard in range(run.shard_count):
            for record in run.iter_shard_records(shard):
                fingerprint = str(record.get("fingerprint", ""))
                if fingerprint not in wanted or fingerprint in merged:
                    continue
                result_document = record.get("result")
                if not isinstance(result_document, dict):
                    continue
                try:
                    result = result_from_columns(result_document)
                except DECODE_ERRORS:
                    continue  # corrupt record; a duplicate or the cache may supply it
                merged[fingerprint] = (result, bool(record.get("from_cache", False)))
        unmerged = [job for job in jobs if job.fingerprint() not in merged]
        for job, result, _ in iter_cached_cells(cache_dir, unmerged):
            if result is not None:
                merged[job.fingerprint()] = (result, True)
    missing = [job for job in unmerged if job.fingerprint() not in merged]
    if missing and not allow_partial:
        raise ValueError(
            f"run is incomplete: {len(missing)}/{len(jobs)} cells have no result "
            f"yet (e.g. {missing[0].cell_key!r}); run more workers, resume the "
            f"run, or merge with allow_partial=True for a preview"
        )
    return CampaignResult.assemble(run.spec, jobs, merged)


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
class LeaseStatus:
    """One live lease: which cell, who holds it, and when it expires."""

    shard: int
    fingerprint: str
    benchmark: str
    platform: str
    worker: str
    expires_in_s: float

    def as_row(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "cell": self.fingerprint[:16],
            "benchmark": self.benchmark,
            "platform": self.platform,
            "worker": self.worker,
            "expires_in_s": round(self.expires_in_s, 1),
        }


@dataclass(frozen=True)
class ShardStatus:
    """Progress of one shard of a grid run, plus its live leases."""

    shard: int
    total: int
    done: int
    failed: int
    pending: int
    leases: Tuple[LeaseStatus, ...]

    @property
    def leased(self) -> int:
        return len(self.leases)

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
    always equals the shard's cell count.  Each leased cell's lease is
    listed with its holder and the seconds until its deadline; a pooled
    worker keeps that above 2/3 of the TTL, so a lower countdown points at
    a worker that stopped heartbeating.
    """
    scan = run.scan()
    leases = run.backend.active()
    now = run.backend.clock()
    shards = plan_shards(run.spec, run.shard_count)
    statuses: List[ShardStatus] = []
    for shard, members in enumerate(shards):
        done = failed = 0
        live: List[LeaseStatus] = []
        for job in members:
            fingerprint = job.fingerprint()
            if fingerprint in scan.completed:
                done += 1
            elif fingerprint in leases:
                lease = leases[fingerprint]
                live.append(LeaseStatus(
                    shard=shard,
                    fingerprint=fingerprint,
                    benchmark=job.benchmark,
                    platform=job.platform_label,
                    worker=str(lease.get("worker", "")),
                    expires_in_s=float(lease["deadline"]) - now,
                ))
            elif fingerprint in scan.failed:
                failed += 1
        statuses.append(ShardStatus(
            shard=shard,
            total=len(members),
            done=done,
            failed=failed,
            pending=len(members) - done - failed - len(live),
            leases=tuple(live),
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
