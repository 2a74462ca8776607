"""The :class:`GridBackend` protocol: what a grid coordination medium must do.

The grid layer (:mod:`repro.faas.grid`) coordinates loosely-coupled workers
through exactly three kinds of shared state -- TTL *leases* (who is running
what), append-only *result records* (what is finished), and a single *run
manifest* (what campaign this is).  This module pins that contract down as an
abstract base class so the medium holding the state is pluggable: a shared
filesystem (:class:`~repro.faas.backends.file.FileBackend`) or an in-process
store (:class:`~repro.faas.backends.memory.MemoryBackend`).

Every implementation must honour the same five invariants the file backend
pioneered, because the worker/merge logic above is written against them:

1. **Claim exclusivity** -- :meth:`GridBackend.claim_many` wins each
   fingerprint for exactly one contender, however many workers race and
   however their batches overlap.
2. **Expiry reclaim** -- an expired lease is claimable again, and exactly one
   of several racing reclaimers wins.
3. **Done permanence** -- after :meth:`GridBackend.mark_done_many`, no claim
   on those fingerprints ever succeeds again.
4. **Append durability and tolerance** -- :meth:`GridBackend.append_records`
   never overwrites and returns only once the whole batch is durable, so a
   caller may publish what the batch records (done markers) right after it;
   :meth:`GridBackend.iter_records` yields every readable record and
   silently skips torn or corrupt ones (the merge deduplicates).
5. **Manifest exclusivity** -- :meth:`GridBackend.write_manifest` installs
   the manifest only if none exists; losers of an initialisation race must
   re-read and validate instead of clobbering.
6. **Lease files are never written in place** -- a lease is created,
   replaced whole, or removed.  The file backend links one shared file
   onto every lease of a claim or done batch, so an in-place write to one
   lease would rewrite its batch-mates too.

A medium needs only four storage operations on one key to honour them --
*read* (the document and a version tag), *create if absent*, *replace if
unchanged* (still the version read) and *delete if unchanged*.  The file
backend gets them from ``link(2)``, tombstone renames and a re-read; the
memory backend from its lock.  S3 and GCS offer them as conditional
requests (``If-None-Match: *`` / ``If-Match: <etag>``, or
``ifGenerationMatch``): a claim of a fresh cell is a create if absent, so
exactly one racing put wins; a reclaim of an expired lease is a replace
guarded by the version of the expired document read, so the first winner's
write fences out every other reclaimer.  Records there are immutable
objects, one per batch under a per-worker prefix, so appends never contend
and a torn upload never appears.

Time never comes from the backend's medium: every deadline read/write flows
through the injectable :attr:`GridBackend.clock`, so tests drive lease expiry
with a fake clock instead of sleeps.
"""

from __future__ import annotations

import re
import time
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ...observability import current_registry


def _wall_clock() -> float:
    """The grid's one sanctioned wall-clock read.

    Lease TTLs are *real-time* contracts between unrelated hosts -- "reclaim
    my cell if I go silent for five minutes" -- so, unlike everything else in
    the simulator, they genuinely need the wall clock.  Every deadline
    computation flows through :attr:`GridBackend.clock` (defaulting to this
    function), giving tests a single injection point instead of sleeps.
    """
    return time.time()  # lint: allow[R001] -- lease TTLs are real-time contracts between hosts


def _safe_worker_id(worker_id: str) -> str:
    """A filesystem-safe worker identity (used in lease and log file names)."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", worker_id).strip("._-")
    return cleaned or "worker"


def _batch(items: Sequence[str]) -> Sequence[str]:
    """``items``; one ``str`` would be a batch of characters, so it raises."""
    if isinstance(items, str):
        raise TypeError("expected a sequence of strings, not one str; wrap it in a list")
    return items


def _renewable(holder: Optional[Dict[str, object]], worker_id: str) -> bool:
    """Whether ``worker_id`` may heartbeat or release this lease document.

    Only its own live lease: never a rival's reclaim, and never a done
    marker -- renewing or releasing one would let a rival claim it later,
    re-running a finished cell.
    """
    return (
        holder is not None
        and holder.get("worker") == worker_id
        and not holder.get("done")
    )


class GridBackend(ABC):
    """Abstract coordination medium for a grid run.

    Leases are keyed by cell fingerprint and carry ``{worker, deadline}``
    documents (or ``{worker, done: True}`` once the cell is finished); a
    backend may add fields, but readers key leases by fingerprint, never by
    a document field.  Records are JSON object lines -- already encoded, see
    :func:`~repro.faas.results.record_line` -- grouped by shard index.  The
    manifest is the run's identity document.

    Implementations hold no per-worker state: ``worker_id`` and ``ttl_s``
    arrive with each call, so one backend instance can serve any number of
    logical workers (the :class:`~repro.faas.grid.LeaseQueue` wrapper binds
    them for convenience).
    """

    #: Injectable time source; every deadline read/write goes through this.
    clock: Callable[[], float] = staticmethod(_wall_clock)

    #: Short backend identity, used as the ``backend`` telemetry label.
    kind: str = "grid"

    # -- telemetry -----------------------------------------------------------
    def _record_op(self, op: str) -> None:
        """Count one lease-protocol operation on the ambient metrics registry.

        Implementations call this at each protocol decision point (claim won,
        claim conflicted, expired lease reclaimed, renew succeeded or lost,
        done marker installed, lease released).  With the default
        :data:`~repro.observability.NULL_REGISTRY` this is a no-op attribute
        check, so uninstrumented runs pay nothing measurable.
        """
        registry = current_registry()
        if registry.enabled:
            registry.counter(
                "repro_grid_backend_ops_total",
                "Lease-protocol operations by backend kind and outcome.",
            ).inc(backend=self.kind, op=op)

    def _record_append(self, count: int = 1) -> None:
        """Count ``count`` result records durably appended through this backend."""
        registry = current_registry()
        if registry.enabled:
            registry.counter(
                "repro_grid_records_total",
                "Result records appended by backend kind.",
            ).inc(count, backend=self.kind)

    # -- leases --------------------------------------------------------------
    @abstractmethod
    def claim_many(
        self, fingerprints: Sequence[str], worker_id: str, ttl_s: float
    ) -> List[bool]:
        """Try to acquire each lease; True where ``worker_id`` now holds it.

        Each cell is decided on its own (a batch is not all-or-nothing), and
        telemetry counts one ``claim``, ``reclaim`` or ``claim_conflict`` per
        cell.
        """

    @abstractmethod
    def renew(self, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
        """Heartbeat: push our deadline out by another TTL.

        False -- leaving the lease untouched -- when it is not ours or is a
        done marker.
        """

    @abstractmethod
    def mark_done_many(self, fingerprints: Sequence[str], worker_id: str) -> None:
        """Replace each lease with a permanent done marker (unconditionally)."""

    @abstractmethod
    def release(self, fingerprint: str, worker_id: str) -> None:
        """Drop our live lease; a rival's claim and any done marker stay."""

    @abstractmethod
    def active(self) -> Dict[str, Dict[str, object]]:
        """All unexpired leases, keyed by fingerprint."""

    @abstractmethod
    def read_lease(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The raw lease document for a fingerprint, or None."""

    # -- result records ------------------------------------------------------
    @abstractmethod
    def append_records(self, shard: int, worker_id: str, lines: Sequence[str]) -> None:
        """Durably append a batch of encoded records to a shard's stream.

        Each line is one record's JSON object text, without a newline.  One
        call is one commit: a grid worker hands over a whole settled chunk
        at once, so a file log pays one ``fsync`` per chunk, not one per
        cell.
        """

    @abstractmethod
    def iter_records(self, shard: int) -> Iterator[Dict[str, object]]:
        """Every readable record of a shard, in a stable per-backend order."""

    # -- manifest ------------------------------------------------------------
    @abstractmethod
    def read_manifest(self) -> Optional[Dict[str, object]]:
        """The run manifest, or None when the run is uninitialised."""

    @abstractmethod
    def write_manifest(self, manifest: Dict[str, object]) -> bool:
        """Install the manifest if none exists; False when one already does.

        A False return means the caller lost an initialisation race (or
        joined an existing run) and must re-read and validate the winner's
        manifest rather than overwrite it.
        """

    # -- presentation --------------------------------------------------------
    def describe(self) -> str:
        """Human-readable location of the run's state (for messages/status)."""
        return type(self).__name__
