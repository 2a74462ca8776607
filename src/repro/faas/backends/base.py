"""The :class:`GridBackend` protocol: what a grid coordination medium must do.

The grid layer (:mod:`repro.faas.grid`) coordinates loosely-coupled workers
through exactly three kinds of shared state -- TTL *leases* (who is running
what), append-only *result records* (what is finished), and a single *run
manifest* (what campaign this is).  This module pins that contract down as an
abstract base class so the medium holding the state is pluggable: a shared
filesystem (:class:`~repro.faas.backends.file.FileBackend`) or an in-process
store (:class:`~repro.faas.backends.memory.MemoryBackend`).

Every implementation must honour six invariants, because the worker/merge
logic above is written against them:

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

Invariants 1-3 are decided in one place, the pure function :func:`decide`:
(lease document as read, operation, worker, now) -> a document to write, a
delete, or a refusal, plus the telemetry op name.  :class:`GridBackend`
applies each verdict through four storage operations on one key, all a
medium provides: *read* (the document doubles as its version), *create if
absent*, *replace if unchanged* and *delete if unchanged* -- so a lease
that changed since it was read refuses the verdict instead of being lost.
The file backend gets them from ``link(2)``, tombstone renames and a
re-read; the memory backend from its lock.  S3 and GCS offer them as
conditional requests (``If-None-Match: *`` / ``If-Match: <etag>``, or
``ifGenerationMatch``), and records there would be immutable objects, one
per batch under a per-worker prefix, so appends never contend.

Time never comes from the backend's medium: every deadline read/write flows
through the injectable :attr:`GridBackend.clock`, so tests drive lease expiry
with a fake clock instead of sleeps.
"""

from __future__ import annotations

import math
import re
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

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


def _live(document: Dict[str, object], now: float) -> bool:
    """An unexpired lease; one without a finite numeric deadline is unreadable.

    The shared medium is outside input: another host or version may have
    written anything there.
    """
    deadline = document.get("deadline")
    return (not document.get("done") and type(deadline) in (int, float)
            and math.isfinite(deadline) and deadline >= now)  # type: ignore[arg-type, operator]


#: Replace whatever lease is stored: a done marker overrides every lease.
ANY = object()


class Decision(NamedTuple):
    """:func:`decide`'s verdict on one lease."""

    action: str  #: ``"write"``, ``"delete"`` or ``"refuse"``
    document: Optional[Dict[str, object]]  #: what a ``"write"`` stores
    op: Optional[str]  #: the telemetry op name; None counts nothing


#: Each operation's telemetry op when it is refused (or its lease changed).
_REFUSED = {"claim": "claim_conflict", "renew": "renew_lost", "release": None}


def decide(
    document: Optional[Dict[str, object]],
    operation: str,
    worker_id: str,
    now: float,
    ttl_s: float = 0.0,
) -> Decision:
    """The lease state machine: what ``operation`` by ``worker_id`` does.

    ``document`` is the lease as read, None when absent or unreadable;
    ``operation`` is ``claim``, ``renew``, ``mark_done`` or ``release``.

    * A claim takes an absent lease (``claim``) or an expired or unreadable
      one (``reclaim``); a live lease or a done marker refuses it.
    * A renew rewrites the worker's own lease with a fresh deadline, and a
      release deletes it; neither touches a rival's lease or a done marker.
    * Marking done writes the permanent marker whatever was there: the
      cell's records are durable, so it *is* done.
    """
    if operation == "mark_done":
        return Decision("write", {"worker": worker_id, "done": True}, "mark_done")
    lease = {"worker": worker_id, "deadline": now + ttl_s}
    if operation == "claim":
        if document is None:
            return Decision("write", lease, "claim")
        if not document.get("done") and not _live(document, now):
            return Decision("write", lease, "reclaim")
    elif _renewable(document, worker_id):
        if operation == "renew":
            return Decision("write", lease, "renew")
        if operation == "release":
            return Decision("delete", None, "release")
    return Decision("refuse", None, _REFUSED[operation])


class GridBackend(ABC):
    """Abstract coordination medium for a grid run.

    Leases are keyed by cell fingerprint and carry ``{worker, deadline}``
    documents (or ``{worker, done: True}`` once the cell is finished);
    readers key leases by fingerprint, never by a document field.  Records
    are JSON object lines -- already encoded, see
    :func:`~repro.faas.results.record_line` -- grouped by shard index.  The
    manifest is the run's identity document.

    The lease calls are written once, here, over :func:`decide`; an
    implementation provides the lease storage operations, records and the
    manifest.

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
    def _record_op(self, op: Optional[str]) -> None:
        """Count one lease-protocol operation (None: nothing) on the ambient
        registry; under the default null registry this is one attribute check.
        """
        registry = current_registry()
        if registry.enabled and op is not None:
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
    def claim_many(
        self, fingerprints: Sequence[str], worker_id: str, ttl_s: float
    ) -> List[bool]:
        """Try to acquire each lease; True where ``worker_id`` now holds it.

        Each cell is decided on its own (a batch is not all-or-nothing), and
        telemetry counts one ``claim``, ``reclaim`` or ``claim_conflict`` per
        cell.  The batch stages one claim document; a cell is read and
        decided only when creating its lease finds one there.
        """
        if not _batch(fingerprints):
            return []
        now = self.clock()
        fresh = decide(None, "claim", worker_id, now, ttl_s)
        won: List[bool] = []
        with self.staged_lease(fresh.document, worker_id) as staged:  # type: ignore[arg-type]
            for fingerprint in fingerprints:
                if self.create_lease(fingerprint, staged):
                    self._record_op(fresh.op)
                    won.append(True)
                else:
                    won.append(self._settle(
                        fingerprint, "claim", worker_id, now, ttl_s, staged))
        return won

    def renew(self, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
        """Heartbeat: push our deadline out by another TTL; False, leaving the
        lease alone, when it is not ours, is done, or changed since the read."""
        return self._settle(fingerprint, "renew", worker_id, self.clock(), ttl_s)

    def mark_done_many(self, fingerprints: Sequence[str], worker_id: str) -> None:
        """Replace each lease with a permanent done marker (unconditionally)."""
        if not _batch(fingerprints):
            return
        done = decide(None, "mark_done", worker_id, self.clock())
        with self.staged_lease(done.document, worker_id) as staged:  # type: ignore[arg-type]
            for fingerprint in fingerprints:
                self.replace_lease(fingerprint, staged, ANY)
                self._record_op(done.op)

    def release(self, fingerprint: str, worker_id: str) -> None:
        """Drop our live lease; a rival's claim and any done marker stay."""
        self._settle(fingerprint, "release", worker_id, self.clock())

    def active(self) -> Dict[str, Dict[str, object]]:
        """All unexpired leases, keyed by fingerprint."""
        now = self.clock()
        leases: Dict[str, Dict[str, object]] = {}
        for fingerprint in self.lease_keys():
            document = self.read_lease(fingerprint)
            if document is not None and _live(document, now):
                leases[fingerprint] = document
        return leases

    def _settle(self, fingerprint: str, operation: str, worker_id: str,
                now: float, ttl_s: float = 0.0, staged: object = None) -> bool:
        """Read one lease, decide, and apply the verdict if the lease is
        unchanged; True when it was.  ``staged``: a batch's claim, staged."""
        holder = self.read_lease(fingerprint)
        verdict = decide(holder, operation, worker_id, now, ttl_s)
        if verdict.action == "delete":
            applied = self.delete_lease(fingerprint, holder)
        elif verdict.action == "write" and staged is not None:
            applied = self.replace_lease(fingerprint, staged, holder)
        elif verdict.action == "write":
            with self.staged_lease(verdict.document, worker_id) as own:  # type: ignore[arg-type]
                applied = self.replace_lease(fingerprint, own, holder)
        else:
            applied = False
        self._record_op(verdict.op if applied else _REFUSED[operation])
        return applied

    # -- lease storage -------------------------------------------------------
    @abstractmethod
    def read_lease(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The lease document (None: absent or unreadable), also its version."""

    @abstractmethod
    def create_lease(self, fingerprint: str, staged: object) -> bool:
        """Store the ``staged`` document if no lease exists; False if one does."""

    @abstractmethod
    def replace_lease(self, fingerprint: str, staged: object, expected: object) -> bool:
        """Store ``staged`` if the lease still reads ``expected`` (None: absent
        or unreadable; :data:`ANY`: whatever is stored)."""

    @abstractmethod
    def delete_lease(self, fingerprint: str, expected: object) -> bool:
        """Remove the lease if it still reads ``expected``."""

    @abstractmethod
    def lease_keys(self) -> Iterable[str]:
        """The fingerprint of every stored lease, for status scans."""

    @contextmanager
    def staged_lease(self, document: Dict[str, object], worker_id: str) -> Iterator[object]:
        """``document`` ready to store under many keys: itself by default; the
        file backend stages one file to hard-link onto a batch's leases."""
        yield document

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
