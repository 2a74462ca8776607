"""In-process grid backend: Redis-style dict store with an injectable clock.

One lock, three dicts.  Single-host elastic workers (threads sharing a
backend instance) and tests coordinate through it with the exact lease
semantics of the file backend -- exclusivity, expiry reclaim, done
permanence -- but at memory speed and with zero filesystem footprint.

State lives in the backend *instance*: workers must share the object (or
fetch the same named instance from :func:`memory_backend`, which is what
``--backend memory`` does within one CLI process).  Records are kept as
the encoded lines a worker appends and parsed on read, so they read back
bit-identical to what a JSONL log would have returned -- the
merge-equality goldens hold by construction.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterator, List, Optional, Sequence

from ..results import parse_json_object
from .base import GridBackend, _batch, _renewable, _wall_clock


class MemoryBackend(GridBackend):
    """TTL leases, result streams, and a manifest in process memory."""

    kind = "memory"

    def __init__(self, name: str = "memory", clock=None) -> None:
        self.name = name
        self.clock = clock if clock is not None else _wall_clock
        self._lock = threading.Lock()
        self._leases: Dict[str, str] = {}
        self._records: Dict[int, List[str]] = {}
        self._manifest: Optional[str] = None

    def describe(self) -> str:
        return f"memory:{self.name}"

    # -- leases --------------------------------------------------------------
    def _holder(self, fingerprint: str) -> Optional[Dict[str, object]]:
        raw = self._leases.get(fingerprint)
        if raw is None:
            return None
        document = json.loads(raw)
        return document if isinstance(document, dict) else None

    def claim_many(
        self, fingerprints: Sequence[str], worker_id: str, ttl_s: float
    ) -> List[bool]:
        with self._lock:
            return [self._claim(fingerprint, worker_id, ttl_s)
                    for fingerprint in _batch(fingerprints)]

    def _claim(self, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
        holder = self._holder(fingerprint)
        if holder is not None:
            if holder.get("done"):
                self._record_op("claim_conflict")
                return False  # finished and logged; never re-claim
            if float(holder.get("deadline", 0)) >= self.clock():
                self._record_op("claim_conflict")
                return False  # live lease held by someone else
        # Expired, unreadable, or absent: the caller holds the lock, so the
        # read-check-write is atomic and exactly one contender wins.
        self._leases[fingerprint] = json.dumps({
            "fingerprint": fingerprint,
            "worker": worker_id,
            "deadline": self.clock() + ttl_s,
        })
        self._record_op("reclaim" if holder is not None else "claim")
        return True

    def read_lease(self, fingerprint: str) -> Optional[Dict[str, object]]:
        with self._lock:
            return self._holder(fingerprint)

    def renew(self, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
        with self._lock:
            if not _renewable(self._holder(fingerprint), worker_id):
                self._record_op("renew_lost")
                return False
            self._leases[fingerprint] = json.dumps({
                "fingerprint": fingerprint,
                "worker": worker_id,
                "deadline": self.clock() + ttl_s,
            })
            self._record_op("renew")
            return True

    def mark_done_many(self, fingerprints: Sequence[str], worker_id: str) -> None:
        with self._lock:
            for fingerprint in _batch(fingerprints):
                self._leases[fingerprint] = json.dumps({
                    "fingerprint": fingerprint,
                    "worker": worker_id,
                    "done": True,
                })
                self._record_op("mark_done")

    def release(self, fingerprint: str, worker_id: str) -> None:
        with self._lock:
            if not _renewable(self._holder(fingerprint), worker_id):
                return  # a rival's lease, or a done marker: never ours to drop
            self._leases.pop(fingerprint, None)
            self._record_op("release")

    def active(self) -> Dict[str, Dict[str, object]]:
        now = self.clock()
        leases: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for fingerprint in sorted(self._leases):
                document = self._holder(fingerprint)
                if document is None:
                    continue
                if float(document.get("deadline", 0)) >= now:
                    leases[str(document.get("fingerprint", fingerprint))] = document
        return leases

    # -- result records ------------------------------------------------------
    def append_records(self, shard: int, worker_id: str, lines: Sequence[str]) -> None:
        with self._lock:
            self._records.setdefault(int(shard), []).extend(_batch(lines))
        self._record_append(len(lines))

    def iter_records(self, shard: int) -> Iterator[Dict[str, object]]:
        with self._lock:
            lines = list(self._records.get(int(shard), ()))
        for line in lines:
            # A torn record is skipped; the merge recovers from duplicates.
            record = parse_json_object(line)
            if record is not None:
                yield record

    # -- manifest ------------------------------------------------------------
    def read_manifest(self) -> Optional[Dict[str, object]]:
        with self._lock:
            raw = self._manifest
        return json.loads(raw) if raw is not None else None

    def write_manifest(self, manifest: Dict[str, object]) -> bool:
        with self._lock:
            if self._manifest is not None:
                return False
            self._manifest = json.dumps(manifest, sort_keys=True)
            return True


_REGISTRY_LOCK = threading.Lock()
_NAMED_BACKENDS: Dict[str, MemoryBackend] = {}


def memory_backend(name: str = "default") -> MemoryBackend:
    """The process-wide shared :class:`MemoryBackend` for ``name``.

    ``--backend memory`` (or ``memory://name``) resolves here, so every
    component of one process -- worker threads, status scans, the final
    merge -- coordinates over the same store.  State is per-process by
    nature: a second CLI invocation starts empty.
    """
    with _REGISTRY_LOCK:
        backend = _NAMED_BACKENDS.get(name)
        if backend is None:
            backend = MemoryBackend(name=name)
            _NAMED_BACKENDS[name] = backend
        return backend
