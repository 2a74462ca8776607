"""In-process grid backend: Redis-style dict store with an injectable clock.

One lock, three dicts.  Single-host elastic workers (threads sharing a
backend instance) and tests coordinate through it with the lease protocol
every backend shares -- its storage operations are plain dict updates made
conditional under the lock -- at memory speed and with zero filesystem
footprint.

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
from .base import ANY, GridBackend, _batch, _wall_clock


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

    # -- lease storage -------------------------------------------------------
    def _read(self, fingerprint: str) -> Optional[Dict[str, object]]:
        raw = self._leases.get(fingerprint)
        return None if raw is None else parse_json_object(raw)

    def read_lease(self, fingerprint: str) -> Optional[Dict[str, object]]:
        with self._lock:
            return self._read(fingerprint)

    def create_lease(self, fingerprint: str, staged: Dict[str, object]) -> bool:
        with self._lock:
            if fingerprint in self._leases:
                return False
            self._leases[fingerprint] = json.dumps(staged)
            return True

    def replace_lease(self, fingerprint: str, staged: Dict[str, object], expected: object) -> bool:
        with self._lock:
            if expected is not ANY and self._read(fingerprint) != expected:
                return False
            self._leases[fingerprint] = json.dumps(staged)
            return True

    def delete_lease(self, fingerprint: str, expected: object) -> bool:
        with self._lock:
            if self._read(fingerprint) != expected:
                return False
            self._leases.pop(fingerprint, None)
            return True

    def lease_keys(self) -> List[str]:
        with self._lock:
            return sorted(self._leases)

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
