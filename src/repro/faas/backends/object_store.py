"""Object-store grid backend: leases as conditionally-put JSON objects.

S3 and GCS offer no ``link(2)`` or ``rename(2)``, but they do offer
*conditional writes*: a put can demand "only if the object does not exist"
(S3 ``If-None-Match: *`` / GCS ``ifGenerationMatch=0``) or "only if the
object is still the version I read" (``If-Match: <etag>`` /
``ifGenerationMatch=<generation>``).  That is enough to reproduce every
lease invariant the file backend gets from hard links:

* **claim** of a fresh cell is a create-if-absent put -- exactly one racing
  contender's put is accepted;
* **reclaim** of an expired lease is a put guarded by the ETag of the
  expired document that was read -- the first winner's write bumps the
  ETag, so every other contender's guarded put fails (the moral equivalent
  of the file backend's tombstone rename);
* **records** are immutable per-record objects under a per-worker prefix,
  so appends never contend and a torn upload simply never appears.

The store itself is abstracted behind the tiny get/put/delete/keys surface
of :class:`LocalObjectStore`, an in-memory fake with real ETag semantics.
The fake is the supported test/CI vehicle; pointing at real S3/GCS means
handing :class:`ObjectStoreBackend` a client object with the same surface
(boto3/google-cloud-storage are deliberately not imported here -- the
simulator's environment does not ship them).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..results import parse_json_object
from .base import GridBackend, _batch, _renewable, _safe_worker_id, _wall_clock


class LocalObjectStore:
    """An in-memory bucket with ETag-guarded conditional writes.

    Mimics the subset of S3/GCS the backend needs: every successful put
    bumps a monotonically increasing generation that doubles as the ETag,
    and a put carrying ``if_match``/``if_absent`` preconditions is rejected
    (returns None) instead of applied when the precondition fails -- the
    HTTP 412 of the real services.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._objects: Dict[str, Tuple[str, str]] = {}
        self._generation = 0

    def get(self, key: str) -> Optional[Tuple[str, str]]:
        """``(body, etag)`` for a key, or None when absent."""
        with self._lock:
            return self._objects.get(key)

    def put(
        self,
        key: str,
        body: str,
        if_match: Optional[str] = None,
        if_absent: bool = False,
    ) -> Optional[str]:
        """Write a key, honouring preconditions; the new ETag, or None.

        ``if_absent=True`` succeeds only when the key does not exist;
        ``if_match=etag`` only when the key still carries that ETag.  A
        failed precondition writes nothing.
        """
        with self._lock:
            current = self._objects.get(key)
            if if_absent and current is not None:
                return None
            if if_match is not None and (current is None or current[1] != if_match):
                return None
            self._generation += 1
            etag = f"g{self._generation}"
            self._objects[key] = (body, etag)
            return etag

    def delete(self, key: str, if_match: Optional[str] = None) -> bool:
        with self._lock:
            current = self._objects.get(key)
            if current is None:
                return False
            if if_match is not None and current[1] != if_match:
                return False
            del self._objects[key]
            return True

    def keys(self, prefix: str) -> List[str]:
        """All keys under a prefix, sorted (the list-objects call)."""
        with self._lock:
            return sorted(key for key in self._objects if key.startswith(prefix))


class ObjectStoreBackend(GridBackend):
    """Grid coordination over any conditional-put object store.

    ``store`` is anything with the :class:`LocalObjectStore` surface;
    ``prefix`` namespaces one run inside a shared bucket.  Lease writes are
    generation-guarded, so a worker that reads an expired lease and a worker
    that reads the *reclaimer's fresh* lease can never both win: the ETag
    observed at read time is the fencing token for the write.
    """

    kind = "object-store"

    def __init__(self, store=None, prefix: str = "", clock=None) -> None:
        self.store = store if store is not None else LocalObjectStore()
        self.prefix = f"{prefix.strip('/')}/" if prefix.strip("/") else ""
        self.clock = clock if clock is not None else _wall_clock
        self._sequence_lock = threading.Lock()
        self._sequence = 0

    def describe(self) -> str:
        return f"object-store:/{self.prefix}" if self.prefix else "object-store:/"

    # -- leases --------------------------------------------------------------
    def _lease_key(self, fingerprint: str) -> str:
        return f"{self.prefix}leases/{fingerprint}.json"

    def _lease_body(self, fingerprint: str, worker_id: str, ttl_s: float) -> str:
        return json.dumps({
            "fingerprint": fingerprint,
            "worker": worker_id,
            "deadline": self.clock() + ttl_s,
        })

    def claim_many(
        self, fingerprints: Sequence[str], worker_id: str, ttl_s: float
    ) -> List[bool]:
        # One conditional put per cell: the store has no batch precondition.
        return [self._claim(fingerprint, worker_id, ttl_s)
                for fingerprint in _batch(fingerprints)]

    def _claim(self, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
        key = self._lease_key(fingerprint)
        current = self.store.get(key)
        if current is None:
            if self.store.put(
                key, self._lease_body(fingerprint, worker_id, ttl_s), if_absent=True
            ) is not None:
                self._record_op("claim")
                return True
            current = self.store.get(key)
            if current is None:
                self._record_op("claim_conflict")
                return False  # created and deleted between our reads; back off
        holder = parse_json_object(current[0])
        if holder is not None and holder.get("done"):
            self._record_op("claim_conflict")
            return False  # the cell is finished and logged; never re-claim
        if holder is not None and float(holder.get("deadline", 0)) >= self.clock():
            self._record_op("claim_conflict")
            return False  # live lease held by someone else
        # Expired or unreadable: replace it guarded by the ETag we read.
        # The first winner's put bumps the generation, so every rival's
        # guarded put fails -- exactly one contender reclaims.
        reclaimed = self.store.put(
            key, self._lease_body(fingerprint, worker_id, ttl_s),
            if_match=current[1],
        ) is not None
        self._record_op("reclaim" if reclaimed else "claim_conflict")
        return reclaimed

    def read_lease(self, fingerprint: str) -> Optional[Dict[str, object]]:
        current = self.store.get(self._lease_key(fingerprint))
        return parse_json_object(current[0]) if current is not None else None

    def renew(self, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
        key = self._lease_key(fingerprint)
        current = self.store.get(key)
        if current is None:
            self._record_op("renew_lost")
            return False
        if not _renewable(parse_json_object(current[0]), worker_id):
            self._record_op("renew_lost")
            return False
        # Guarded by the ETag: if a rival reclaimed us between the read and
        # the write, the put fails and we report the lease lost instead of
        # clobbering the reclaimer's fresh claim.
        renewed = self.store.put(
            key, self._lease_body(fingerprint, worker_id, ttl_s),
            if_match=current[1],
        ) is not None
        self._record_op("renew" if renewed else "renew_lost")
        return renewed

    def mark_done_many(self, fingerprints: Sequence[str], worker_id: str) -> None:
        # Unconditional, like the file backend's replace: even if the lease
        # was reclaimed from us mid-cell, the cell *is* done and logged.
        for fingerprint in _batch(fingerprints):
            self.store.put(self._lease_key(fingerprint), json.dumps({
                "fingerprint": fingerprint,
                "worker": worker_id,
                "done": True,
            }))
            self._record_op("mark_done")

    def release(self, fingerprint: str, worker_id: str) -> None:
        key = self._lease_key(fingerprint)
        current = self.store.get(key)
        if current is None:
            return
        holder = parse_json_object(current[0])
        if holder is None or holder.get("worker") != worker_id:
            return
        self.store.delete(key, if_match=current[1])
        self._record_op("release")

    def active(self) -> Dict[str, Dict[str, object]]:
        now = self.clock()
        leases: Dict[str, Dict[str, object]] = {}
        for key in self.store.keys(f"{self.prefix}leases/"):
            current = self.store.get(key)
            if current is None:
                continue
            document = parse_json_object(current[0])
            if document is None:
                continue
            if float(document.get("deadline", 0)) >= now:
                fallback = key.rsplit("/", 1)[-1].rsplit(".", 1)[0]
                leases[str(document.get("fingerprint", fallback))] = document
        return leases

    # -- result records ------------------------------------------------------
    def append_records(self, shard: int, worker_id: str, lines: Sequence[str]) -> None:
        # One immutable object per record: each put is durable on its own.
        safe_worker = _safe_worker_id(worker_id)
        for body in _batch(lines):
            while True:
                with self._sequence_lock:
                    self._sequence += 1
                    sequence = self._sequence
                key = (
                    f"{self.prefix}results/shard-{shard:04d}/"
                    f"{safe_worker}/{sequence:08d}.json"
                )
                # Create-if-absent: another backend instance sharing our
                # worker id may own this sequence slot already; bump and
                # retry until a fresh slot accepts the record.  Records are
                # immutable once written, so this never overwrites.
                if self.store.put(key, body, if_absent=True) is not None:
                    self._record_append()
                    break

    def iter_records(self, shard: int) -> Iterator[Dict[str, object]]:
        for key in self.store.keys(f"{self.prefix}results/shard-{shard:04d}/"):
            current = self.store.get(key)
            if current is None:
                continue  # deleted mid-scan
            record = parse_json_object(current[0])
            if record is not None:
                yield record

    # -- manifest ------------------------------------------------------------
    def _manifest_key(self) -> str:
        return f"{self.prefix}grid.json"

    def read_manifest(self) -> Optional[Dict[str, object]]:
        current = self.store.get(self._manifest_key())
        if current is None:
            return None
        return json.loads(current[0])

    def write_manifest(self, manifest: Dict[str, object]) -> bool:
        body = json.dumps(manifest, indent=2, sort_keys=True)
        return self.store.put(self._manifest_key(), body, if_absent=True) is not None


_REGISTRY_LOCK = threading.Lock()
_FAKE_STORES: Dict[str, LocalObjectStore] = {}


def fake_object_store(bucket: str) -> LocalObjectStore:
    """The process-wide shared :class:`LocalObjectStore` for a fake bucket.

    ``--backend fake-object://bucket/prefix`` resolves its bucket here, so
    every component of one process sees the same objects.
    """
    with _REGISTRY_LOCK:
        store = _FAKE_STORES.get(bucket)
        if store is None:
            store = LocalObjectStore()
            _FAKE_STORES[bucket] = store
        return store
