"""Simulated cloud object storage (S3 / Cloud Storage / Blob Storage).

Benchmark functions move their large inputs and outputs through object
storage.  The simulator models each platform's storage with a per-request
latency, a per-function bandwidth, and -- crucial for reproducing the Azure
behaviour of Figure 9a -- an *aggregate* bandwidth shared by all concurrent
transfers of one deployment.  When twenty Azure functions download 128 MB each
at the same time, the shared-bandwidth term dominates and the workflow-level
overhead explodes, exactly as the paper measures.

The store also keeps the actual object bytes (or just their sizes for large
synthetic blobs) so benchmark code can round-trip data and integration tests
can verify data flow end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..rng import RandomStreams


class StorageError(Exception):
    """Raised for invalid storage operations (missing keys, negative sizes)."""


@dataclass(frozen=True)
class StorageProfile:
    """Performance characteristics of one platform's object storage."""

    #: Fixed per-request latency in seconds (connection + first byte).
    request_latency_s: float
    #: Sustained bandwidth available to a single function, bytes per second.
    per_function_bandwidth_bps: float
    #: Aggregate bandwidth shared by all concurrent transfers of the deployment.
    aggregate_bandwidth_bps: float
    #: Relative jitter (log-normal sigma) applied to each transfer.
    jitter_sigma: float = 0.1


@dataclass
class StoredObject:
    """One object in the bucket: payload (optional) and its size."""

    key: str
    size_bytes: int
    data: Optional[bytes] = None
    version: int = 1


@dataclass
class TransferRecord:
    """Accounting entry for one upload or download (used by billing and tests)."""

    key: str
    size_bytes: int
    operation: str
    duration_s: float
    started_at: float


class ObjectStorage:
    """A simulated bucket with platform-specific transfer performance."""

    def __init__(
        self,
        profile: StorageProfile,
        streams: RandomStreams,
        platform: str,
    ) -> None:
        self._profile = profile
        self._streams = streams
        self._platform = platform
        self._objects: Dict[str, StoredObject] = {}
        self.transfers: list[TransferRecord] = []

    # ------------------------------------------------------------------ data
    def put_object(self, key: str, size_bytes: int, data: Optional[bytes] = None) -> None:
        """Store object metadata (and optionally real bytes) without timing cost.

        Used by the harness to stage benchmark input data before an experiment;
        functions must use :meth:`upload_duration` / :meth:`download_duration`
        through their invocation context to incur simulated transfer time.
        """
        if size_bytes < 0:
            raise StorageError("object size must be non-negative")
        existing = self._objects.get(key)
        version = existing.version + 1 if existing else 1
        self._objects[key] = StoredObject(key=key, size_bytes=size_bytes, data=data, version=version)

    def get_object(self, key: str) -> StoredObject:
        if key not in self._objects:
            raise StorageError(f"object {key!r} does not exist")
        return self._objects[key]

    def exists(self, key: str) -> bool:
        return key in self._objects

    def delete_object(self, key: str) -> None:
        self._objects.pop(key, None)

    def list_keys(self, prefix: str = "") -> list[str]:
        return sorted(key for key in self._objects if key.startswith(prefix))

    def total_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self._objects.values())

    # ---------------------------------------------------------------- timing
    def transfer_duration(
        self,
        size_bytes: int,
        operation: str,
        concurrency: Optional[int] = None,
        now: float = 0.0,
        key: str = "",
    ) -> float:
        """Simulated duration of moving ``size_bytes`` to or from the bucket.

        ``concurrency`` is the number of transfers running at the same time;
        the effective bandwidth is the minimum of the per-function limit and
        the fair share of the aggregate limit.
        """
        if size_bytes < 0:
            raise StorageError("transfer size must be non-negative")
        active = max(1, concurrency if concurrency is not None else 1)
        fair_share = self._profile.aggregate_bandwidth_bps / active
        bandwidth = min(self._profile.per_function_bandwidth_bps, fair_share)
        base = self._profile.request_latency_s + size_bytes / max(1.0, bandwidth)
        duration = self._streams.lognormal_around(
            f"storage:{self._platform}:{operation}:{key}", base, self._profile.jitter_sigma
        )
        self.transfers.append(
            TransferRecord(
                key=key,
                size_bytes=size_bytes,
                operation=operation,
                duration_s=duration,
                started_at=now,
            )
        )
        return duration

    def download_duration(self, size_bytes: int, **kwargs: object) -> float:
        return self.transfer_duration(size_bytes, "download", **kwargs)  # type: ignore[arg-type]

    def upload_duration(self, size_bytes: int, **kwargs: object) -> float:
        return self.transfer_duration(size_bytes, "upload", **kwargs)  # type: ignore[arg-type]

    # --------------------------------------------------------------- billing
    def operation_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {"download": 0, "upload": 0}
        for record in self.transfers:
            counts[record.operation] = counts.get(record.operation, 0) + 1
        return counts
