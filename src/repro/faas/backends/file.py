"""Shared-filesystem grid backend: the original run-directory semantics.

The medium behind the :class:`~repro.faas.backends.base.GridBackend`
protocol's lease storage operations -- hard-link creates, tombstone-rename
replaces and deletes -- plus per-worker JSONL result segments and an
exclusively-linked manifest.  Any directory workers can all reach (local
disk, NFS, a synced volume) works; every operation is a plain file read,
append, link, or rename, so there is no coordinator process.

Layout under the backend root::

    ROOT/
      grid.json                   campaign spec + shard count + versions
      leases/<fingerprint>.lease  live claims: {worker, deadline}; done
                                  markers: {worker, done} (hard links of
                                  one file per batch)
      results/shard-0000.<worker>.jsonl   streaming per-cell result documents

This module is the *only* place in the backends package allowed to touch the
filesystem (lint rule R008 enforces that): every other backend keeps its
state in its own medium.
"""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..results import ResultLog, parse_json_object, write_in_directory
from .base import ANY, GridBackend, _batch, _safe_worker_id, _wall_clock

#: The run manifest's file name under the backend root.
MANIFEST_NAME = "grid.json"


def _unique_token() -> str:
    """Collision-proof token for scratch-file names (claims, tombstones).

    Pure filesystem plumbing: tokens keep racing writers from colliding on
    temp paths and never reach results, fingerprints, or logs.
    """
    return uuid.uuid4().hex  # lint: allow[R001] -- scratch-path uniqueness only, never in results


class FileBackend(GridBackend):
    """File-based TTL leases and result logs over a shared run directory.

    Lease storage over ``leases/<fingerprint>.lease``: *create if absent*
    hard-links a staged file onto the lease -- ``link(2)`` fails if the
    target exists, so exactly one contender wins -- and a batch stages one
    file for all its leases, which therefore share an inode and are never
    written in place.  *Replace* or *delete if unchanged* renames the lease
    onto a unique tombstone (exactly one contender's rename succeeds) and
    compares what it took with the expected document, linking a changed
    lease back; a replace then links the staged file in.  Marking done,
    unconditional, links the staged file to a temp name and renames that
    over the lease.  A create can take the slot a tombstone emptied before
    the replace's link or the put-back lands; that lease then wins, and the
    cell may run twice -- safe, like a worker that stalls past its TTL:
    cells are deterministic and the merge deduplicates by fingerprint.

    Construction never touches the disk -- opening a missing run must fail
    cleanly and a dry run must not create directories -- so directories are
    made lazily: a write that finds its directory missing creates it and
    retries once, so a deleted ``leases/`` or ``results/`` heals.
    """

    kind = "file"

    def __init__(self, root: Union[str, Path], clock=None) -> None:
        self.root = Path(root)
        self.clock = clock if clock is not None else _wall_clock
        self.leases_dir = self.root / "leases"
        self.results_dir = self.root / "results"

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def describe(self) -> str:
        return str(self.root)

    # -- lease storage -------------------------------------------------------
    def _lease_path(self, fingerprint: str) -> Path:
        return self.leases_dir / f"{fingerprint}.lease"

    @staticmethod
    def _read(path: Path) -> Optional[Dict[str, object]]:
        try:
            return parse_json_object(path.read_bytes())
        except OSError:
            return None

    def read_lease(self, fingerprint: str) -> Optional[Dict[str, object]]:
        return self._read(self._lease_path(fingerprint))

    @contextmanager
    def staged_lease(self, document: Dict[str, object], worker_id: str) -> Iterator[Path]:
        shared = self.leases_dir / f".batch.{worker_id}.{_unique_token()}.tmp"
        text = json.dumps(document)
        write_in_directory(self.leases_dir, lambda: shared.write_text(text))
        try:
            yield shared
        finally:
            shared.unlink(missing_ok=True)

    def create_lease(self, fingerprint: str, staged: Path) -> bool:
        try:
            os.link(staged, self._lease_path(fingerprint))
        except FileExistsError:
            return False
        return True

    def replace_lease(self, fingerprint: str, staged: Path, expected: object) -> bool:
        if expected is not ANY:
            return self._take(fingerprint, expected) and self.create_lease(fingerprint, staged)
        # link + rename: link(2) cannot replace an existing lease, rename(2)
        # replaces it atomically.
        temp = staged.with_name(f".{fingerprint}{staged.name}")
        os.link(staged, temp)
        os.replace(temp, self._lease_path(fingerprint))
        return True

    def delete_lease(self, fingerprint: str, expected: object) -> bool:
        return self._take(fingerprint, expected)

    def _take(self, fingerprint: str, expected: object) -> bool:
        """Tombstone-rename the lease away if it still reads ``expected``."""
        path = self._lease_path(fingerprint)
        tombstone = self.leases_dir / f".{fingerprint}.swept.{_unique_token()}"
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return expected is None
        taken = self._read(tombstone)
        if taken != expected:
            try:
                os.link(tombstone, path)
            except FileExistsError:
                pass  # a third contender took the slot
        tombstone.unlink(missing_ok=True)
        return taken == expected

    def lease_keys(self) -> List[str]:
        if not self.leases_dir.is_dir():
            return []
        return sorted(path.stem for path in self.leases_dir.glob("*.lease"))

    # -- result records ------------------------------------------------------
    def shard_log(self, shard: int, worker_id: str) -> ResultLog:
        """One worker's private append segment of a shard's result stream.

        Each worker appends to its own file, so no two processes -- let alone
        two hosts over NFS, where ``O_APPEND`` is not atomic -- ever write
        the same log file.  Readers fold all of a shard's segments together
        (:meth:`iter_records`); the merge is order-independent, so the
        segmentation is invisible to consumers.
        """
        return ResultLog(
            self.results_dir / f"shard-{shard:04d}.{_safe_worker_id(worker_id)}.jsonl"
        )

    def append_records(self, shard: int, worker_id: str, lines: Sequence[str]) -> None:
        self.shard_log(shard, worker_id).extend(_batch(lines))
        self._record_append(len(lines))

    def iter_records(self, shard: int) -> Iterator[Dict[str, object]]:
        if not self.results_dir.is_dir():
            return
        for path in sorted(self.results_dir.glob(f"shard-{shard:04d}.*.jsonl")):
            yield from ResultLog(path)

    # -- manifest ------------------------------------------------------------
    def read_manifest(self) -> Optional[Dict[str, object]]:
        try:
            text = self.manifest_path.read_text()
        except OSError:
            return None
        return json.loads(text)

    def write_manifest(self, manifest: Dict[str, object]) -> bool:
        if self.manifest_path.exists():
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        temp = self.root / f".{MANIFEST_NAME}.{_unique_token()}.tmp"
        temp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        try:
            # Exclusive link, like a lease claim: when two hosts race to
            # initialise the same fresh directory, exactly one manifest wins
            # and the loser validates against it instead of replacing it.
            os.link(temp, self.manifest_path)
        except FileExistsError:
            return False
        finally:
            temp.unlink(missing_ok=True)
        return True
