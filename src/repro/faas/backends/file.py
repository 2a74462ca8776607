"""Shared-filesystem grid backend: the original run-directory semantics.

This is the PR-4 coordination layer, verbatim, behind the
:class:`~repro.faas.backends.base.GridBackend` protocol: atomic hard-link
claims, tombstone-rename reclaims, per-worker JSONL result segments, and an
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
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..results import ResultLog, parse_json_object, write_in_directory
from .base import GridBackend, _batch, _renewable, _safe_worker_id, _wall_clock

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

    A claim batch writes one uniquely named ``{worker, deadline}`` file and
    atomically hard-links it onto each ``<fingerprint>.lease`` -- ``link(2)``
    fails if the target exists, so exactly one contender wins each cell no
    matter how many workers race.  Reclaiming an expired lease first renames
    it onto a unique tombstone; the rename succeeds for exactly one
    contender, so two workers never both adopt the same crashed worker's
    cell.  A release sweeps the same way and puts back a rival's reclaim.
    The leases of one batch share an inode, so a lease is never written in
    place: renewals and done markers are fresh files renamed over it.

    A worker that merely stalls past its TTL is *not* fenced: its cell may be
    re-executed elsewhere.  That is safe here -- cells are deterministic and
    the merge step deduplicates by fingerprint -- so the backend prefers
    availability over exclusivity.

    A finished cell's lease becomes a permanent *done marker*
    (:meth:`mark_done_many`): unlike a released or expired lease it can
    never be claimed again, so workers whose startup scan predates the
    completion do not re-execute cells that are already in the logs.

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

    # -- leases --------------------------------------------------------------
    def _lease_path(self, fingerprint: str) -> Path:
        return self.leases_dir / f"{fingerprint}.lease"

    def _write_shared(self, worker_id: str, document: Dict[str, object]) -> Path:
        """A private temp file holding ``document``, to link onto a batch of leases."""
        temp = self.leases_dir / f".batch.{worker_id}.{_unique_token()}.tmp"
        text = json.dumps(document)
        write_in_directory(self.leases_dir, lambda: temp.write_text(text))
        return temp

    def _claim_document(self, worker_id: str, ttl_s: float) -> Dict[str, object]:
        return {"worker": worker_id, "deadline": self.clock() + ttl_s}

    def claim_many(
        self, fingerprints: Sequence[str], worker_id: str, ttl_s: float
    ) -> List[bool]:
        if not _batch(fingerprints):
            return []
        shared = self._write_shared(worker_id, self._claim_document(worker_id, ttl_s))
        try:
            return [self._claim(fingerprint, shared) for fingerprint in fingerprints]
        finally:
            shared.unlink(missing_ok=True)

    def _claim(self, fingerprint: str, shared: Path) -> bool:
        """Link ``shared`` onto one lease; reclaim it if expired."""
        path = self._lease_path(fingerprint)
        try:
            os.link(shared, path)
            self._record_op("claim")
            return True
        except FileExistsError:
            pass
        holder = self.read_lease(fingerprint)
        if holder is not None and holder.get("done"):
            self._record_op("claim_conflict")
            return False  # the cell is finished and logged; never re-claim
        if holder is not None and float(holder.get("deadline", 0)) >= self.clock():
            self._record_op("claim_conflict")
            return False  # live lease held by someone else
        # Expired or unreadable: tombstone-rename it out of the way; exactly
        # one contender's rename succeeds.  A rival's fresh claim (or done
        # marker) linked since our read is restored, and we back off.
        if self._sweep(fingerprint, lambda swept: (
            swept.get("done") or float(swept.get("deadline", 0)) >= self.clock()
        )):
            try:
                os.link(shared, path)
                self._record_op("reclaim")
                return True
            except FileExistsError:
                pass  # a rival claimed between the rename and link
        self._record_op("claim_conflict")
        return False

    def _sweep(self, fingerprint: str, keep: Callable[[Dict[str, object]], object]) -> bool:
        """Tombstone-rename a lease away unless what the rename took is ``keep``.

        True when the slot was emptied (or already was).  A kept lease is
        linked back; if a third contender took the slot in between, the
        kept lease is lost -- its holder's next renew fails and the cell may
        run twice, which the merge deduplicates.
        """
        path = self._lease_path(fingerprint)
        tombstone = self.leases_dir / f".{fingerprint}.swept.{_unique_token()}"
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return True  # the holder released, or a rival tombstoned it first
        try:
            swept = parse_json_object(tombstone.read_bytes())
        except OSError:
            swept = None
        restore = swept is not None and bool(keep(swept))
        if restore:
            try:
                os.link(tombstone, path)
            except FileExistsError:
                pass  # a third claim already took the slot
        tombstone.unlink(missing_ok=True)
        return not restore

    def read_lease(self, fingerprint: str) -> Optional[Dict[str, object]]:
        try:
            document = json.loads(self._lease_path(fingerprint).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return document if isinstance(document, dict) else None

    def renew(self, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
        if not _renewable(self.read_lease(fingerprint), worker_id):
            self._record_op("renew_lost")
            return False
        # A fresh file, not an in-place write: the old inode may back
        # batch-mates' leases too.
        temp = self._write_shared(worker_id, self._claim_document(worker_id, ttl_s))
        os.replace(temp, self._lease_path(fingerprint))
        self._record_op("renew")
        return True

    def mark_done_many(self, fingerprints: Sequence[str], worker_id: str) -> None:
        if not _batch(fingerprints):
            return
        shared = self._write_shared(worker_id, {"worker": worker_id, "done": True})
        try:
            for fingerprint in fingerprints:
                # link + rename: link(2) cannot replace an existing lease,
                # rename(2) replaces it atomically.
                temp = shared.with_name(f".{fingerprint}{shared.name}")
                os.link(shared, temp)
                os.replace(temp, self._lease_path(fingerprint))
                self._record_op("mark_done")
        finally:
            shared.unlink(missing_ok=True)

    def release(self, fingerprint: str, worker_id: str) -> None:
        if not _renewable(self.read_lease(fingerprint), worker_id):
            return  # a rival's lease, or a done marker: never ours to drop
        # Not a plain unlink: a rival may reclaim the lease, or a worker
        # sharing our id finish the cell, after our read, so the sweep puts
        # back whatever is not our live lease.
        if self._sweep(fingerprint, lambda swept: not _renewable(swept, worker_id)):
            self._record_op("release")

    def active(self) -> Dict[str, Dict[str, object]]:
        now = self.clock()
        leases: Dict[str, Dict[str, object]] = {}
        if not self.leases_dir.is_dir():
            return leases
        for path in sorted(self.leases_dir.glob("*.lease")):
            try:
                document = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(document, dict):
                continue
            if float(document.get("deadline", 0)) >= now:
                leases[path.stem] = document
        return leases

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
