"""R008 negative fixture: compliant backends and out-of-scope classes."""

from pathlib import Path

from repro.faas import backends
from repro.faas.backends import GridBackend


class CompliantBackend(GridBackend):
    """Full protocol; the extra keyword-only option on claim_many is allowed."""

    def __init__(self):
        self._leases = {}
        self._records = {}
        self._manifest = None

    def claim_many(self, fingerprints, worker_id, ttl_s, *, steal=False):
        self._leases.update(dict.fromkeys(fingerprints, worker_id))
        return [True] * len(fingerprints)

    def renew(self, fingerprint, worker_id, ttl_s):
        return self._leases.get(fingerprint) == worker_id

    def mark_done_many(self, fingerprints, worker_id):
        self._leases.update(dict.fromkeys(fingerprints, "done"))

    def release(self, fingerprint, worker_id):
        self._leases.pop(fingerprint, None)

    def active(self):
        return {fp: {"worker": who} for fp, who in self._leases.items()}

    def append_records(self, shard, worker_id, lines):
        self._records.setdefault(shard, []).extend(lines)

    def iter_records(self, shard):
        return iter(self._records.get(shard, []))

    def read_manifest(self):
        return self._manifest

    def write_manifest(self, manifest):
        if self._manifest is not None:
            return False
        self._manifest = manifest
        return True


class FileBackend(backends.GridBackend):
    """The sanctioned filesystem implementation may use Path/open freely."""

    def __init__(self, root):
        self.root = Path(root)

    def claim_many(self, fingerprints, worker_id, ttl_s):
        return [not (self.root / fingerprint).exists() for fingerprint in fingerprints]

    def renew(self, fingerprint, worker_id, ttl_s):
        return True

    def mark_done_many(self, fingerprints, worker_id):
        for fingerprint in fingerprints:
            (self.root / fingerprint).write_text(worker_id)

    def release(self, fingerprint, worker_id):
        pass

    def active(self):
        return {}

    def append_records(self, shard, worker_id, lines):
        with open(self.root / f"shard-{shard}.jsonl", "a") as handle:
            handle.write("{}\n")

    def iter_records(self, shard):
        return iter(())

    def read_manifest(self):
        return None

    def write_manifest(self, manifest):
        return True


class NotABackend:
    """No GridBackend base: free to read files however it likes."""

    def load(self, path):
        with open(path) as handle:
            return handle.read()
