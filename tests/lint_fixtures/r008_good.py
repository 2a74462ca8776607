"""R008 negative fixture: compliant backends and out-of-scope classes."""

from pathlib import Path

from repro.faas import backends
from repro.faas.backends import GridBackend


class CompliantBackend(GridBackend):
    """Full storage protocol; the extra keyword-only option is allowed."""

    def __init__(self):
        self._leases = {}
        self._records = {}
        self._manifest = None

    def read_lease(self, fingerprint):
        return self._leases.get(fingerprint)

    def create_lease(self, fingerprint, staged, *, note=None):
        return self._leases.setdefault(fingerprint, staged) is staged

    def replace_lease(self, fingerprint, staged, expected):
        self._leases[fingerprint] = staged
        return True

    def delete_lease(self, fingerprint, expected):
        return self._leases.pop(fingerprint, None) is not None

    def lease_keys(self):
        return sorted(self._leases)

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

    def read_lease(self, fingerprint):
        return None

    def create_lease(self, fingerprint, staged):
        return not (self.root / fingerprint).exists()

    def replace_lease(self, fingerprint, staged, expected):
        (self.root / fingerprint).write_text(str(staged))
        return True

    def delete_lease(self, fingerprint, expected):
        return False

    def lease_keys(self):
        return []

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
