"""R008 positive fixture: protocol gaps, signature drift, filesystem leaks."""

import os
from pathlib import Path

from repro.faas.backends import GridBackend


class IncompleteBackend(GridBackend):
    """Misses create_lease and lease_keys entirely: two findings."""

    def read_lease(self, fingerprint):
        return None

    def replace_lease(self, fingerprint, staged, expected):
        return True

    def delete_lease(self, fingerprint, expected):
        return True

    def append_records(self, shard, worker_id, lines):
        pass

    def iter_records(self, shard):
        return iter(())

    def read_manifest(self):
        return None

    def write_manifest(self, manifest):
        return True


class MismatchedBackend(GridBackend):
    """Full method set, but replace_lease renamed its params and
    append_records dropped worker_id: two findings."""

    def read_lease(self, fingerprint):
        return None

    def create_lease(self, fingerprint, staged):
        return True

    def replace_lease(self, key, document, version):
        return True

    def delete_lease(self, fingerprint, expected):
        return True

    def lease_keys(self):
        return []

    def append_records(self, shard, lines):
        pass

    def iter_records(self, shard):
        return iter(())

    def read_manifest(self):
        return None

    def write_manifest(self, manifest):
        return True


class LeakyBackend(GridBackend):
    """Protocol-complete but smuggles the filesystem back in: three findings."""

    def read_lease(self, fingerprint):
        return None

    def create_lease(self, fingerprint, staged):
        Path("leases").write_text(fingerprint)  # pathlib leak
        return True

    def replace_lease(self, fingerprint, staged, expected):
        return True

    def delete_lease(self, fingerprint, expected):
        with open("leases.json") as handle:  # open() leak
            handle.read()
        return True

    def lease_keys(self):
        return os.listdir("leases")  # os leak

    def append_records(self, shard, worker_id, lines):
        pass

    def iter_records(self, shard):
        return iter(())

    def read_manifest(self):
        return None

    def write_manifest(self, manifest):
        return True
