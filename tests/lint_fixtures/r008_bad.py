"""R008 positive fixture: protocol gaps, signature drift, filesystem leaks."""

import os
from pathlib import Path

from repro.faas.backends import GridBackend


class IncompleteBackend(GridBackend):
    """Misses renew and active entirely: two findings."""

    def claim_many(self, fingerprints, worker_id, ttl_s):
        return True

    def mark_done_many(self, fingerprints, worker_id):
        pass

    def release(self, fingerprint, worker_id):
        pass

    def append_records(self, shard, worker_id, lines):
        pass

    def iter_records(self, shard):
        return iter(())

    def read_manifest(self):
        return None

    def write_manifest(self, manifest):
        return True


class MismatchedBackend(GridBackend):
    """Full method set, but claim_many renamed its params and append_records
    dropped worker_id: two findings."""

    def claim_many(self, fps, who, lease_seconds):
        return True

    def renew(self, fingerprint, worker_id, ttl_s):
        return True

    def mark_done_many(self, fingerprints, worker_id):
        pass

    def release(self, fingerprint, worker_id):
        pass

    def active(self):
        return {}

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

    def claim_many(self, fingerprints, worker_id, ttl_s):
        Path("leases").write_text(fingerprints[0])  # pathlib leak
        return [True]

    def renew(self, fingerprint, worker_id, ttl_s):
        return True

    def mark_done_many(self, fingerprints, worker_id):
        pass

    def release(self, fingerprint, worker_id):
        with open("leases.json") as handle:  # open() leak
            handle.read()

    def active(self):
        return {name: {} for name in os.listdir("leases")}  # os leak

    def append_records(self, shard, worker_id, lines):
        pass

    def iter_records(self, shard):
        return iter(())

    def read_manifest(self):
        return None

    def write_manifest(self, manifest):
        return True
