"""Fault-injection tests for the pluggable grid coordination backends.

Every backend must honour the same protocol invariants (claim exclusivity,
one-winner expiry reclaim, done permanence, append durability, manifest
exclusivity) and -- the acceptance bar -- produce a ``merge_run`` document
bit-identical to the single-process ``run_campaign``, whatever faults the
run suffered along the way.  The suite parametrizes the invariants over
both shipped backends with an injected clock, so expiry races are driven
by advancing time, never by sleeping.
"""

import json
import os
import sys
import threading

import pytest

from repro.analysis.artifacts import cell_priorities, plan_artifacts
from repro.faas.backends import FileBackend, GridBackend, MemoryBackend, create_backend
from repro.faas.campaign import CampaignSpec, run_campaign
from repro.faas.grid import (
    GridRun, autoscale_hint, grid_status, merge_run, plan_shards, run_grid_worker,
)
from repro.faas.results import encode_document
from repro.observability import MetricsRegistry, use_registry

FP_A = "a" * 64
FP_B = "b" * 64


def tiny_spec(**overrides) -> CampaignSpec:
    """4 cells that split 3/1 over two planner shards (same as test_grid)."""
    params = dict(
        benchmarks=("function_chain",),
        platforms=("aws", "azure"),
        seeds=(0, 1),
        burst_size=2,
    )
    params.update(overrides)
    return CampaignSpec(**params)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def claim(backend: GridBackend, fingerprint: str, worker_id: str, ttl_s: float) -> bool:
    """One fingerprint through the batch claim."""
    [won] = backend.claim_many([fingerprint], worker_id, ttl_s)
    return won


def lines(*documents) -> list:
    """Records as ``append_records`` takes them: encoded lines."""
    return [encode_document(document) for document in documents]


class WorkerCrash(BaseException):
    """A worker process dying: not an ``Exception``, so nothing recovers it."""


def crash(*args, **kwargs):
    raise WorkerCrash


class FakeClock:
    """Injectable backend clock: expiry by advancing time, not sleeping."""

    def __init__(self, now: float = 1_000_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(params=["file", "memory"])
def backend(request, tmp_path) -> GridBackend:
    """One of each shipped backend, fresh, on a fake clock."""
    clock = FakeClock()
    if request.param == "file":
        return FileBackend(tmp_path / "run", clock=clock)
    return MemoryBackend(name="test", clock=clock)


class TestLeaseInvariants:
    def test_claim_is_exclusive_until_expiry(self, backend):
        assert claim(backend, FP_A, "a", 30.0)
        assert not claim(backend, FP_A, "b", 30.0)
        backend.clock.advance(29.0)
        assert not claim(backend, FP_A, "b", 30.0)  # still live
        backend.clock.advance(2.0)
        assert claim(backend, FP_A, "b", 30.0)  # expired: reclaimable

    def test_expired_reclaim_has_exactly_one_winner(self, backend):
        assert claim(backend, FP_A, "crashed", 30.0)
        backend.clock.advance(31.0)
        winners = [claim(backend, FP_A, rival, 300.0) for rival in ("r1", "r2")]
        assert winners == [True, False]  # r1's fresh lease fences r2 out

    def test_renew_is_fenced_after_reclaim(self, backend):
        assert claim(backend, FP_A, "slow", 30.0)
        assert backend.renew(FP_A, "slow", 30.0)  # ours, still live
        backend.clock.advance(31.0)
        assert claim(backend, FP_A, "rival", 300.0)
        # The stalled worker must not clobber the reclaimer's live claim.
        assert not backend.renew(FP_A, "slow", 30.0)
        assert backend.read_lease(FP_A)["worker"] == "rival"

    def test_done_markers_are_permanent(self, backend):
        assert claim(backend, FP_A, "a", 30.0)
        backend.mark_done_many([FP_A], "a")
        assert not claim(backend, FP_A, "b", 30.0)
        backend.clock.advance(1_000_000.0)
        assert not claim(backend, FP_A, "b", 30.0)  # no TTL on done

    def test_renew_never_revives_a_done_marker(self, backend):
        assert claim(backend, FP_A, "a", 30.0)
        backend.mark_done_many([FP_A], "a")
        with use_registry(MetricsRegistry()) as registry:
            assert not backend.renew(FP_A, "a", 30.0)
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend=backend.kind, op="renew_lost") == 1
        assert ops.value(backend=backend.kind, op="renew") == 0
        assert backend.read_lease(FP_A)["done"] is True
        assert "deadline" not in backend.read_lease(FP_A)
        backend.clock.advance(31.0)  # a revived lease would have expired
        assert not claim(backend, FP_A, "b", 30.0)

    def test_release_reopens_only_for_the_holder(self, backend):
        assert claim(backend, FP_A, "a", 300.0)
        backend.release(FP_A, "bystander")  # not the holder: no-op
        assert not claim(backend, FP_A, "b", 300.0)
        backend.release(FP_A, "a")
        assert claim(backend, FP_A, "b", 300.0)

    def test_release_by_the_finishing_worker_id_keeps_the_done_marker(self, backend):
        """Regression: a release under the worker id that wrote the done
        marker (two processes sharing one --worker-id) dropped it, so the
        finished cell could be claimed and run again."""
        assert claim(backend, FP_A, "w", 30.0)
        backend.mark_done_many([FP_A], "w")
        with use_registry(MetricsRegistry()) as registry:
            backend.release(FP_A, "w")
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend=backend.kind, op="release") == 0
        assert backend.read_lease(FP_A)["done"] is True
        assert not claim(backend, FP_A, "other", 30.0)

    def test_release_of_an_unclaimed_cell_is_a_no_op(self, backend):
        with use_registry(MetricsRegistry()) as registry:
            backend.release(FP_A, "a")
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend=backend.kind, op="release") == 0
        assert backend.read_lease(FP_A) is None
        assert claim(backend, FP_A, "b", 30.0)

    def test_a_stale_release_after_a_rival_finished_keeps_the_done_marker(self, backend):
        """The first holder's lease expired, a rival reclaimed and finished
        the cell; the first holder's late release must leave it done."""
        assert claim(backend, FP_A, "slow", 30.0)
        backend.clock.advance(31.0)
        assert claim(backend, FP_A, "rival", 30.0)
        backend.mark_done_many([FP_A], "rival")
        backend.release(FP_A, "slow")
        assert backend.read_lease(FP_A)["done"] is True
        assert not claim(backend, FP_A, "third", 30.0)

    def test_active_tracks_live_leases_only(self, backend):
        assert claim(backend, FP_A, "a", 30.0)
        assert claim(backend, FP_B, "b", 300.0)
        assert set(backend.active()) == {FP_A, FP_B}
        backend.clock.advance(31.0)  # FP_A expires, FP_B lives on
        assert set(backend.active()) == {FP_B}
        backend.mark_done_many([FP_B], "b")  # done markers are not active leases
        assert backend.active() == {}


class TestBatchLeases:
    """The batch calls decide every cell on its own, on every backend."""

    def test_racing_overlapping_batches_win_each_fingerprint_once(self, backend):
        """Threads race claim_many over overlapping batches of fresh and
        expired leases: every fingerprint has exactly one winner, and the
        lease names it."""
        fingerprints = [f"{index:064x}" for index in range(12)]
        for fingerprint in fingerprints[::2]:  # crashed holders, about to expire
            assert claim(backend, fingerprint, "crashed", 30.0)
        backend.clock.advance(31.0)
        workers = [f"w{index}" for index in range(4)]
        barrier = threading.Barrier(len(workers))
        won = {}

        def race(index, worker):
            # Each worker's batch: 8 of the 12 cells, rotated and reversed
            # for odd workers, so every pair of batches overlaps.
            batch = (fingerprints[3 * index:] + fingerprints[:3 * index])[:8]
            batch = batch[::-1] if index % 2 else batch
            barrier.wait()
            won[worker] = dict(zip(batch, backend.claim_many(batch, worker, 300.0)))

        threads = [threading.Thread(target=race, args=pair) for pair in enumerate(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-claim as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(won) == workers
        for fingerprint in fingerprints:
            winners = [w for w in workers if won[w].get(fingerprint)]
            contenders = [w for w in workers if fingerprint in won[w]]
            assert len(winners) == 1, (fingerprint, winners, contenders)
            assert backend.read_lease(fingerprint)["worker"] == winners[0]

    def test_a_mixed_batch_is_decided_per_cell(self, backend):
        free, live, expired, done = (f"{index:064x}" for index in range(4))
        assert backend.claim_many([expired], "crashed", 10.0) == [True]
        assert backend.claim_many([live], "other", 300.0) == [True]
        assert backend.claim_many([done], "finisher", 300.0) == [True]
        backend.mark_done_many([done], "finisher")
        backend.clock.advance(11.0)
        with use_registry(MetricsRegistry()) as registry:
            verdicts = backend.claim_many([free, live, expired, done], "me", 60.0)
        assert verdicts == [True, False, True, False]
        ops = registry.counter("repro_grid_backend_ops_total")
        assert [ops.value(backend=backend.kind, op=op)
                for op in ("claim", "reclaim", "claim_conflict")] == [1, 1, 2]
        assert {fp: backend.read_lease(fp)["worker"]
                for fp in (free, live, expired, done)} == {
            free: "me", live: "other", expired: "me", done: "finisher"}
        assert set(backend.active()) == {free, live, expired}

    def test_renewing_one_batch_mate_leaves_the_others_alone(self, backend):
        """No in-place lease writes: a renew rewrites its own lease only,
        even where one file backs every lease of the batch."""
        batch = [FP_A, FP_B, "c" * 64]
        claimed_at = backend.clock()
        assert backend.claim_many(batch, "w", 60.0) == [True, True, True]
        backend.clock.advance(10.0)
        assert backend.renew(FP_B, "w", 60.0)
        assert [backend.read_lease(fp)["deadline"] for fp in batch] == [
            claimed_at + 60.0, claimed_at + 70.0, claimed_at + 60.0]
        backend.mark_done_many([FP_A], "w")
        assert backend.read_lease(FP_A)["done"] is True
        assert [backend.read_lease(fp)["deadline"] for fp in batch[1:]] == [
            claimed_at + 70.0, claimed_at + 60.0]

    def test_done_markers_of_a_batch_are_permanent(self, backend):
        batch = [FP_A, FP_B]
        assert backend.claim_many(batch, "a", 30.0) == [True, True]
        with use_registry(MetricsRegistry()) as registry:
            backend.mark_done_many(batch, "a")
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend=backend.kind, op="mark_done") == 2
        backend.clock.advance(1_000_000.0)
        assert backend.claim_many(batch, "b", 30.0) == [False, False]
        assert not backend.renew(FP_A, "a", 30.0)
        assert backend.active() == {}
        assert all(backend.read_lease(fp)["done"] is True for fp in batch)

    def test_empty_batches_are_no_ops(self, backend):
        assert backend.claim_many([], "w", 30.0) == []
        backend.mark_done_many([], "w")
        backend.append_records(0, "w", [])
        assert backend.active() == {} and list(backend.iter_records(0)) == []

    def test_one_string_is_not_a_batch(self, backend):
        with pytest.raises(TypeError):
            backend.claim_many(FP_A, "w", 30.0)
        with pytest.raises(TypeError):
            backend.mark_done_many(FP_A, "w")
        with pytest.raises(TypeError):
            backend.append_records(0, "w", encode_document({"fingerprint": FP_A}))
        assert backend.read_lease(FP_A) is None


class TestFileRelease:
    def test_a_rival_reclaim_between_read_and_removal_survives(self, tmp_path):
        """Regression: release read the holder, then unlinked the path; a
        rival reclaiming the expired lease in between lost its live lease."""
        clock = FakeClock()
        stale = FileBackend(tmp_path, clock=clock)
        rival = FileBackend(tmp_path, clock=clock)
        assert claim(stale, FP_A, "stale", 30.0)
        clock.advance(31.0)
        read_lease = stale.read_lease

        def read_then_rival_reclaims(fingerprint):
            holder = read_lease(fingerprint)
            assert claim(rival, fingerprint, "rival", 300.0)
            return holder

        stale.read_lease = read_then_rival_reclaims
        stale.release(FP_A, "stale")
        assert rival.read_lease(FP_A)["worker"] == "rival"
        assert set(rival.active()) == {FP_A}
        assert sorted(path.name for path in rival.leases_dir.iterdir()) == [f"{FP_A}.lease"]

    def test_a_done_marker_written_between_read_and_removal_survives(self, tmp_path):
        """A process sharing the releaser's worker id finishes the cell after
        the releaser read its live lease: the sweep must put the marker back."""
        clock = FakeClock()
        releaser = FileBackend(tmp_path, clock=clock)
        twin = FileBackend(tmp_path, clock=clock)
        assert claim(releaser, FP_A, "w", 30.0)
        read_lease = releaser.read_lease

        def read_then_twin_finishes(fingerprint):
            holder = read_lease(fingerprint)
            twin.mark_done_many([fingerprint], "w")
            return holder

        releaser.read_lease = read_then_twin_finishes
        releaser.release(FP_A, "w")
        assert twin.read_lease(FP_A)["done"] is True
        assert not claim(twin, FP_A, "other", 30.0)

    def test_a_claim_in_the_emptied_slot_does_not_erase_a_put_back_done_marker(
            self, tmp_path, monkeypatch):
        """Regression: a stale release tombstone-renames a done marker away,
        a third worker's claim lands in the emptied slot, and the put-back
        link failed on it -- the finished cell was then claimed again."""
        clock = FakeClock()
        stale = FileBackend(tmp_path, clock=clock)
        rival = FileBackend(tmp_path, clock=clock)
        third = FileBackend(tmp_path, clock=clock)
        assert claim(stale, FP_A, "stale", 30.0)
        clock.advance(31.0)
        read_lease = stale.read_lease
        rename = os.rename
        third_claims = []

        def rename_then_third_claims(source, target):
            rename(source, target)
            if not third_claims:
                third_claims.append(claim(third, FP_A, "third", 30.0))

        def read_then_rival_finishes(fingerprint):
            holder = read_lease(fingerprint)
            assert claim(rival, fingerprint, "rival", 30.0)
            rival.mark_done_many([fingerprint], "rival")
            # The stale release's tombstone rename is the next rename.
            monkeypatch.setattr(os, "rename", rename_then_third_claims)
            return holder

        stale.read_lease = read_then_rival_finishes
        stale.release(FP_A, "stale")
        monkeypatch.undo()
        assert third_claims == [True]
        assert rival.read_lease(FP_A) == {"worker": "rival", "done": True}
        assert not claim(FileBackend(tmp_path, clock=clock), FP_A, "fourth", 30.0)
        assert sorted(path.name for path in rival.leases_dir.iterdir()) == [f"{FP_A}.lease"]


class TestFileRenew:
    """A renew is a read, a decision, and a replace; a lease changed between
    the read and the replace must refuse the renew, not be overwritten."""

    def test_a_twin_finishing_between_read_and_replace_keeps_the_done_marker(
            self, tmp_path):
        clock = FakeClock()
        renewer = FileBackend(tmp_path, clock=clock)
        twin = FileBackend(tmp_path, clock=clock)
        assert claim(renewer, FP_A, "w", 30.0)
        read_lease = renewer.read_lease

        def read_then_twin_finishes(fingerprint):
            holder = read_lease(fingerprint)
            twin.mark_done_many([fingerprint], "w")
            return holder

        renewer.read_lease = read_then_twin_finishes
        with use_registry(MetricsRegistry()) as registry:
            assert renewer.renew(FP_A, "w", 30.0) is False
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend="file", op="renew_lost") == 1
        assert twin.read_lease(FP_A) == {"worker": "w", "done": True}
        clock.advance(31.0)  # a revived lease would have expired
        assert not claim(twin, FP_A, "other", 30.0)

    def test_a_stale_renew_after_a_rival_reclaimed_and_finished_keeps_the_done_marker(
            self, tmp_path):
        clock = FakeClock()
        stale = FileBackend(tmp_path, clock=clock)
        rival = FileBackend(tmp_path, clock=clock)
        assert claim(stale, FP_A, "stale", 30.0)
        clock.advance(31.0)
        read_lease = stale.read_lease

        def read_then_rival_finishes(fingerprint):
            holder = read_lease(fingerprint)
            assert claim(rival, fingerprint, "rival", 30.0)
            rival.mark_done_many([fingerprint], "rival")
            return holder

        stale.read_lease = read_then_rival_finishes
        assert stale.renew(FP_A, "stale", 30.0) is False
        assert rival.read_lease(FP_A) == {"worker": "rival", "done": True}
        clock.advance(31.0)
        assert not claim(rival, FP_A, "other", 30.0)
        assert sorted(path.name for path in rival.leases_dir.iterdir()) == [f"{FP_A}.lease"]


def plant(backend: GridBackend, fingerprint: str, document: dict) -> None:
    """Store a lease document as another host or version might have."""
    if isinstance(backend, FileBackend):
        backend.leases_dir.mkdir(parents=True, exist_ok=True)
        (backend.leases_dir / f"{fingerprint}.lease").write_text(json.dumps(document))
    else:
        backend._leases[fingerprint] = json.dumps(document)


class TestMalformedLeases:
    """The shared medium is outside input: a lease document that is neither
    a done marker nor carries a numeric deadline reads as unreadable --
    claimable, and not active -- instead of crashing the reader."""

    @pytest.mark.parametrize("deadline", ["soon", None, [1], float("inf")])
    def test_a_lease_without_a_numeric_deadline_is_claimable_and_inactive(
            self, backend, deadline):
        plant(backend, FP_A, {"worker": "x", "deadline": deadline})
        assert backend.active() == {}
        with use_registry(MetricsRegistry()) as registry:
            assert claim(backend, FP_A, "me", 30.0)
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend=backend.kind, op="reclaim") == 1
        assert backend.read_lease(FP_A)["worker"] == "me"
        assert set(backend.active()) == {FP_A}

    def test_leases_are_plain_worker_documents_keyed_by_fingerprint(self, backend):
        assert claim(backend, FP_A, "a", 30.0)
        assert backend.read_lease(FP_A) == {"worker": "a", "deadline": backend.clock() + 30.0}
        assert backend.active() == {FP_A: backend.read_lease(FP_A)}
        backend.mark_done_many([FP_A], "a")
        assert backend.read_lease(FP_A) == {"worker": "a", "done": True}


class TestRecordsAndManifest:
    def test_appends_from_two_workers_interleave(self, backend):
        backend.append_records(0, "w1", lines({"fingerprint": FP_A, "n": 1}))
        backend.append_records(0, "w2", lines({"fingerprint": FP_B, "n": 2}))
        backend.append_records(1, "w1", lines({"fingerprint": FP_A, "n": 3}))
        shard0 = list(backend.iter_records(0))
        assert sorted(record["n"] for record in shard0) == [1, 2]
        assert [record["n"] for record in backend.iter_records(1)] == [3]

    def test_manifest_is_written_exactly_once(self, backend):
        manifest = {"grid_version": 1, "shard_count": 2}
        assert backend.read_manifest() is None
        assert backend.write_manifest(manifest)
        assert not backend.write_manifest({"grid_version": 1, "shard_count": 9})
        assert backend.read_manifest() == manifest


class TestFaultInjection:
    """Grid runs that crash, race, and duplicate -- merges stay bit-identical."""

    def test_worker_crash_mid_claim_is_reclaimed(self, backend):
        spec = tiny_spec()
        run = GridRun.create(spec, backend=backend, shard_count=2)
        victim = plan_shards(spec, 2)[1][0]
        # The crashed worker died holding a live lease; it expires on the
        # injected clock, and the resuming worker reclaims and finishes.
        assert claim(backend, victim.fingerprint(), "crashed", 30.0)
        backend.clock.advance(31.0)
        report = run_grid_worker(run, workers=1, lease_ttl_s=30.0,
                                 clock=backend.clock)
        assert report.executed == 4
        assert canonical(merge_run(run)) == \
            canonical(run_campaign(spec, workers=1))

    def test_live_lease_blocks_until_expiry(self, backend):
        spec = tiny_spec()
        run = GridRun.create(spec, backend=backend, shard_count=1)
        victim = spec.expand()[0]
        assert claim(backend, victim.fingerprint(), "other-host", 300.0)
        first = run_grid_worker(run, workers=1, clock=backend.clock)
        assert first.skipped_leased == 1 and first.executed == 3
        with pytest.raises(ValueError, match="incomplete"):
            merge_run(run)
        backend.clock.advance(301.0)  # the other host never came back
        second = run_grid_worker(run, workers=1, clock=backend.clock)
        assert second.executed == 1 and second.already_done == 3
        assert canonical(merge_run(run)) == \
            canonical(run_campaign(spec, workers=1))

    def test_duplicate_and_torn_records_heal_at_merge(self, backend):
        spec = tiny_spec()
        run = GridRun.create(spec, backend=backend, shard_count=1)
        run_grid_worker(run, workers=1, clock=backend.clock)
        golden = canonical(run_campaign(spec, workers=1))
        assert canonical(merge_run(run)) == golden
        records = list(run.iter_shard_records(0))
        # A retried worker appended the same cell twice...
        backend.append_records(0, "retry", lines(records[0]))
        # ...a cell recorded a failure before its eventual success...
        backend.append_records(0, "retry", lines({
            "fingerprint": records[0]["fingerprint"],
            "shard": 0, "worker": "retry", "error": "boom", "attempts": 1,
        }))
        # ...a record arrived torn (non-dict result payload)...
        backend.append_records(0, "retry", lines({
            "fingerprint": records[1]["fingerprint"],
            "shard": 0, "worker": "retry", "result": "truncat",
        }))
        # ...and a foreign record from some other sweep leaked in.
        backend.append_records(0, "stray", lines({
            "fingerprint": "f" * 64, "shard": 0, "worker": "stray",
            "result": records[0]["result"],
        }))
        if isinstance(backend, FileBackend):
            # A torn JSONL line (a crash mid-append) must be skipped, not
            # fatal.
            torn = backend.results_dir / "shard-0000.torn.jsonl"
            torn.write_text('{"fingerprint": "' + "c" * 64 + '", "resu')
        assert canonical(merge_run(run)) == golden

    def test_sharded_run_merges_bit_identical(self, backend):
        """Acceptance: two shard-pinned workers over any backend merge to
        the exact single-process document."""
        spec = tiny_spec()
        run = GridRun.create(spec, backend=backend, shard_count=2)
        run_grid_worker(run, shard=0, workers=1, clock=backend.clock)
        run_grid_worker(run, shard=1, workers=1, clock=backend.clock)
        assert canonical(merge_run(run)) == \
            canonical(run_campaign(spec, workers=1))

    def test_crash_between_commit_and_done_markers_reexecutes_nothing(
            self, backend, monkeypatch):
        """The worker dies after its batch commit, before any done marker:
        the resumed worker finds the cell in the logs and leaves it alone."""
        spec = tiny_spec()
        run = GridRun.create(spec, backend=backend, shard_count=2)
        with monkeypatch.context() as patch:
            patch.setattr(backend, "mark_done_many", crash)
            with pytest.raises(WorkerCrash):
                run_grid_worker(run, workers=1, worker_id="crashed",
                                lease_ttl_s=30.0, clock=backend.clock)
        logged = {record["fingerprint"]
                  for shard in range(2) for record in backend.iter_records(shard)}
        assert len(logged) == 1
        assert not backend.read_lease(next(iter(logged))).get("done")
        resumed = run_grid_worker(run, workers=1, worker_id="resumed",
                                  lease_ttl_s=30.0, clock=backend.clock)
        assert resumed.already_done == 1 and resumed.executed == 3
        records = [record for shard in range(2) for record in backend.iter_records(shard)]
        assert len(records) == 4  # nothing logged twice
        assert canonical(merge_run(run)) == canonical(run_campaign(spec, workers=1))

    def test_crash_before_commit_reruns_the_cells_after_ttl(self, backend, monkeypatch):
        """The worker dies while committing: its leased cells are not in the
        logs, stay blocked until the TTL runs out, then run again."""
        spec = tiny_spec()
        run = GridRun.create(spec, backend=backend, shard_count=1)
        with monkeypatch.context() as patch:
            patch.setattr(backend, "append_records", crash)
            with pytest.raises(WorkerCrash):
                run_grid_worker(run, workers=1, worker_id="crashed",
                                lease_ttl_s=30.0, clock=backend.clock)
        assert list(backend.iter_records(0)) == []
        early = run_grid_worker(run, workers=1, worker_id="early",
                                lease_ttl_s=30.0, clock=backend.clock)
        assert early.skipped_leased == 1 and early.executed == 3
        backend.clock.advance(31.0)
        late = run_grid_worker(run, workers=1, worker_id="late",
                               lease_ttl_s=30.0, clock=backend.clock)
        assert late.executed == 1 and late.already_done == 3
        assert canonical(merge_run(run)) == canonical(run_campaign(spec, workers=1))

    def test_a_twin_releasing_finished_cells_reexecutes_nothing(self, backend):
        """Two processes share one worker id; one releases every cell after
        the other finished them.  The done markers stay, and a rejoining
        worker executes nothing."""
        spec = tiny_spec()
        run = GridRun.create(spec, backend=backend, shard_count=1)
        first = run_grid_worker(run, workers=1, worker_id="twin", clock=backend.clock)
        assert first.executed == 4
        fingerprints = [job.fingerprint() for job in spec.expand()]
        for fingerprint in fingerprints:
            backend.release(fingerprint, "twin")
        assert all(backend.read_lease(fp)["done"] is True for fp in fingerprints)
        again = run_grid_worker(run, workers=1, worker_id="late", clock=backend.clock)
        assert again.executed == 0 and again.already_done == 4
        assert canonical(merge_run(run)) == canonical(run_campaign(spec, workers=1))

    def test_rejoining_a_different_spec_is_refused(self, backend):
        GridRun.create(tiny_spec(), backend=backend, shard_count=1)
        with pytest.raises(ValueError, match="different campaign spec"):
            GridRun.create(tiny_spec(seeds=(7,)), backend=backend,
                           shard_count=1)


class TestAutoscaleHint:
    def test_fresh_run_falls_back_to_capped_fleet(self, tmp_path):
        run = GridRun.create(tiny_spec(), backend=MemoryBackend(),
                             shard_count=1)
        hint = autoscale_hint(run)
        assert hint.pending == 4 and hint.observed_cells == 0
        assert hint.median_cost_s is None
        assert hint.suggested_workers == 4  # min(pending, cold-start cap)
        assert "no observed cell cost" in hint.describe()
        assert "suggested workers: 4" in hint.describe()

    def test_partial_run_extrapolates_observed_cost(self):
        spec = tiny_spec()
        run = GridRun.create(spec, backend=MemoryBackend(), shard_count=2)
        run_grid_worker(run, shard=0, workers=1)  # 3 of 4 cells
        hint = autoscale_hint(run)
        assert hint.pending == 1
        assert hint.observed_cells == 3
        assert hint.median_cost_s is not None and hint.median_cost_s > 0
        assert hint.backlog_s == pytest.approx(hint.median_cost_s)
        assert 1 <= hint.suggested_workers <= hint.pending
        assert "suggested workers: 1" in hint.describe()

    def test_complete_run_suggests_zero(self):
        spec = tiny_spec()
        run = GridRun.create(spec, backend=MemoryBackend(), shard_count=1)
        run_grid_worker(run, workers=1)
        hint = autoscale_hint(run)
        assert hint.pending == 0 and hint.suggested_workers == 0
        assert "suggested workers: 0 (run complete)" in hint.describe()

    def test_big_backlog_wants_more_workers(self):
        spec = tiny_spec()
        run = GridRun.create(spec, backend=MemoryBackend(), shard_count=2)
        run_grid_worker(run, shard=0, workers=1)
        # A vanishing drain target asks for an enormous fleet; the hint is
        # clamped to the pending-cell count -- idle workers help nobody.
        hint = autoscale_hint(run, target_drain_s=1e-9)
        assert hint.suggested_workers == hint.pending == 1

    def test_statuses_can_be_precomputed(self):
        run = GridRun.create(tiny_spec(), backend=MemoryBackend(),
                             shard_count=1)
        statuses = grid_status(run)
        assert autoscale_hint(run, statuses).pending == 4


class TestArtifactPriorities:
    def test_priority_orders_pending_cells(self):
        spec = tiny_spec()
        run = GridRun.create(spec, backend=MemoryBackend(), shard_count=1)
        jobs = spec.expand()
        favourite = jobs[-1].fingerprint()
        order = []
        run_grid_worker(
            run, workers=1,
            priority={favourite: 5.0},
            progress=lambda job, cached: order.append(job.fingerprint()),
        )
        assert order[0] == favourite
        # Ties keep the spec's deterministic expansion order.
        assert order[1:] == [j.fingerprint() for j in jobs[:-1]]

    def test_cell_priorities_counts_pending_artifacts(self):
        plan = plan_artifacts(["figure7", "figure8"])
        priorities = cell_priorities(plan)
        assert set(priorities) == {job.fingerprint() for job in plan.jobs}
        assert all(count >= 1 for count in priorities.values())
        shared = plan.requested_cells - len(plan.jobs)
        assert (max(priorities.values()) >= 2) == (shared > 0)

    def test_finished_artifacts_stop_boosting(self):
        plan = plan_artifacts(["figure7"])

        class _Done:
            def index(self_inner):
                return {job.cell_key: object() for job in plan.jobs}

        assert cell_priorities(plan, _Done()) == {}


class TestCreateBackend:
    def test_memory_urls_share_named_instances(self):
        assert create_backend("memory://ci") is create_backend("memory://ci")
        assert create_backend("memory://ci") is not create_backend("memory://x")
        assert isinstance(create_backend("memory"), MemoryBackend)

    def test_rejections_carry_guidance(self):
        with pytest.raises(ValueError, match="pass --run-dir"):
            create_backend("file")
        with pytest.raises(ValueError, match="no object-store backend is bundled"):
            create_backend("s3://real-bucket/prefix")
        with pytest.raises(ValueError, match="no object-store backend is bundled"):
            create_backend("gs://real-bucket")
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("carrier-pigeon")
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("fake-object://bucket")
