"""Tests for the sharded, resumable, multi-host grid execution subsystem."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas import (
    CampaignSpec,
    FileBackend,
    GridRun,
    LeaseQueue,
    MemoryBackend,
    ResultLog,
    grid_status,
    merge_run,
    parse_shard,
    plan_shards,
    run_campaign,
    run_grid_worker,
    shard_of,
)
from repro.faas import campaign, grid
from repro.faas.results import (
    encode_document, record_line, result_from_columns,
)
from repro.observability import MetricsRegistry, use_registry


def tiny_spec(**overrides) -> CampaignSpec:
    """4 cells that split 3/1 over two planner shards (pinned below)."""
    params = dict(
        benchmarks=("function_chain",),
        platforms=("aws", "azure"),
        seeds=(0, 1),
        burst_size=2,
    )
    params.update(overrides)
    return CampaignSpec(**params)


def claim(leases: LeaseQueue, fingerprint: str) -> bool:
    """One fingerprint through the batch claim."""
    [won] = leases.claim_many([fingerprint])
    return won


def lines(*documents) -> list:
    """Records as the result log takes them: encoded lines."""
    return [encode_document(document) for document in documents]


class TestShardPlanner:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "0/0", "x/2", "1", "1/2/3x"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_partition_is_disjoint_and_complete(self):
        spec = tiny_spec()
        shards = plan_shards(spec, 2)
        flattened = [job.fingerprint() for shard in shards for job in shard]
        assert sorted(flattened) == sorted(j.fingerprint() for j in spec.expand())
        assert len(set(flattened)) == len(flattened)
        # Pinned: this spec genuinely exercises both shards.
        assert sorted(len(shard) for shard in shards) == [1, 3]

    @given(
        shard_count=st.integers(min_value=1, max_value=7),
        benchmarks=st.sets(
            st.sampled_from(["function_chain", "mapreduce", "ml"]),
            min_size=1, max_size=3,
        ),
        platforms=st.sets(
            st.sampled_from(["aws", "gcp", "azure", "aws@2022", "gcp:cold_start=x2"]),
            min_size=1, max_size=3,
        ),
        seed_count=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_planning_is_a_deterministic_partition(
        self, shard_count, benchmarks, platforms, seed_count
    ):
        """Property: every cell lands in exactly one shard, identically on
        every planning pass, however the dimensions are ordered."""
        spec = tiny_spec(
            benchmarks=tuple(sorted(benchmarks)),
            platforms=tuple(sorted(platforms)),
            seeds=tuple(range(seed_count)),
        )
        jobs = spec.expand()
        shards = plan_shards(spec, shard_count)
        assignment = {
            job.fingerprint(): index
            for index, shard in enumerate(shards)
            for job in shard
        }
        assert len(assignment) == len(jobs)  # disjoint: no fingerprint twice
        for job in jobs:  # complete + consistent with shard_of
            assert assignment[job.fingerprint()] == shard_of(job.fingerprint(), shard_count)
        # Stable across planning passes and shard orderings: the assignment
        # is a pure function of the fingerprint.
        again = plan_shards(spec, shard_count)
        assert [[j.fingerprint() for j in s] for s in again] == \
            [[j.fingerprint() for j in s] for s in shards]

    def test_assignment_is_stable_across_processes(self):
        """Shard assignment must not depend on PYTHONHASHSEED or any other
        per-process state -- disjoint hosts plan independently."""
        spec = tiny_spec()
        local = [shard_of(job.fingerprint(), 3) for job in spec.expand()]
        script = (
            "from repro.faas import CampaignSpec, shard_of\n"
            "spec = CampaignSpec(benchmarks=('function_chain',),"
            " platforms=('aws', 'azure'), seeds=(0, 1), burst_size=2)\n"
            "print([shard_of(job.fingerprint(), 3) for job in spec.expand()])\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == local


class FakeClock:
    """Injectable LeaseQueue.clock: expiry by advancing time, not sleeping."""

    def __init__(self, now: float = 1_000_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLeaseQueue:
    FP = "f" * 64

    def test_claim_is_exclusive_until_released(self, tmp_path):
        ours = LeaseQueue(FileBackend(tmp_path), worker_id="a")
        theirs = LeaseQueue(FileBackend(tmp_path), worker_id="b")
        assert claim(ours, self.FP)
        assert not claim(theirs, self.FP)
        assert self.FP in theirs.active()
        ours.release(self.FP)
        assert claim(theirs, self.FP)

    def test_expired_lease_is_reclaimed(self, tmp_path):
        """Acceptance: a crashed worker's cells come back after the TTL."""
        clock = FakeClock()
        crashed = LeaseQueue(FileBackend(tmp_path), worker_id="crashed", ttl_s=30.0, clock=clock)
        rescuer = LeaseQueue(FileBackend(tmp_path), worker_id="rescuer", ttl_s=60.0, clock=clock)
        assert claim(crashed, self.FP)
        assert not claim(rescuer, self.FP)
        clock.advance(31.0)
        assert rescuer.active() == {}
        assert claim(rescuer, self.FP)
        assert rescuer.read(self.FP)["worker"] == "rescuer"

    def test_renew_extends_the_deadline(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(FileBackend(tmp_path), worker_id="a", ttl_s=30.0, clock=clock)
        assert claim(queue, self.FP)
        first = queue.read(self.FP)["deadline"]
        clock.advance(5.0)
        queue.renew(self.FP)
        assert queue.read(self.FP)["deadline"] > first

    def test_corrupt_lease_is_reclaimable(self, tmp_path):
        queue = LeaseQueue(FileBackend(tmp_path), worker_id="a")
        queue.backend.leases_dir.mkdir(parents=True)
        (queue.backend.leases_dir / f"{self.FP}.lease").write_text("{ not json")
        assert claim(queue, self.FP)

    def test_stale_worker_cannot_renew_or_release_a_reclaimed_lease(self, tmp_path):
        """A worker that stalled past its TTL must not clobber (or delete)
        the claim of the rival that legitimately reclaimed its cell."""
        clock = FakeClock()
        stale = LeaseQueue(FileBackend(tmp_path), worker_id="stale", ttl_s=30.0, clock=clock)
        rival = LeaseQueue(FileBackend(tmp_path), worker_id="rival", ttl_s=600.0, clock=clock)
        assert claim(stale, self.FP)
        clock.advance(31.0)
        assert claim(rival, self.FP)
        assert stale.renew(self.FP) is False
        assert rival.read(self.FP)["worker"] == "rival"
        stale.release(self.FP)
        assert rival.read(self.FP)["worker"] == "rival"
        assert rival.renew(self.FP) is True

    def test_done_marker_is_never_reclaimable(self, tmp_path):
        """A finished cell's done marker blocks claims forever -- it has no
        deadline, so it must not fall through to the expired-reclaim path."""
        clock = FakeClock()
        finisher = LeaseQueue(FileBackend(tmp_path), worker_id="finisher", ttl_s=1.0, clock=clock)
        finisher.mark_done_many([self.FP])
        clock.advance(3600.0)  # long past any TTL
        late = LeaseQueue(FileBackend(tmp_path), worker_id="late", ttl_s=60.0, clock=clock)
        assert claim(late, self.FP) is False
        assert late.active() == {}  # not a live lease either

    def test_no_temp_files_left_behind(self, tmp_path):
        queue = LeaseQueue(FileBackend(tmp_path), worker_id="a")
        claim(queue, self.FP)
        claim(LeaseQueue(FileBackend(tmp_path), worker_id="b"), self.FP)
        leases_dir = queue.backend.leases_dir
        assert list(leases_dir.glob("*.lease"))  # the directory the claims used
        queue.release(self.FP)
        assert list(leases_dir.glob("*.tmp")) == []


class TestLeaseHeartbeat:
    """A held lease is rewritten once it is TTL/6 old, not on every tick."""

    TTL = 60.0  # due at 10 s; the pool loop wakes at least every 10 s

    @staticmethod
    def backend_ops(registry: MetricsRegistry, backend: str, op: str) -> float:
        return registry.counter("repro_grid_backend_ops_total").value(
            backend=backend, op=op
        )

    def hooks(self, clock: FakeClock):
        """A worker's real admit/tick hooks, driven by hand.

        ``campaign.run_cells`` is swapped for a stub that captures its hooks instead of
        executing cells, so the test decides when each tick fires and what
        time it is on the lease clock.
        """
        captured = {}

        def capture(pending, workers, finish, fail, **kwargs):
            captured.update(kwargs, pending=list(pending))

        run = GridRun.create(tiny_spec(), backend=MemoryBackend(clock=clock))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaign, "run_cells", capture)
            run_grid_worker(run, workers=2, worker_id="w", lease_ttl_s=self.TTL,
                            clock=clock)
        return run, captured

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_cells_never_renew_under_the_default_ttl(self, tmp_path, workers):
        run = GridRun.create(tiny_spec(), tmp_path / "run", shard_count=1)
        with use_registry(MetricsRegistry()) as registry:
            report = run_grid_worker(run, workers=workers)
        assert report.executed == 4
        assert self.backend_ops(registry, "file", "renew") == 0
        assert self.backend_ops(registry, "file", "claim") == 4
        assert self.backend_ops(registry, "file", "mark_done") == 4

    def test_tick_rewrites_a_lease_only_once_it_is_due(self):
        clock = FakeClock()
        run, hooks = self.hooks(clock)
        assert hooks["tick_interval_s"] == self.TTL / 6
        job = hooks["pending"][0]
        assert hooks["admit"]([job]) == [True]
        claimed = run.backend.read_lease(job.fingerprint())["deadline"]
        with use_registry(MetricsRegistry()) as registry:
            hooks["tick"]()
            clock.advance(9.0)
            hooks["tick"]()  # 9 s old: not due yet
            assert run.backend.read_lease(job.fingerprint())["deadline"] == claimed
            clock.advance(1.0)
            hooks["tick"]()  # 10 s old: rewritten
            hooks["tick"]()  # just rewritten: not due again
        assert run.backend.read_lease(job.fingerprint())["deadline"] == \
            clock.now + self.TTL
        assert self.backend_ops(registry, "memory", "renew") == 1

    def test_a_reclaimed_lease_is_dropped_and_never_renewed_again(self):
        clock = FakeClock()
        run, hooks = self.hooks(clock)
        job = hooks["pending"][0]
        assert hooks["admit"]([job]) == [True]
        clock.advance(self.TTL + 1.0)  # the worker stalled past its TTL
        assert run.backend.claim_many([job.fingerprint()], "rival", 600.0) == [True]
        with use_registry(MetricsRegistry()) as registry:
            hooks["tick"]()  # renew lost: the lease is dropped
            for _ in range(3):
                clock.advance(self.TTL)
                hooks["tick"]()
            depth = registry.gauge("repro_grid_lease_queue_depth").value()
        assert self.backend_ops(registry, "memory", "renew_lost") == 1
        assert self.backend_ops(registry, "memory", "renew") == 0
        assert depth == 0
        assert run.backend.read_lease(job.fingerprint())["worker"] == "rival"

    @given(
        gaps=st.lists(st.floats(min_value=0.001, max_value=1.0),
                      min_size=1, max_size=40),
        admit_at=st.lists(st.integers(min_value=0, max_value=39),
                          min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_pool_loop_rewrites_every_lease_within_a_third_of_the_ttl(
        self, gaps, admit_at
    ):
        """Whenever ticks come at most ``tick_interval_s`` apart (the pool
        loop's wait timeout), no held lease goes TTL/3 without a write."""
        clock = FakeClock()
        run, hooks = self.hooks(clock)
        writes = {}
        for step, fraction in enumerate(gaps):
            clock.advance(fraction * hooks["tick_interval_s"])
            for job, when in zip(hooks["pending"], admit_at):
                if when == step:
                    assert hooks["admit"]([job]) == [True]
            hooks["tick"]()
            for fingerprint, lease in run.backend.active().items():
                written = lease["deadline"] - self.TTL
                times = writes.setdefault(fingerprint, [written])
                if written > times[-1] + 1e-6:
                    times.append(written)
                # Every lease a tick leaves behind is younger than TTL/6.
                assert clock.now - written < self.TTL / 6 + 1e-6
        for times in writes.values():
            for before, after in zip(times, times[1:]):
                assert after - before <= self.TTL / 3 + 1e-6


class TestResultLog:
    def test_append_and_iterate(self, tmp_path):
        log = ResultLog(tmp_path / "log.jsonl")
        log.extend(lines({"fingerprint": "a", "result": {}}))
        log.extend(lines({"fingerprint": "b", "result": {}}))
        assert [record["fingerprint"] for record in log] == ["a", "b"]
        assert len(log) == 2

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        """A worker killed mid-append must not poison the log."""
        path = tmp_path / "log.jsonl"
        log = ResultLog(path)
        log.extend(lines({"fingerprint": "a"}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "b", "resu')  # no newline: killed here
        assert [record["fingerprint"] for record in log] == ["a"]
        # ...and a retry's batch after the truncated line still parses whole.
        log.extend(lines({"fingerprint": "c"}, {"fingerprint": "d"}))
        log.extend([])
        assert [record["fingerprint"] for record in log] == ["a", "c", "d"]

    def test_missing_file_iterates_empty(self, tmp_path):
        assert list(ResultLog(tmp_path / "nope.jsonl")) == []

    def test_deeply_nested_line_is_skipped(self, tmp_path):
        """A line nested past the JSON parser's recursion limit is corrupt
        like any other: skipped, not a RecursionError for the merge."""
        path = tmp_path / "log.jsonl"
        log = ResultLog(path)
        log.extend(lines({"fingerprint": "a"}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[" * 100_000 + "\n")
        log.extend(lines({"fingerprint": "b"}))
        assert [record["fingerprint"] for record in log] == ["a", "b"]


#: JSON values with the encoder's hard cases: non-ASCII and escaped text,
#: floats that print with exponents, integers beyond 64 bits.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers() | st.integers(min_value=2**63, max_value=2**200)
    | st.floats(allow_nan=False)
    | st.sampled_from([1e-7, 2.5e-300, 1.5e300, 5e-324, -0.0, 1e16, 12345678901234567890.0]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


class TestRecordLine:
    # Drawing the nested values is nearly all of this test's time.  The
    # result is spliced in as opaque text, so two entries exercise it as
    # well as six; four fields still fall on both sides of "result".
    @given(
        fields=st.dictionaries(
            st.text(max_size=8).filter(lambda key: key != "result"), JSON_VALUES,
            max_size=4),
        result=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_spliced_line_equals_the_whole_record_encoded(self, fields, result):
        """The oracle is the encoder the logs used before splicing: one
        ``json.dumps(record, sort_keys=True)`` of the whole record."""
        oracle = json.dumps({**fields, "result": result}, sort_keys=True)
        assert record_line(fields, encode_document(result)) == oracle
        assert record_line(fields) == json.dumps(fields, sort_keys=True)



#: The perfbench ``grid_sweep`` campaign: 192 cells of a few ms each.
SWEEP = CampaignSpec(
    benchmarks=("function_chain", "parallel_sleep", "storage_io"),
    platforms=("aws", "gcp", "azure", "hpc"),
    seeds=tuple(range(16)),
    workloads=("burst:burst_size=4",),
)


class TestGroupCommit:
    """File-backend durability order: a record is fsynced before the done
    marker or release that announces it, and a settled chunk is one commit
    per shard rather than one per cell."""

    @staticmethod
    def spy(monkeypatch, run):
        """Log fsyncs (with every fingerprint durable at that moment), done
        markers and releases, in order; count the batches run_cells settles."""
        events, batches = [], []
        real_fsync, real_run_cells = os.fsync, campaign.run_cells

        def fsync(fd):
            real_fsync(fd)
            durable = {str(record.get("fingerprint"))
                       for log in sorted(run.backend.results_dir.glob("*.jsonl"))
                       for record in ResultLog(log)}
            events.append(("fsync", durable))

        def lease_op(kind, real, batch=False):
            def spied(self, fingerprints, worker_id):
                for fingerprint in (fingerprints if batch else [fingerprints]):
                    events.append((kind, fingerprint))
                return real(self, fingerprints, worker_id)
            return spied

        def counting_run_cells(pending, workers, finish, fail, **hooks):
            def counted(settled):
                batches.append(len(settled))
                finish(settled)
            return real_run_cells(pending, workers, counted, fail, **hooks)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(FileBackend, "mark_done_many",
                            lease_op("done", FileBackend.mark_done_many, batch=True))
        monkeypatch.setattr(FileBackend, "release",
                            lease_op("release", FileBackend.release))
        monkeypatch.setattr(campaign, "run_cells", counting_run_cells)
        return events, batches

    @staticmethod
    def assert_ordered(events):
        durable = set()
        for kind, payload in events:
            if kind == "fsync":
                durable = payload
            else:
                assert payload in durable, \
                    f"{kind} of {payload[:12]} before its record was fsynced"

    def test_a_pooled_sweep_commits_once_per_chunk_and_shard(self, tmp_path, monkeypatch):
        run = GridRun.create(SWEEP, tmp_path / "run", shard_count=2)
        events, batches = self.spy(monkeypatch, run)
        report = run_grid_worker(run, workers=2, worker_id="w")
        fsyncs = sum(1 for kind, _ in events if kind == "fsync")
        assert report.executed == sum(batches) == 192 and report.failed == 0
        assert sum(1 for kind, _ in events if kind == "done") == 192
        self.assert_ordered(events)
        assert fsyncs <= len(batches) * run.shard_count
        assert fsyncs <= 32
        assert len(merge_run(run).cells) == 192

    def test_a_pooled_sweep_writes_lease_files_per_chunk_not_per_cell(
            self, tmp_path, monkeypatch):
        """One shared claim file per admitted chunk and one shared done
        file per committed chunk; every other lease is a hard link."""
        run = GridRun.create(SWEEP, tmp_path / "run", shard_count=2)
        _, batches = self.spy(monkeypatch, run)
        written, real_write_text = [], pathlib.Path.write_text

        def write_text(path, *args, **kwargs):
            if path.parent == run.backend.leases_dir:
                written.append(path.name)
            return real_write_text(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", write_text)
        with use_registry(MetricsRegistry()) as registry:
            report = run_grid_worker(run, workers=2, worker_id="w")
        assert report.executed == sum(batches) == 192 and report.failed == 0
        assert len(written) <= 2 * len(batches) < 192
        for op in ("claim", "mark_done"):
            assert TestLeaseHeartbeat.backend_ops(registry, "file", op) == 192
        assert len(list(run.backend.leases_dir.glob("*.lease"))) == 192
        assert list(run.backend.leases_dir.glob(".*")) == []

    def test_cache_served_cells_commit_in_chunks(self, tmp_path, monkeypatch):
        """Consecutive cache hits are delivered together -- one commit --
        while progress still fires once per cell, in expansion order."""
        spec = tiny_spec(seeds=tuple(range(8)))
        cache = tmp_path / "cache"
        run_campaign(spec, workers=1, cache_dir=cache)
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        fsyncs, progressed, real_fsync = [], [], os.fsync

        def fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        report = run_grid_worker(
            run, workers=1, cache_dir=cache,
            progress=lambda job, cached: progressed.append((job.fingerprint(), cached)))
        assert report.cache_hits == 16 and report.executed == 0
        assert len(fsyncs) == 1
        assert progressed == [(job.fingerprint(), True) for job in spec.expand()]
        assert len(merge_run(run).cells) == 16

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failure_record_is_committed_before_its_release(
            self, tmp_path, monkeypatch, workers):
        spec = tiny_spec(benchmarks=("function_chain", "no_such_benchmark"))
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        events, _ = self.spy(monkeypatch, run)
        report = run_grid_worker(run, workers=workers, worker_id="w", max_retries=0)
        assert report.failed == 4 and report.executed == 4
        assert sum(1 for kind, _ in events if kind == "release") == 4
        self.assert_ordered(events)

    def test_deleted_directories_heal(self, tmp_path):
        backend = FileBackend(tmp_path / "run")
        backend.append_records(0, "w", [encode_document({"fingerprint": "a" * 64})])
        assert backend.claim_many(["a" * 64], "w", 30.0) == [True]
        for directory in (backend.leases_dir, backend.results_dir):
            for path in directory.iterdir():
                path.unlink()
            directory.rmdir()
        assert backend.claim_many(["b" * 64], "w", 30.0) == [True]
        backend.mark_done_many(["b" * 64], "w")
        backend.append_records(0, "w", [encode_document({"fingerprint": "b" * 64})])
        assert backend.read_lease("b" * 64)["done"] is True
        assert [record["fingerprint"] for record in backend.iter_records(0)] == ["b" * 64]


class TestGridRun:
    def test_create_open_round_trip(self, tmp_path):
        spec = tiny_spec()
        created = GridRun.create(spec, tmp_path / "run", shard_count=2)
        opened = GridRun.open(tmp_path / "run")
        assert opened.shard_count == 2
        assert opened.spec.to_dict() == spec.to_dict()
        assert [j.fingerprint() for j in opened.spec.expand()] == \
            [j.fingerprint() for j in spec.expand()]
        assert created.spec.to_dict() == opened.spec.to_dict()

    def test_join_verifies_spec_and_shard_count(self, tmp_path):
        GridRun.create(tiny_spec(), tmp_path / "run", shard_count=2)
        GridRun.create(tiny_spec(), tmp_path / "run", shard_count=2)  # idempotent
        with pytest.raises(ValueError, match="shard"):
            GridRun.create(tiny_spec(), tmp_path / "run", shard_count=3)
        with pytest.raises(ValueError, match="different campaign spec"):
            GridRun.create(tiny_spec(seeds=(0,)), tmp_path / "run", shard_count=2)

    def test_open_rejects_non_run_directories(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            GridRun.open(tmp_path / "nope")

    def test_open_rejects_incompatible_cache_version(self, tmp_path):
        run = GridRun.create(tiny_spec(), tmp_path / "run", shard_count=1)
        manifest = json.loads((run.run_dir / GridRun.MANIFEST).read_text())
        manifest["cache_version"] = 2
        (run.run_dir / GridRun.MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="cache version"):
            GridRun.open(run.run_dir)


class TestGridExecution:
    def test_two_disjoint_shards_merge_bit_identical(self, tmp_path):
        """Acceptance core: two shard workers over one run directory produce
        a merge bit-identical to the single-process campaign."""
        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        run_grid_worker(run, shard=0, workers=1)
        run_grid_worker(run, shard=1, workers=1)
        merged = merge_run(run)
        single = run_campaign(spec, workers=1)
        assert json.dumps(merged.to_dict(), sort_keys=True) == \
            json.dumps(single.to_dict(), sort_keys=True)

    def test_two_shards_in_separate_processes(self, tmp_path):
        """Acceptance: the same flow through the CLI in two separate OS
        processes sharing a run directory."""
        run_dir = tmp_path / "run"
        argv = [
            sys.executable, "-m", "repro.cli", "campaign",
            "--benchmarks", "function_chain", "--platforms", "aws", "azure",
            "--seeds", "2", "--burst-size", "2", "--workers", "1",
            "--run-dir", str(run_dir),
        ]
        env = {**os.environ, "PYTHONPATH": "src"}
        for shard in ("0/2", "1/2"):
            completed = subprocess.run(
                argv + ["--shard", shard],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert completed.returncode == 0, completed.stderr
        assert "run complete: 4/4 cells done" in completed.stdout
        merged = merge_run(GridRun.open(run_dir))
        single = run_campaign(tiny_spec(), workers=1)
        assert json.dumps(merged.to_dict(), sort_keys=True) == \
            json.dumps(single.to_dict(), sort_keys=True)

    def test_resume_skips_done_cells(self, tmp_path):
        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        first = run_grid_worker(run, workers=1)
        assert first.executed == 4
        again = run_grid_worker(run, workers=1)
        assert again.executed == 0
        assert again.already_done == 4

    def test_interrupted_run_resumes_without_recomputation(self, tmp_path):
        """Acceptance: kill a worker mid-run (simulated as one finished shard
        plus a stale lease from the crash), resume, and finish without
        recomputing anything already done."""
        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        run_grid_worker(run, shard=0, workers=1)
        # The "crashed" worker died holding a lease on a shard-1 cell.  Both
        # workers share one injected clock; advancing it past the TTL makes
        # the crash lease expired for the resuming worker without sleeping.
        clock = FakeClock()
        victim = plan_shards(spec, 2)[1][0]
        crashed = LeaseQueue(run.backend, worker_id="crashed", ttl_s=30.0,
                             clock=clock)
        assert claim(crashed, victim.fingerprint())
        clock.advance(31.0)
        resumed = run_grid_worker(run, workers=1, lease_ttl_s=30.0,
                                  clock=clock)
        assert resumed.already_done == 3  # shard 0's cells were not redone
        assert resumed.executed == 1      # the reclaimed cell ran here
        assert merge_run(run).cells and len(merge_run(run).cells) == 4

    def test_live_lease_is_left_to_its_holder(self, tmp_path):
        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        victim = spec.expand()[0]
        holder = LeaseQueue(run.backend, worker_id="other-host", ttl_s=300.0)
        assert claim(holder, victim.fingerprint())
        report = run_grid_worker(run, workers=1)
        assert report.skipped_leased == 1
        assert report.executed == 3
        statuses = grid_status(run)
        assert sum(s.leased for s in statuses) == 1
        [lease] = [lease for s in statuses for lease in s.leases]
        assert lease.worker == "other-host"
        assert lease.fingerprint == victim.fingerprint()
        assert 0.0 < lease.expires_in_s <= 300.0

    def test_worker_serves_cells_from_cell_cache(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, workers=1, cache_dir=tmp_path / "cache")
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        report = run_grid_worker(run, workers=1, cache_dir=tmp_path / "cache")
        assert report.executed == 0
        assert report.cache_hits == 4
        merged = merge_run(run)
        assert len(merged.cells) == 4
        assert merged.cache_hits == 4

    def test_undecodable_cache_entry_is_recomputed_not_forwarded(self, tmp_path):
        """Regression: a cache entry with the current version and fingerprint
        whose result does not decode is a miss, as in ``run_campaign``; the
        worker used to forward it, the merge skipped it, and every later worker
        reported the cell already done, so the run could never finish."""
        spec = tiny_spec()
        cache = tmp_path / "cache"
        clean = run_campaign(spec, workers=1, cache_dir=cache)
        job = spec.expand()[0]
        entry_path = cache / f"{job.fingerprint()}.json"
        entry = json.loads(entry_path.read_text())
        del entry["result"]["config"]["workload"]
        entry_path.write_text(json.dumps(entry))

        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        report = run_grid_worker(run, workers=1, cache_dir=cache)
        assert report.executed == 1
        assert report.cache_hits == 3
        merged = merge_run(run)
        assert [cell.from_cache for cell in merged.cells].count(False) == 1
        assert [cell["result"] for cell in merged.to_dict(include_results=True)["cells"]] == \
            [cell["result"] for cell in clean.to_dict(include_results=True)["cells"]]

    def test_cache_served_records_log_the_executed_result_documents(self, tmp_path):
        """A cache-served record logs the column document, byte for byte the
        one an executing worker logged."""
        spec = tiny_spec()
        cache = tmp_path / "cache"

        def logged(run):
            return {
                record["fingerprint"]: (
                    record["from_cache"], json.dumps(record["result"], sort_keys=True)
                )
                for shard in range(run.shard_count)
                for record in run.iter_shard_records(shard)
            }

        executed = GridRun.create(spec, tmp_path / "executed", shard_count=2)
        assert run_grid_worker(executed, workers=1, cache_dir=cache).executed == 4
        served = GridRun.create(spec, tmp_path / "served", shard_count=2)
        assert run_grid_worker(served, workers=1, cache_dir=cache).cache_hits == 4
        executed_records, served_records = logged(executed), logged(served)
        assert sorted(executed_records) == sorted(served_records)
        for fingerprint, (from_cache, result) in served_records.items():
            assert from_cache and not executed_records[fingerprint][0]
            assert result == executed_records[fingerprint][1]

    def test_cache_served_records_carry_the_entry_text_as_stored(self, tmp_path, monkeypatch):
        """A cache hit's record splices in its entry's column text: no
        column document is built or encoded again.  An entry an older
        writer laid out (other key order) is still rebuilt from its result."""
        spec = tiny_spec()
        cache = tmp_path / "cache"
        run_campaign(spec, workers=1, cache_dir=cache)
        older = cache / f"{spec.expand()[0].fingerprint()}.json"
        entry = json.loads(older.read_text())
        older.write_text(json.dumps({key: entry[key] for key in
                                     ("version", "fingerprint", "job", "result")}))
        rebuilt = []

        def spy(name):
            real = getattr(grid, name)

            def spied(document):
                rebuilt.append(name)
                return real(document)
            return spied

        for name in ("encode_document", "result_to_columns", "result_to_dict"):
            monkeypatch.setattr(grid, name, spy(name))
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        assert run_grid_worker(run, workers=1, cache_dir=cache).cache_hits == 4
        assert rebuilt == ["result_to_dict", "result_to_columns", "encode_document"]
        records = [line for path in sorted((tmp_path / "run").rglob("*.jsonl"))
                   for line in path.read_text().splitlines()]
        assert len(records) == 4
        for line in records:
            fingerprint = json.loads(line)["fingerprint"]
            stored = (cache / f"{fingerprint}.json").read_text()
            if fingerprint == entry["fingerprint"]:
                assert json.loads(line)["result"] == entry["result"]
                continue
            text = stored[stored.index(', "result": ') + 12:-len(', "version": 5}')]
            assert f'"result": {text}, "shard": ' in line

    def test_warm_cells_decode_once_per_reader(self, tmp_path, monkeypatch):
        """On a warm cache ``run_campaign`` decodes each cell exactly once;
        a grid worker plus ``merge_run`` decodes it exactly twice (once to
        validate the cached entry, once to merge the record)."""
        spec = tiny_spec()
        cache = tmp_path / "cache"
        run_campaign(spec, workers=1, cache_dir=cache)
        decoded = []

        def spy(decode):
            def spied(document):
                decoded.append(document)
                return decode(document)
            return spied

        monkeypatch.setattr(campaign, "result_from_columns", spy(result_from_columns))
        monkeypatch.setattr(grid, "result_from_columns", spy(result_from_columns))
        assert run_campaign(spec, workers=1, cache_dir=cache).cache_hits == 4
        assert len(decoded) == 4
        decoded.clear()
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        assert run_grid_worker(run, workers=1, cache_dir=cache).cache_hits == 4
        assert len(decoded) == 4
        assert merge_run(run).cache_hits == 4
        assert len(decoded) == 8

    def test_failed_cells_are_recorded_not_raised(self, tmp_path):
        spec = tiny_spec(
            benchmarks=("function_chain", "does_not_exist"),
            platforms=("aws",), seeds=(0,),
        )
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        report = run_grid_worker(run, workers=1, max_retries=0)
        assert report.failed == 1
        assert report.executed == 1
        assert "does_not_exist" in report.failures[0].describe()
        statuses = grid_status(run)
        assert sum(s.failed for s in statuses) == 1
        assert sum(s.done for s in statuses) == 1
        with pytest.raises(ValueError, match="incomplete"):
            merge_run(run)
        partial = merge_run(run, allow_partial=True)
        assert len(partial.cells) == 1

    def test_partial_merge_while_shard_outstanding(self, tmp_path):
        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run", shard_count=2)
        run_grid_worker(run, shard=0, workers=1)
        partial = merge_run(run, allow_partial=True)
        assert len(partial.cells) == 3
        assert {job.fingerprint() for job in (cell.job for cell in partial.cells)} == \
            {job.fingerprint() for job in plan_shards(spec, 2)[0]}

    def test_shard_out_of_range_rejected(self, tmp_path):
        run = GridRun.create(tiny_spec(), tmp_path / "run", shard_count=2)
        with pytest.raises(ValueError, match="out of range"):
            run_grid_worker(run, shard=2)

    def test_each_worker_appends_to_its_own_log_segment(self, tmp_path):
        """Single-writer log files: two workers on one shard never share an
        append target (O_APPEND is not atomic over NFS)."""
        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        run_grid_worker(run, workers=1, worker_id="host-a")
        # host-b finds everything done, but a cache-served rerun of host-b
        # over a fresh cell set would write its own segment; force one record
        # through the API to check the naming.
        run.backend.append_records(
            0, "host-b", [encode_document({"fingerprint": "x", "shard": 0})])
        segments = sorted(p.name for p in (run.run_dir / "results").iterdir())
        assert segments == ["shard-0000.host-a.jsonl", "shard-0000.host-b.jsonl"]
        # Readers fold every segment.
        assert len(list(run.iter_shard_records(0))) == 5

    def test_worker_id_is_sanitised_for_filenames(self, tmp_path):
        spec = tiny_spec(platforms=("aws",), seeds=(0,))
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        report = run_grid_worker(run, workers=1, worker_id="host/1:eu west")
        assert report.worker_id == "host_1_eu_west"
        assert merge_run(run).cells

    def test_create_with_none_joins_at_existing_shard_count(self, tmp_path):
        GridRun.create(tiny_spec(), tmp_path / "run", shard_count=3)
        joined = GridRun.create(tiny_spec(), tmp_path / "run", shard_count=None)
        assert joined.shard_count == 3
        fresh = GridRun.create(tiny_spec(), tmp_path / "fresh", shard_count=None)
        assert fresh.shard_count == 1

    def test_completed_cells_are_not_reclaimed_by_stale_scanned_workers(self, tmp_path):
        """A worker whose startup scan predates a rival's completions must
        not re-execute them: finished cells leave done markers, not released
        leases."""
        spec = tiny_spec(platforms=("aws",), seeds=(0,))
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        run_grid_worker(run, workers=1, worker_id="first")
        fingerprint = spec.expand()[0].fingerprint()
        stale = LeaseQueue(run.backend, worker_id="stale-scan", ttl_s=60.0)
        assert claim(stale, fingerprint) is False

    def test_unmergeable_result_record_does_not_mark_the_cell_done(self, tmp_path):
        """Regression: a record whose result payload cannot merge must leave
        the cell pending (re-executable), not wedge it as done-but-missing."""
        spec = tiny_spec(platforms=("aws",), seeds=(0,))
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        job = spec.expand()[0]
        run.backend.append_records(0, "bad-writer", [encode_document({
            "fingerprint": job.fingerprint(), "shard": 0,
            "result": "not a result document",
        })])
        assert grid_status(run)[0].pending == 1
        report = run_grid_worker(run, workers=1)
        assert report.executed == 1
        assert len(merge_run(run).cells) == 1


@pytest.fixture(scope="module")
def executed_run(tmp_path_factory):
    """One executed 2-shard grid run, shared by the merge property tests."""
    run_dir = tmp_path_factory.mktemp("grid") / "run"
    spec = tiny_spec()
    run = GridRun.create(spec, run_dir, shard_count=2)
    run_grid_worker(run, shard=0, workers=1)
    run_grid_worker(run, shard=1, workers=1)
    return run


class TestMergeProperties:
    def rewritten_run(self, source: GridRun, tmp_path, records) -> GridRun:
        """A clone of ``source`` whose shard logs hold ``records`` (re-bucketed
        by each record's own shard, in the given order)."""
        clone_dir = tmp_path / "clone"
        clone = GridRun.create(source.spec, clone_dir, shard_count=source.shard_count)
        for record in records:
            clone.backend.append_records(
                int(record["shard"]), "rewrite", [encode_document(record)])
        return clone

    def all_records(self, run: GridRun):
        return [
            record
            for shard in range(run.shard_count)
            for record in run.iter_shard_records(shard)
        ]

    def test_merge_is_idempotent(self, executed_run):
        first = json.dumps(merge_run(executed_run).to_dict(), sort_keys=True)
        second = json.dumps(merge_run(executed_run).to_dict(), sort_keys=True)
        assert first == second

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_merge_is_order_independent(self, executed_run, tmp_path_factory, data):
        """Property: merging the shard logs in any record order -- any
        interleaving of worker completions -- yields a bit-identical
        CampaignResult.to_dict() document."""
        records = self.all_records(executed_run)
        shuffled = data.draw(st.permutations(records))
        clone = self.rewritten_run(
            executed_run, tmp_path_factory.mktemp("perm"), shuffled
        )
        assert json.dumps(merge_run(clone).to_dict(), sort_keys=True) == \
            json.dumps(merge_run(executed_run).to_dict(), sort_keys=True)

    def test_merge_ignores_duplicate_records(self, executed_run, tmp_path_factory):
        """Two workers racing the same cell (an expired lease both adopted)
        merge to the same single cell."""
        records = self.all_records(executed_run)
        clone = self.rewritten_run(
            executed_run, tmp_path_factory.mktemp("dup"), records + records
        )
        assert json.dumps(merge_run(clone).to_dict(), sort_keys=True) == \
            json.dumps(merge_run(executed_run).to_dict(), sort_keys=True)

    def test_merge_ignores_corrupt_and_foreign_records(
        self, executed_run, tmp_path_factory
    ):
        records = self.all_records(executed_run)
        clone = self.rewritten_run(
            executed_run, tmp_path_factory.mktemp("noise"), records
        )
        noise = [
            # A well-formed result under a fingerprint not in the spec.
            {"fingerprint": "0" * 64, "shard": 0, "result": records[0]["result"]},
            {"fingerprint": records[0]["fingerprint"], "shard": 0},  # no result
        ]
        for record in noise:
            clone.backend.append_records(0, "noise", [encode_document(record)])
        log_path = clone.backend.results_dir / "shard-0000.noise.jsonl"
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
        assert json.dumps(merge_run(clone).to_dict(), sort_keys=True) == \
            json.dumps(merge_run(executed_run).to_dict(), sort_keys=True)

    @pytest.mark.parametrize("shape", ["platform_spec", "orchestration"])
    def test_merge_skips_malformed_records(self, executed_run, tmp_path_factory, shape):
        """A logged result that does not decode is skipped like a corrupt
        line, and a later duplicate supplies the cell."""
        records = self.all_records(executed_run)
        broken = json.loads(json.dumps(records[0]))
        if shape == "platform_spec":
            broken["result"]["config"]["platform_spec"] = "aws"
        else:
            broken["result"]["orchestration"]["state_transitions"][0] = "x"
        clone = self.rewritten_run(
            executed_run, tmp_path_factory.mktemp("malformed"), [broken] + records
        )
        assert json.dumps(merge_run(clone).to_dict(include_results=True), sort_keys=True) == \
            json.dumps(merge_run(executed_run).to_dict(include_results=True), sort_keys=True)


class TestPartialMergeStream:
    def test_stream_ends_when_the_run_settles(self, tmp_path):
        from repro.faas import iter_partial_merges

        spec = tiny_spec()
        run = GridRun.create(spec, tmp_path / "run")
        run_grid_worker(run, workers=1)
        snapshots = list(iter_partial_merges(run, interval_s=0.01))
        campaign, done, failed, total = snapshots[-1]
        assert done == total == 4
        assert failed == 0
        assert len(campaign.cells) == 4

    def test_stream_ends_despite_permanently_failed_cells(self, tmp_path):
        """--watch must not spin forever on a run with dead cells: once every
        cell is merged or permanently failed, the stream stops."""
        from repro.faas import CampaignJob, WorkloadSpec, iter_partial_merges

        spec = tiny_spec()
        bad = CampaignJob(
            benchmark="does_not_exist", platform=spec.platforms[0].with_era("2024"),
            memory_mb=None, seed_index=0, seed=0,
            workload=WorkloadSpec.burst(2), repetitions=1,
        )
        broken = CampaignSpec.from_dict({**spec.to_dict(), "cells": [bad.to_dict()]})
        run = GridRun.create(broken, tmp_path / "run")
        report = run_grid_worker(run, workers=1, max_retries=0)
        assert report.failed == 1
        snapshots = list(iter_partial_merges(run, interval_s=0.01))
        campaign, done, failed, total = snapshots[-1]
        assert total == 5
        assert done == 4
        assert failed == 1
        assert len(campaign.cells) == 4

    def test_max_polls_bounds_an_unfinished_run(self, tmp_path):
        from repro.faas import iter_partial_merges

        run = GridRun.create(tiny_spec(), tmp_path / "run")  # nothing executed
        snapshots = list(iter_partial_merges(run, interval_s=0.01, max_polls=3))
        assert len(snapshots) == 3
        assert all(done == 0 for _, done, _, _ in snapshots)
