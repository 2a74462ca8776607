"""Tests for the sharded, resumable, multi-host grid execution subsystem."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas import (
    CampaignSpec,
    GridRun,
    LeaseQueue,
    ResultLog,
    grid_status,
    merge_run,
    parse_shard,
    plan_shards,
    run_campaign,
    run_grid_worker,
    shard_of,
)


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
        ours = LeaseQueue(tmp_path, worker_id="a")
        theirs = LeaseQueue(tmp_path, worker_id="b")
        assert ours.claim(self.FP)
        assert not theirs.claim(self.FP)
        assert self.FP in theirs.active()
        ours.release(self.FP)
        assert theirs.claim(self.FP)

    def test_expired_lease_is_reclaimed(self, tmp_path):
        """Acceptance: a crashed worker's cells come back after the TTL."""
        clock = FakeClock()
        crashed = LeaseQueue(tmp_path, worker_id="crashed", ttl_s=30.0, clock=clock)
        rescuer = LeaseQueue(tmp_path, worker_id="rescuer", ttl_s=60.0, clock=clock)
        assert crashed.claim(self.FP)
        assert not rescuer.claim(self.FP)
        clock.advance(31.0)
        assert rescuer.active() == {}
        assert rescuer.claim(self.FP)
        assert rescuer.read(self.FP)["worker"] == "rescuer"

    def test_renew_extends_the_deadline(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, worker_id="a", ttl_s=30.0, clock=clock)
        assert queue.claim(self.FP)
        first = queue.read(self.FP)["deadline"]
        clock.advance(5.0)
        queue.renew(self.FP)
        assert queue.read(self.FP)["deadline"] > first

    def test_corrupt_lease_is_reclaimable(self, tmp_path):
        queue = LeaseQueue(tmp_path, worker_id="a")
        (tmp_path / f"{self.FP}.lease").write_text("{ not json")
        assert queue.claim(self.FP)

    def test_stale_worker_cannot_renew_or_release_a_reclaimed_lease(self, tmp_path):
        """A worker that stalled past its TTL must not clobber (or delete)
        the claim of the rival that legitimately reclaimed its cell."""
        clock = FakeClock()
        stale = LeaseQueue(tmp_path, worker_id="stale", ttl_s=30.0, clock=clock)
        rival = LeaseQueue(tmp_path, worker_id="rival", ttl_s=600.0, clock=clock)
        assert stale.claim(self.FP)
        clock.advance(31.0)
        assert rival.claim(self.FP)
        assert stale.renew(self.FP) is False
        assert rival.read(self.FP)["worker"] == "rival"
        stale.release(self.FP)
        assert rival.read(self.FP)["worker"] == "rival"
        assert rival.renew(self.FP) is True

    def test_done_marker_is_never_reclaimable(self, tmp_path):
        """A finished cell's done marker blocks claims forever -- it has no
        deadline, so it must not fall through to the expired-reclaim path."""
        clock = FakeClock()
        finisher = LeaseQueue(tmp_path, worker_id="finisher", ttl_s=1.0, clock=clock)
        finisher.mark_done(self.FP)
        clock.advance(3600.0)  # long past any TTL
        late = LeaseQueue(tmp_path, worker_id="late", ttl_s=60.0, clock=clock)
        assert late.claim(self.FP) is False
        assert late.active() == {}  # not a live lease either

    def test_no_temp_files_left_behind(self, tmp_path):
        queue = LeaseQueue(tmp_path, worker_id="a")
        queue.claim(self.FP)
        LeaseQueue(tmp_path, worker_id="b").claim(self.FP)
        queue.release(self.FP)
        assert list(tmp_path.glob("*.tmp")) == []


class TestResultLog:
    def test_append_and_iterate(self, tmp_path):
        log = ResultLog(tmp_path / "log.jsonl")
        log.append({"fingerprint": "a", "result": {}})
        log.append({"fingerprint": "b", "result": {}})
        assert [record["fingerprint"] for record in log] == ["a", "b"]
        assert len(log) == 2

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        """A worker killed mid-append must not poison the log."""
        path = tmp_path / "log.jsonl"
        log = ResultLog(path)
        log.append({"fingerprint": "a"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "b", "resu')  # no newline: killed here
        assert [record["fingerprint"] for record in log] == ["a"]
        # ...and a retry's append after the truncated line still parses.
        log.append({"fingerprint": "c"})
        assert [record["fingerprint"] for record in log] == ["a", "c"]

    def test_missing_file_iterates_empty(self, tmp_path):
        assert list(ResultLog(tmp_path / "nope.jsonl")) == []


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
        crashed = LeaseQueue(run.leases_dir, worker_id="crashed", ttl_s=30.0,
                             clock=clock)
        assert crashed.claim(victim.fingerprint())
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
        holder = LeaseQueue(run.leases_dir, worker_id="other-host", ttl_s=300.0)
        assert holder.claim(victim.fingerprint())
        report = run_grid_worker(run, workers=1)
        assert report.skipped_leased == 1
        assert report.executed == 3
        statuses = grid_status(run)
        assert sum(s.leased for s in statuses) == 1

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
        run.shard_log(0, "host-b").append({"fingerprint": "x", "shard": 0})
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
        stale = LeaseQueue(run.leases_dir, worker_id="stale-scan", ttl_s=60.0)
        assert stale.claim(fingerprint) is False

    def test_unmergeable_result_record_does_not_mark_the_cell_done(self, tmp_path):
        """Regression: a record whose result payload cannot merge must leave
        the cell pending (re-executable), not wedge it as done-but-missing."""
        spec = tiny_spec(platforms=("aws",), seeds=(0,))
        run = GridRun.create(spec, tmp_path / "run", shard_count=1)
        job = spec.expand()[0]
        run.shard_log(0, "bad-writer").append({
            "fingerprint": job.fingerprint(), "shard": 0,
            "result": "not a result document",
        })
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
            clone.shard_log(int(record["shard"]), "rewrite").append(record)
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
        log = clone.shard_log(0, "noise")
        log.append({"fingerprint": "0" * 64, "shard": 0, "result": {}})  # not in spec
        log.append({"fingerprint": records[0]["fingerprint"], "shard": 0})  # no result
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
        assert json.dumps(merge_run(clone).to_dict(), sort_keys=True) == \
            json.dumps(merge_run(executed_run).to_dict(), sort_keys=True)


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
