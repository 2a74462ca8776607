"""Tests for the parallel experiment campaign subsystem."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.campaign import CampaignError, CampaignSpec, derive_job_seed, run_campaign
from repro.faas.experiment import ExperimentConfig, ExperimentRunner, run_benchmark
from repro.faas.results import (
    result_from_dict, result_to_dict, result_from_columns, result_to_columns,
)
from repro.faas.workload import WorkloadSpec
from repro.benchmarks import get_benchmark
from repro.sim.platforms import PlatformSpec, load_scenarios


# Crash injection for the broken-pool tests: must be module-level functions so
# the pool can pickle them by reference, and must spare the parent (pytest)
# process.  Crash state is communicated to forked children via environment.
from repro.faas.campaign import _execute_job as _real_execute_job  # noqa: E402

_PARENT_PID = os.getpid()


def _crash_pool_worker_once_per_cell(payload):
    """Hard-kill the host process the first time each mapreduce cell runs."""
    if payload["benchmark"] == "mapreduce" and os.getpid() != _PARENT_PID:
        flag = os.path.join(
            os.environ["REPRO_TEST_CRASH_FLAGS"],
            f"{payload['benchmark']}-{payload['seed_index']}",
        )
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8"):
                pass
            os._exit(1)  # simulated OOM kill mid-cell
    return _real_execute_job(payload)


def _always_crash_pool_worker(payload):
    """Hard-kill the host process every time a mapreduce cell runs."""
    if payload["benchmark"] == "mapreduce" and os.getpid() != _PARENT_PID:
        os._exit(1)
    return _real_execute_job(payload)


def _short_chunk(payloads):
    """Protocol-violating chunk worker: drops every envelope."""
    return []


#: Cache-entry results broken in ways a decoder could let escape as an
#: error other than a decode error (a string where an object belongs, an
#: index past a table), or silently misread.
MALFORMED_RESULTS = {
    "platform_spec": lambda document: document["config"].update(platform_spec="aws"),
    "orchestration": lambda document: document.update(orchestration=["x"]),
    # Column-layout entries: a name index past the name table, a column
    # one row short of its table (zip would silently drop the last row), and
    # a packed float column whose base64 text lost its last character.
    "name_index": lambda document: document["functions"]["phase"].__setitem__(
        0, len(document["names"])
    ),
    "ragged_column": lambda document: document["functions"]["request_id"].pop(),
    "truncated_float_column": lambda document: document["functions"]["end"].update(
        f8=document["functions"]["end"]["f8"][:-1]
    ),
}


def small_spec(**overrides) -> CampaignSpec:
    params = dict(
        benchmarks=("mapreduce", "function_chain"),
        platforms=("gcp", "aws", "azure"),
        seeds=(0, 1),
        burst_size=2,
    )
    params.update(overrides)
    return CampaignSpec(**params)


class TestCampaignSpec:
    def test_expansion_covers_the_cross_product(self):
        spec = small_spec(eras=("2022", "2024"), memory_configs=(None, 512))
        jobs = spec.expand()
        assert len(jobs) == 2 * 3 * 2 * 2 * 2
        assert len({job.cell_key for job in jobs}) == len(jobs)

    def test_expansion_order_is_deterministic(self):
        first = [job.fingerprint() for job in small_spec().expand()]
        second = [job.fingerprint() for job in small_spec().expand()]
        assert first == second

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(benchmarks=())
        with pytest.raises(ValueError):
            small_spec(mode="chaotic")
        with pytest.raises(ValueError):
            small_spec(burst_size=0)

    def test_mode_and_burst_size_map_to_a_workload(self):
        assert small_spec(mode="warm", burst_size=7).workloads == (WorkloadSpec.warm(7),)
        assert small_spec(mode="burst", burst_size=7).workloads == (WorkloadSpec.burst(7),)

    def test_jobs_are_picklable_round_trippable(self):
        import pickle

        for job in small_spec().expand():
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            assert clone.experiment_config() == job.experiment_config()


class TestSeedDerivation:
    def test_same_coordinates_same_seed(self):
        assert derive_job_seed(0, "ml", "aws", "2024", None, 0) == \
            derive_job_seed(0, "ml", "aws", "2024", None, 0)

    def test_different_coordinates_different_seeds(self):
        seeds = {
            derive_job_seed(0, benchmark, platform, "2024", None, index)
            for benchmark in ("ml", "mapreduce")
            for platform in ("aws", "gcp", "azure")
            for index in range(4)
        }
        assert len(seeds) == 24

    def test_base_seed_changes_every_cell(self):
        assert derive_job_seed(0, "ml", "aws", "2024", None, 0) != \
            derive_job_seed(1, "ml", "aws", "2024", None, 0)


class TestCampaignExecution:
    def test_serial_campaign_produces_all_cells(self):
        campaign = run_campaign(small_spec(), workers=1)
        assert len(campaign.cells) == 12
        assert campaign.cache_hits == 0
        for cell in campaign.cells:
            assert cell.result.summary is not None
            assert cell.result.summary.invocations == 2
            assert cell.result.cost is not None

    def test_cell_lookup_matches_direct_run(self):
        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,))
        campaign = run_campaign(spec, workers=1)
        job = spec.expand()[0]
        direct = run_benchmark(
            get_benchmark("mapreduce"), "aws", workload=WorkloadSpec.burst(2), seed=job.seed
        )
        assert campaign.cell("mapreduce", "aws").median_runtime == \
            pytest.approx(direct.median_runtime)

    def test_unknown_cell_lookup_raises(self):
        campaign = run_campaign(
            small_spec(benchmarks=("mapreduce",), platforms=("aws",)), workers=1
        )
        with pytest.raises(KeyError):
            campaign.cell("mapreduce", "gcp")

    def test_parallel_equals_serial(self):
        spec = small_spec()
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2)
        assert serial.aggregated_medians() == pooled.aggregated_medians()
        assert serial.comparison_table() == pooled.comparison_table()
        assert serial.cost_table() == pooled.cost_table()

    def test_acceptance_sweep_runs_in_parallel(self):
        """Acceptance: >= 2 benchmarks x 3 platforms x 2 seeds, in parallel."""
        spec = small_spec()
        campaign = run_campaign(spec, workers=2)
        assert len(campaign.cells) == 2 * 3 * 2
        medians = campaign.aggregated_medians()
        assert len(medians) == 6
        assert all(value > 0 for value in medians.values())


class TestCampaignCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws", "gcp"))
        first = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert first.cache_hits == 0
        second = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert second.cache_hits == len(second.cells) == 4
        assert first.aggregated_medians() == second.aggregated_medians()
        assert first.cost_table() == second.cost_table()

    def test_changed_spec_misses_the_cache(self, tmp_path):
        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",))
        run_campaign(spec, workers=1, cache_dir=tmp_path)
        changed = small_spec(benchmarks=("mapreduce",), platforms=("aws",), burst_size=3)
        rerun = run_campaign(changed, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0

    def test_completed_cells_are_cached_even_if_a_later_cell_fails(self, tmp_path):
        """An interrupted campaign keeps the work it already did."""
        bad_spec = small_spec(benchmarks=("mapreduce", "does_not_exist"),
                              platforms=("aws",), seeds=(0,))
        with pytest.raises(CampaignError):
            run_campaign(bad_spec, workers=1, cache_dir=tmp_path)
        good_spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,))
        rerun = run_campaign(good_spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 1

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,))
        run_campaign(spec, workers=1, cache_dir=tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text("{ not json")
        rerun = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.cells[0].result.summary is not None

    def test_entry_deleted_between_scan_and_load_is_recomputed(self, tmp_path, monkeypatch):
        """The scan is only a hint: a file it saw may be gone by load time."""
        from repro.faas import campaign as campaign_module

        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,))
        first = run_campaign(spec, workers=1, cache_dir=tmp_path)
        real_scan = campaign_module.scan_cache_fingerprints

        def scan_then_delete(cache_dir):
            fingerprints = real_scan(cache_dir)
            for path in tmp_path.glob("*.json"):
                path.unlink()
            return fingerprints

        monkeypatch.setattr(campaign_module, "scan_cache_fingerprints", scan_then_delete)
        job = spec.expand()[0]
        assert job.fingerprint() in real_scan(tmp_path)
        rerun = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.aggregated_medians() == first.aggregated_medians()
        # ... and the recomputed cell was written back.
        assert job.fingerprint() in real_scan(tmp_path)
        assert list(campaign_module.iter_cached_cells(tmp_path / "gone", [job])) == \
            [(job, None, None)]

    def test_store_leaves_a_rival_writers_temp_file_alone(self, tmp_path):
        """Two writers of one cell (a duplicate after a lease reclaim, two
        workers sharing a cache) must not share a temp file: the first
        writer's rename would publish the rival's half-written temp, and the
        rival's own rename would then fail."""
        from repro.faas.campaign import (
            _cache_path, _store_cached, execute_job_inline, iter_cached_cells,
        )

        job = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,)).expand()[0]
        document = execute_job_inline(job)
        rival = _cache_path(tmp_path, job).with_suffix(".tmp")
        rival.write_text("half-written by a rival")
        _store_cached(tmp_path, job, result_to_columns(document))
        assert rival.read_text() == "half-written by a rival"
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            sorted([rival.name, f"{job.fingerprint()}.json"])
        [(_, result, _)] = iter_cached_cells(tmp_path, [job])
        assert result_to_dict(result) == document

    def test_stores_make_a_missing_cache_directory_once(self, tmp_path, monkeypatch):
        """A store pays a ``mkdir`` only when the directory is missing: once
        over many stores into a new cache, and again after it was removed."""
        import pathlib
        import shutil

        from repro.faas.campaign import _store_cached, execute_job_inline, iter_cached_cells
        from repro.faas.results import encode_document

        jobs = small_spec(benchmarks=("function_chain",), platforms=("aws", "azure"),
                          seeds=(0, 1, 2)).expand()
        columns = [result_to_columns(execute_job_inline(job)) for job in jobs]
        made, real_mkdir = [], pathlib.Path.mkdir

        def mkdir(path, *args, **kwargs):
            made.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", mkdir)
        cache = tmp_path / "cache"
        for job, document in zip(jobs, columns):
            _store_cached(cache, job, document)
        assert made == [cache]
        shutil.rmtree(cache)
        _store_cached(cache, jobs[0], encode_document(columns[0]))
        assert made == [cache, cache]
        [(_, result, _)] = iter_cached_cells(cache, jobs[:1])
        assert result_to_columns(result_to_dict(result)) == columns[0]

    def test_undecodable_entry_probes_as_a_miss(self, tmp_path):
        """The dry run agrees with the run: an entry with the current version
        and fingerprint whose result does not decode is a miss for both."""
        from repro.faas.campaign import _cache_path, probe_cache

        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,))
        job = spec.expand()[0]
        run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert probe_cache(tmp_path, job)
        path = _cache_path(tmp_path, job)
        entry = json.loads(path.read_text())
        entry["result"] = {}
        path.write_text(json.dumps(entry))
        assert not probe_cache(tmp_path, job)
        assert run_campaign(spec, workers=1, cache_dir=tmp_path).cache_hits == 0
        assert probe_cache(tmp_path, job)  # the rerun rewrote the entry

    @pytest.mark.parametrize("shape", sorted(MALFORMED_RESULTS))
    def test_malformed_entry_probes_as_a_miss(self, tmp_path, shape):
        from repro.faas.campaign import _cache_path, probe_cache

        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",), seeds=(0,))
        job = spec.expand()[0]
        run_campaign(spec, workers=1, cache_dir=tmp_path)
        path = _cache_path(tmp_path, job)
        entry = json.loads(path.read_text())
        MALFORMED_RESULTS[shape](entry["result"])
        path.write_text(json.dumps(entry))
        assert not probe_cache(tmp_path, job)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_RESULTS))
    def test_malformed_entry_is_recomputed(self, tmp_path, shape):
        from repro.faas.campaign import _cache_path, probe_cache

        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",), seeds=(0,))
        job = spec.expand()[0]
        first = run_campaign(spec, workers=1, cache_dir=tmp_path)
        path = _cache_path(tmp_path, job)
        entry = json.loads(path.read_text())
        MALFORMED_RESULTS[shape](entry["result"])
        path.write_text(json.dumps(entry))
        rerun = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.to_dict(include_results=True)["cells"][0]["result"] == \
            first.to_dict(include_results=True)["cells"][0]["result"]
        assert probe_cache(tmp_path, job)  # the rerun rewrote the entry


class TestFaultIsolation:
    def test_campaign_error_names_the_failed_job(self):
        spec = small_spec(benchmarks=("does_not_exist",), platforms=("aws",), seeds=(0,))
        with pytest.raises(CampaignError, match="does_not_exist") as excinfo:
            run_campaign(spec, workers=1, max_retries=0)
        failure = excinfo.value.failures[0]
        assert failure.job.fingerprint()[:12] in str(excinfo.value)
        assert failure.job.cell_key[0] == "does_not_exist"
        assert failure.attempts == 1

    def test_campaign_error_carries_the_completed_cells(self):
        """Without a cache_dir, the completed cells must not be lost: they
        ride along on the exception as a partial CampaignResult."""
        spec = small_spec(benchmarks=("mapreduce", "does_not_exist"),
                          platforms=("aws",), seeds=(0,))
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(spec, workers=1, max_retries=0)
        partial = excinfo.value.partial
        assert partial is not None
        assert [cell.job.benchmark for cell in partial.cells] == ["mapreduce"]
        assert partial.cells[0].result.summary is not None

    def test_pooled_campaign_salvages_every_completed_cell(self, tmp_path):
        """Regression: a raising future used to abort the whole pool run,
        abandoning in-flight cells; now every good cell is finished and
        cached before the CampaignError is raised."""
        bad_spec = small_spec(
            benchmarks=("mapreduce", "does_not_exist", "function_chain"),
            platforms=("aws",), seeds=(0, 1),
        )
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(bad_spec, workers=2, cache_dir=tmp_path, max_retries=0)
        assert len(excinfo.value.failures) == 2  # both seeds of the bad benchmark
        good_spec = small_spec(
            benchmarks=("mapreduce", "function_chain"), platforms=("aws",),
            seeds=(0, 1),
        )
        rerun = run_campaign(good_spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 4

    def test_transient_failure_is_retried(self, monkeypatch):
        from repro.faas import campaign as campaign_module

        real_execute = campaign_module._execute_job
        seen = set()

        def flaky(payload):
            key = json.dumps(payload, sort_keys=True)
            if key not in seen:
                seen.add(key)
                raise OSError("transient worker failure")
            return real_execute(payload)

        monkeypatch.setattr(campaign_module, "_execute_job", flaky)
        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",), seeds=(0,))
        campaign = run_campaign(spec, workers=1)  # default max_retries=1
        assert campaign.cells[0].result.summary is not None

    def test_exhausted_retries_raise_with_attempt_count(self, monkeypatch):
        from repro.faas import campaign as campaign_module

        def always_failing(payload):
            raise OSError("permanent failure")

        monkeypatch.setattr(campaign_module, "_execute_job", always_failing)
        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",), seeds=(0,))
        with pytest.raises(CampaignError, match="permanent failure") as excinfo:
            run_campaign(spec, workers=1, max_retries=2)
        assert excinfo.value.failures[0].attempts == 3

    def test_negative_max_retries_rejected(self):
        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",), seeds=(0,))
        with pytest.raises(ValueError, match="max_retries"):
            run_campaign(spec, workers=1, max_retries=-1)

    def test_broken_pool_recovers_from_a_transient_crash(self, monkeypatch, tmp_path):
        """A pool worker killed hard (OOM, segfault) must not abort the
        campaign: unfinished cells are drained in fresh isolated pools, so a
        transiently crashing cell completes on its retry."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("crash injection relies on the fork start method")
        from repro.faas import campaign as campaign_module

        monkeypatch.setenv("REPRO_TEST_CRASH_FLAGS", str(tmp_path))
        monkeypatch.setattr(
            campaign_module, "_execute_job", _crash_pool_worker_once_per_cell
        )
        spec = small_spec(benchmarks=("mapreduce", "function_chain"),
                          platforms=("aws",), seeds=(0, 1))
        campaign = run_campaign(spec, workers=2)
        assert len(campaign.cells) == 4
        assert all(cell.result.summary is not None for cell in campaign.cells)

    def test_broken_pool_isolates_a_deterministic_crasher(self, monkeypatch):
        """A cell that hard-kills its host on every attempt must end as a
        CellFailure -- never re-executed in (and killing) the parent -- while
        innocent cells still complete and ride on the partial result."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("crash injection relies on the fork start method")
        from repro.faas import campaign as campaign_module

        monkeypatch.setattr(
            campaign_module, "_execute_job", _always_crash_pool_worker
        )
        spec = small_spec(benchmarks=("mapreduce", "function_chain"),
                          platforms=("aws",), seeds=(0, 1))
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(spec, workers=2)
        assert {f.job.benchmark for f in excinfo.value.failures} == {"mapreduce"}
        partial = excinfo.value.partial
        assert [cell.job.benchmark for cell in partial.cells] == \
            ["function_chain", "function_chain"]


class TestChunkedDispatch:
    """The batched run_cells path: per-cell isolation inside multi-cell chunks."""

    def test_chunk_worker_isolates_per_cell_faults(self):
        """_execute_chunk returns one envelope per payload; a raising cell
        yields an error envelope while chunk-mates still return results."""
        from repro.faas.campaign import _execute_chunk

        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",),
                          seeds=(0,))
        good = spec.expand()[0].to_dict()
        bad = dict(good, benchmark="no_such_benchmark")
        envelopes = _execute_chunk([good, bad, good])
        assert len(envelopes) == 3
        assert "document" in envelopes[0] and "elapsed_s" in envelopes[0]
        assert "error" in envelopes[1] and "no_such_benchmark" in envelopes[1]["error"]
        assert envelopes[2]["document"] == envelopes[0]["document"]

    def test_bad_cell_fails_alone_with_full_attempt_count(self):
        """Enough cheap cells that the adaptive chunker batches several per
        task: the bad cells must burn max_retries+1 attempts and become the
        only CellFailures, while every sibling in their chunks completes."""
        from repro.faas.campaign import run_cells

        spec = small_spec(
            benchmarks=("function_chain", "no_such_benchmark"),
            platforms=("aws",), seeds=tuple(range(6)),
        )
        jobs = spec.expand()
        finished, failures = {}, []
        run_cells(jobs, 2,
                  lambda settled: finished.update(
                      (job.fingerprint(), document) for job, document, _ in settled),
                  failures.append, max_retries=1)
        assert len(finished) == 6
        assert len(failures) == 6
        assert all(f.job.benchmark == "no_such_benchmark" for f in failures)
        assert all(f.attempts == 2 for f in failures)

    def test_chunk_protocol_mismatch_becomes_cell_failures(self, monkeypatch):
        """A worker returning the wrong envelope count is a bug, but the
        affected cells must surface as failures, never vanish."""
        from repro.faas import campaign as campaign_module

        monkeypatch.setattr(campaign_module, "_execute_chunk", _short_chunk)
        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",),
                          seeds=(0, 1))
        jobs = spec.expand()
        finished, failures = {}, []
        campaign_module.run_cells(
            jobs, 2,
            lambda settled: finished.update(
                (job.fingerprint(), document) for job, document, _ in settled),
            failures.append, max_retries=0)
        assert not finished
        assert len(failures) == 2
        assert all("ChunkProtocolError" in f.error for f in failures)

    def test_chunk_successes_survive_a_pool_break_on_retry(self, monkeypatch):
        """A chunk mixing a success and an error, whose retry submit finds
        the pool broken: the success must still be delivered exactly once,
        and the erroring cell drained into a CellFailure."""
        from collections import Counter
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.faas import campaign as campaign_module

        class InlinePool:
            """Completes chunks at submit; breaks once an error was returned."""

            broken = False

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, payloads):
                if InlinePool.broken:
                    raise BrokenProcessPool("a sibling worker was killed")
                envelopes = []
                for payload in payloads:
                    if payload["benchmark"] == "no_such_benchmark":
                        InlinePool.broken = True
                        envelopes.append({"error": "KeyError: no_such_benchmark"})
                    else:
                        envelopes.append({"document": {"seed": payload["seed_index"]},
                                          "elapsed_s": 0.0})
                future = Future()
                future.set_result(envelopes)
                return future

        monkeypatch.setattr(campaign_module, "ProcessPoolExecutor", InlinePool)
        good = small_spec(benchmarks=("function_chain",), platforms=("aws",),
                          seeds=tuple(range(5))).expand()
        bad = small_spec(benchmarks=("no_such_benchmark",), platforms=("aws",),
                         seeds=(0,)).expand()
        # Two workers open a window of four single-cell chunks; the zero
        # observed cost then batches the last good cell with the bad one.
        delivered, failures = Counter(), []
        campaign_module.run_cells(
            good + bad, 2,
            lambda settled: delivered.update(job.fingerprint() for job, _, _ in settled),
            failures.append, max_retries=1)
        assert InlinePool.broken
        assert delivered == Counter(job.fingerprint() for job in good)
        assert [f.job.fingerprint() for f in failures] == [bad[0].fingerprint()]

    @settings(max_examples=4, deadline=None)
    @given(
        benchmarks=st.sets(
            st.sampled_from(["function_chain", "parallel_sleep"]),
            min_size=1, max_size=2),
        platforms=st.sets(
            st.sampled_from(["aws", "gcp", "azure"]), min_size=1, max_size=2),
        seed_count=st.integers(min_value=1, max_value=3),
        burst=st.integers(min_value=1, max_value=3),
    )
    def test_chunked_documents_identical_to_unchunked(
            self, benchmarks, platforms, seed_count, burst):
        """Batched pool dispatch is pure plumbing: every cell's document must
        be byte-identical to inline (unchunked, single-process) execution."""
        from repro.faas.campaign import execute_job_inline, run_cells

        spec = CampaignSpec(
            benchmarks=tuple(sorted(benchmarks)),
            platforms=tuple(sorted(platforms)),
            seeds=tuple(range(seed_count)), burst_size=burst,
        )
        jobs = spec.expand()
        inline = {job.fingerprint(): result_to_columns(execute_job_inline(job))
                  for job in jobs}
        chunked, failures = {}, []
        run_cells(jobs, 2,
                  lambda settled: chunked.update(
                      (job.fingerprint(), document) for job, document, _ in settled),
                  failures.append)
        assert not failures
        assert chunked.keys() == inline.keys()
        for fingerprint, document in inline.items():
            assert json.dumps(chunked[fingerprint], sort_keys=True) == \
                json.dumps(document, sort_keys=True)


class TestSpecRoundTrip:
    def test_spec_from_dict_is_exact(self):
        spec = small_spec(
            platforms=("aws", "gcp:cold_start=x0.5", "azure@2022"),
            memory_configs=(None, 512),
            workloads=("burst:burst_size=2", "poisson:rate=2,duration=10"),
        )
        clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.to_dict() == spec.to_dict()
        assert [job.fingerprint() for job in clone.expand()] == \
            [job.fingerprint() for job in spec.expand()]


class TestCampaignAggregation:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(small_spec(), workers=1)

    def test_comparison_table_has_one_row_per_group(self, campaign):
        rows = campaign.comparison_table()
        assert len(rows) == 6
        for row in rows:
            assert row["seeds"] == 2
            assert row["invocations"] == 4
            assert row["median_runtime_s"] > 0

    def test_cost_table_totals_positive(self, campaign):
        rows = campaign.cost_table()
        assert len(rows) == 6
        assert all(row["total"] > 0 for row in rows)

    def test_by_benchmark_platform_shape(self, campaign):
        grouped = campaign.by_benchmark_platform()
        assert set(grouped) == {"mapreduce", "function_chain"}
        assert set(grouped["mapreduce"]) == {"gcp", "aws", "azure"}

    def test_scaling_profiles_shape(self, campaign):
        profiles = campaign.scaling_profiles()
        assert set(profiles) == {"mapreduce", "function_chain"}
        for per_platform in profiles.values():
            for profile in per_platform.values():
                assert profile

    def test_memory_sweep_defaults_to_first_configuration(self):
        spec = small_spec(benchmarks=("function_chain",), platforms=("aws",),
                          memory_configs=(512, 1024), seeds=(0,))
        campaign = run_campaign(spec, workers=1)
        assert campaign.cell("function_chain", "aws").config.memory_mb == 512
        assert campaign.cell("function_chain", "aws", memory_mb=1024).config.memory_mb == 1024
        assert set(campaign.by_benchmark_platform()) == {"function_chain"}
        assert set(campaign.scaling_profiles()) == {"function_chain"}

    def test_to_dict_is_json_serialisable(self, campaign):
        document = campaign.to_dict()
        encoded = json.loads(json.dumps(document))
        assert len(encoded["cells"]) == 12
        assert len(encoded["comparison_table"]) == 6


class TestPlatformSpecSweep:
    def test_spec_entries_sweep_alongside_plain_names(self):
        spec = small_spec(
            benchmarks=("function_chain",),
            platforms=("aws", "aws:cold_start=x5"),
            seeds=(0,),
        )
        campaign = run_campaign(spec, workers=1)
        assert len(campaign.cells) == 2
        plain = campaign.cell("function_chain", "aws")
        varied = campaign.cell("function_chain", "aws:cold_start=x5")
        assert varied.median_runtime > plain.median_runtime

    def test_era_pinned_entry_pairs_with_the_era_dimension(self):
        """An "aws@2022" platform entry is the same cell -- same seed, same
        fingerprint -- as a plain "aws" entry crossed with eras=("2022",)."""
        by_dimension = small_spec(
            benchmarks=("mapreduce",), platforms=("aws",), eras=("2022",), seeds=(0,)
        ).expand()
        by_pin = small_spec(
            benchmarks=("mapreduce",), platforms=("aws@2022",), seeds=(0,)
        ).expand()
        assert len(by_dimension) == len(by_pin) == 1
        assert by_dimension[0].seed == by_pin[0].seed
        assert by_dimension[0].fingerprint() == by_pin[0].fingerprint()

    def test_era_pinned_entry_is_swept_once(self):
        jobs = small_spec(
            benchmarks=("mapreduce",), platforms=("aws@2022", "gcp"),
            eras=("2022", "2024"), seeds=(0,),
        ).expand()
        # gcp crosses both eras; aws@2022 ignores the eras dimension.
        assert len(jobs) == 3

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            small_spec(platforms=("aws", "aws"))
        spec = small_spec(
            benchmarks=("mapreduce",), platforms=("aws", "aws@2024"),
            eras=("2024",), seeds=(0,),
        )
        with pytest.raises(ValueError, match="duplicate"):
            spec.expand()

    def test_golden_cell_fingerprint(self):
        """Pinned: cell fingerprints are CACHE_VERSION-3 cache keys.  Old
        string-era (v2) cell documents fail the version check and are
        recomputed; see test_v2_cache_documents_are_invalidated."""
        job = small_spec(
            benchmarks=("mapreduce",), platforms=("aws",), eras=("2022",), seeds=(0,)
        ).expand()[0]
        assert job.seed == 822283549
        assert job.fingerprint() == (
            "6bf1f6538a566ce362667525689a453663f072adb285bc4ac9477534bc890351"
        )

    def test_v2_cache_documents_are_invalidated(self, tmp_path):
        """A cache entry stamped with an earlier version is ignored."""
        from repro.faas.campaign import _ENTRY_LAYOUT, CACHE_VERSION, _cache_path

        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,))
        job = spec.expand()[0]
        first = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert first.cache_hits == 0
        path = _cache_path(tmp_path, job)
        document = json.loads(path.read_text())
        assert CACHE_VERSION == 3
        assert document["version"] == _ENTRY_LAYOUT == 5
        document["version"] = 2
        path.write_text(json.dumps(document))
        rerun = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0

    @pytest.mark.parametrize("field", ["workload", "platform_spec"])
    def test_v3_entries_without_spec_fields_are_cache_misses(self, tmp_path, field):
        """A current-version entry in an earlier result shape is a miss: the
        cell is recomputed, never misread from the flat mode/burst_size/era
        copies that documents still carry."""
        from repro.faas.campaign import _cache_path

        spec = small_spec(benchmarks=("mapreduce",), platforms=("aws",), seeds=(0,))
        job = spec.expand()[0]
        run_campaign(spec, workers=1, cache_dir=tmp_path)
        path = _cache_path(tmp_path, job)
        fresh_entry = path.read_text()
        stale = json.loads(fresh_entry)
        del stale["result"]["config"][field]
        path.write_text(json.dumps(stale))
        rerun = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        # The recomputed cell rewrote the entry with a fresh run's document.
        assert path.read_text() == fresh_entry
        assert result_to_dict(rerun.cells[0].result) == \
            result_to_dict(result_from_columns(json.loads(fresh_entry)["result"]))

    def test_earlier_job_documents_are_rejected(self):
        """v1 job documents (mode/burst_size, bare platform) and v2 ones (a
        workload but a bare platform string) raise instead of decoding."""
        job = small_spec(benchmarks=("mapreduce",), platforms=("aws",)).expand()[0]
        current = json.loads(json.dumps(job.to_dict()))
        v1 = {key: value for key, value in current.items() if key != "workload"}
        v1.update(platform="aws", mode="burst", burst_size=2)
        v2 = dict(current, platform="aws")
        with pytest.raises(KeyError):
            type(job).from_dict(v1)
        with pytest.raises(TypeError):
            type(job).from_dict(v2)

    def test_scenario_cells_run_in_worker_processes(self, tmp_path):
        """Scenario specs are expanded before cells ship to workers, so the
        worker processes never need the parent's scenario registry."""
        scenario_file = tmp_path / "scenarios.json"
        scenario_file.write_text(json.dumps({
            "platforms": {"gcp-sweep-test": {"spec": "gcp:cold_start=x0.5"}}
        }))
        load_scenarios(scenario_file)
        spec = small_spec(
            benchmarks=("function_chain",), platforms=("gcp", "gcp-sweep-test"),
            seeds=(0,),
        )
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2)
        assert serial.aggregated_medians() == pooled.aggregated_medians()
        label = "gcp:scaling.cold_start_median_s=x0.5"
        assert serial.cell("function_chain", "gcp-sweep-test").platform == label
        assert {job.platform_label for job in spec.expand()} == {"gcp", label}

    def test_default_views_include_era_pinned_entries(self):
        """Regression: by_benchmark_platform()/scaling_profiles() must not
        silently drop cells whose platform spec pins a non-default era."""
        spec = small_spec(
            benchmarks=("function_chain",), platforms=("aws@2022", "gcp"), seeds=(0,)
        )
        campaign = run_campaign(spec, workers=1)
        grouped = campaign.by_benchmark_platform()
        assert set(grouped["function_chain"]) == {"aws", "gcp"}
        profiles = campaign.scaling_profiles()
        assert set(profiles["function_chain"]) == {"aws", "gcp"}
        # An explicit era still filters strictly.
        assert set(campaign.by_benchmark_platform(era="2022")["function_chain"]) == {"aws"}

    def test_default_view_disambiguates_same_base_pinned_twice(self):
        spec = small_spec(
            benchmarks=("function_chain",), platforms=("aws@2022", "aws@2024"),
            seeds=(0,),
        )
        campaign = run_campaign(spec, workers=1)
        assert set(campaign.by_benchmark_platform()["function_chain"]) == \
            {"aws@2022", "aws@2024"}

    def test_unknown_pinned_era_rejected_before_execution(self):
        with pytest.raises(ValueError, match="2031"):
            small_spec(platforms=("aws@2031",))
        with pytest.raises(ValueError, match="2031"):
            small_spec(eras=("2031",))
        # Programmatic int eras get the same readable error, not a TypeError.
        with pytest.raises(ValueError, match="2031"):
            small_spec(eras=(2031,))
        # ...and valid int eras are normalised to the string labels.
        assert small_spec(eras=(2022,)).eras == ("2022",)

    def test_runtime_registered_platform_runs_in_parent_process(self):
        """Platforms registered at runtime exist only in this process, so
        their cells must not ship to pool workers."""
        from repro.sim.platforms import aws_profile, register_platform
        from repro.sim.platforms.spec import is_builtin_spec

        register_platform("edge-parent-test", lambda: aws_profile(region="edge-1"))
        spec = small_spec(
            benchmarks=("function_chain",), platforms=("aws", "edge-parent-test"),
            seeds=(0,),
        )
        portable = [job for job in spec.expand() if is_builtin_spec(job.platform)]
        local = [job for job in spec.expand() if not is_builtin_spec(job.platform)]
        assert [job.platform_label for job in portable] == ["aws"]
        assert [job.platform_label for job in local] == ["edge-parent-test"]
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2)
        assert serial.aggregated_medians() == pooled.aggregated_medians()

    def test_runtime_registered_platform_bypasses_the_result_cache(self, tmp_path):
        """The fingerprint cannot cover a runtime factory's behaviour, so
        editing the factory must never serve stale cached cells."""
        from repro.sim.platforms import aws_profile, register_platform

        register_platform("edge-cache-test", lambda: aws_profile(region="edge-1"))
        spec = small_spec(
            benchmarks=("function_chain",), platforms=("edge-cache-test",), seeds=(0,)
        )
        first = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert not list(tmp_path.glob("*.json"))
        # Re-registering with 5x cold starts must be recomputed, not cached.
        register_platform(
            "edge-cache-test",
            lambda: PlatformSpec.parse("aws:cold_start=x5").resolve(),
            overwrite=True,
        )
        rerun = run_campaign(spec, workers=1, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.cells[0].result.median_runtime > first.cells[0].result.median_runtime

    def test_scenario_file_may_pin_an_extrapolated_era(self, tmp_path):
        """A scenario pinning an unregistered era declares it instead of
        registering something unusable."""
        from repro.sim.platforms import available_eras

        scenario_file = tmp_path / "scenarios.json"
        scenario_file.write_text(json.dumps({
            "platforms": {"aws-2031-test": {"base": "aws", "era": "2031",
                                            "overrides": {"cold_start": "x0.5"}}}
        }))
        load_scenarios(scenario_file)
        assert "2031" in available_eras()
        spec = small_spec(
            benchmarks=("function_chain",), platforms=("aws-2031-test",), seeds=(0,)
        )
        campaign = run_campaign(spec, workers=2)
        assert campaign.cells[0].result.summary is not None
        assert campaign.cells[0].job.era == "2031"

    def test_runtime_registered_platform_survives_spawn_workers(self):
        """Regression: under the spawn start method (macOS/Windows default),
        worker processes have a fresh registry; runtime-registered platform
        cells must still complete (they run in the parent)."""
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import multiprocessing as mp
            mp.set_start_method("spawn", force=True)
            from repro.sim.platforms import aws_profile, register_era, register_platform
            from repro.faas.campaign import CampaignSpec, run_campaign
            register_platform("edge-spawn-test", lambda: aws_profile(region="edge-1"))
            register_era("2026")
            spec = CampaignSpec(
                benchmarks=("function_chain",),
                platforms=("aws", "edge-spawn-test", "aws@2026"),
                seeds=(0,), burst_size=2,
            )
            campaign = run_campaign(spec, workers=2)
            assert len(campaign.cells) == 3
            assert all(cell.result.summary is not None for cell in campaign.cells)
            print("SPAWN-OK")
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert completed.returncode == 0, completed.stderr
        assert "SPAWN-OK" in completed.stdout

    def test_jobs_with_spec_platforms_pickle_and_round_trip(self):
        import pickle

        spec = small_spec(
            benchmarks=("mapreduce",), platforms=("azure@2022:cold_start=x1.5",),
            seeds=(0,),
        )
        for job in spec.expand():
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            assert type(job).from_dict(json.loads(json.dumps(job.to_dict()))) == job
            assert job.platform == PlatformSpec.parse("azure@2022:cold_start=x1.5")

    def test_campaign_to_dict_round_trips_spec_platforms(self):
        spec = small_spec(
            benchmarks=("function_chain",), platforms=("aws", "aws@2022"), seeds=(0,)
        )
        campaign = run_campaign(spec, workers=1)
        document = json.loads(json.dumps(campaign.to_dict()))
        assert document["spec"]["platforms"] == ["aws", "aws@2022"]
        assert len(document["cells"]) == 2


class TestResultRoundTrip:
    def test_result_survives_serialisation(self):
        result = ExperimentRunner(
            ExperimentConfig(platform="azure", workload=WorkloadSpec.burst(3),
                             repetitions=2, seed=4)
        ).run(get_benchmark("mapreduce"))
        document = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(document)
        assert restored.config == result.config
        assert len(restored.measurements) == len(result.measurements)
        assert restored.median_runtime == pytest.approx(result.median_runtime)
        assert restored.cold_start_fraction == pytest.approx(result.cold_start_fraction)
        assert restored.cost is not None and result.cost is not None
        assert restored.cost.per_execution.total_usd == \
            pytest.approx(result.cost.per_execution.total_usd)
        assert restored.cost.executions == result.cost.executions
        assert len(restored.orchestration_stats) == len(result.orchestration_stats)
        assert restored.orchestration_stats[0].state_transitions == \
            result.orchestration_stats[0].state_transitions
