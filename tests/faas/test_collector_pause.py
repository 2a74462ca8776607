"""The cyclic collector pause around cells, cache scans and merges.

``collector_paused`` is only free if the paused work makes no reference
cycles: anything cyclic it dropped would wait for the next collection
instead of being freed at once.  These tests run every benchmark on every
platform kind, under a burst and a poisson workload, then the merge and
both decoders, with the collector off, and require that a collection
afterwards finds nothing.  They also pin that the pause hands the caller back the
collector state it had, also when the paused body raises.
"""

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.benchmarks.registry import ALL_BENCHMARKS
from repro.faas.backends import MemoryBackend
from repro.faas.campaign import (
    CampaignSpec, collector_paused, drive_cells, execute_job_inline, run_campaign, run_cells,
)
from repro.faas.grid import GridRun, merge_run, run_grid_worker
from repro.faas import grid as grid_module
from repro.faas.results import result_from_columns, result_from_dict, result_to_columns

SPEC = CampaignSpec(
    benchmarks=tuple(sorted(ALL_BENCHMARKS)),
    platforms=("aws", "gcp", "azure", "hpc"),
    seeds=(0,),
    workloads=("burst:burst_size=2", "poisson:rate=2,duration=2"),
)


def cyclic_garbage(work) -> Counter:
    """Types of the unreachable objects ``work()`` leaves, the collector off.

    ``DEBUG_SAVEALL`` keeps what the collection finds in ``gc.garbage``, so
    a failure names the object types that formed cycles.
    """
    gc.collect()
    flags = gc.get_debug()
    with collector_paused():
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return Counter(type(obj).__qualname__ for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()


@pytest.fixture(scope="module")
def grid():
    """Every cell of ``SPEC`` run once through a grid worker, then checked."""
    run = GridRun.create(SPEC, backend=MemoryBackend(name="acyclic"), shard_count=2)
    garbage = cyclic_garbage(lambda: run_grid_worker(run, workers=1))
    return run, garbage


def test_cells_make_no_reference_cycles(grid):
    _, garbage = grid
    assert len(SPEC.expand()) == len(ALL_BENCHMARKS) * 4 * 2
    assert not garbage, garbage.most_common(10)


def test_merge_makes_no_reference_cycles(grid):
    run, _ = grid
    garbage = cyclic_garbage(lambda: merge_run(run))
    assert not garbage, garbage.most_common(10)


def test_decoders_make_no_reference_cycles(grid):
    run, _ = grid
    documents = [cell["result"] for cell in
                 merge_run(run).to_dict(include_results=True)["cells"]]
    columns = [result_to_columns(document) for document in documents]
    for decode, encoded in ((result_from_dict, documents), (result_from_columns, columns)):
        garbage = cyclic_garbage(lambda: [decode(each) for each in encoded])
        assert not garbage, (decode.__name__, garbage.most_common(10))


def test_a_cache_scan_makes_no_reference_cycles(tmp_path):
    spec = replace(SPEC, platforms=("aws",), workloads=("burst:burst_size=2",))
    run_campaign(spec, workers=1, cache_dir=tmp_path)
    hits = []

    def never_fails(failure):
        raise AssertionError(failure)

    garbage = cyclic_garbage(lambda: drive_cells(spec.expand(), 1, tmp_path,
                                                 hits.extend, never_fails))
    assert len(hits) == len(ALL_BENCHMARKS)
    assert all(result is not None for _, _, result, _ in hits)
    assert not garbage, garbage.most_common(10)


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def caller_state(request):
    """The collector state a caller holds around the call under test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_a_cell_restores_the_callers_collector_state(caller_state):
    [job] = CampaignSpec(benchmarks=("function_chain",), platforms=("aws",),
                         seeds=(0,), burst_size=2).expand()
    execute_job_inline(job)
    assert gc.isenabled() is caller_state
    with pytest.raises(KeyError, match="unknown benchmark"):
        execute_job_inline(replace(job, benchmark="no_such_benchmark"))
    assert gc.isenabled() is caller_state


def test_a_raising_cache_scan_restores_the_callers_collector_state(caller_state, tmp_path):
    spec = CampaignSpec(benchmarks=("function_chain",), platforms=("aws",),
                        seeds=(0,), burst_size=2)
    run_campaign(spec, workers=1, cache_dir=tmp_path)
    assert gc.isenabled() is caller_state

    def deliver(cells):
        raise RuntimeError("sink failed")

    with pytest.raises(RuntimeError, match="sink failed"):
        drive_cells(spec.expand(), 1, tmp_path, deliver, lambda failure: None)
    assert gc.isenabled() is caller_state


def test_nested_pauses_restore_the_outermost_callers_state(caller_state):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit must not re-enable
        with pytest.raises(RuntimeError, match="inner"):
            with collector_paused():
                raise RuntimeError("inner")
        assert not gc.isenabled()
    assert gc.isenabled() is caller_state


def test_a_merge_restores_the_callers_collector_state(caller_state, monkeypatch):
    spec = CampaignSpec(benchmarks=("function_chain",), platforms=("aws",),
                        seeds=(0, 1), burst_size=2)
    run = GridRun.create(spec, backend=MemoryBackend(name="merge-state"), shard_count=1)
    run_grid_worker(run, workers=1)
    assert gc.isenabled() is caller_state
    assert len(merge_run(run).cells) == 2
    assert gc.isenabled() is caller_state

    def decoder_fails(document):
        raise RuntimeError("decoder failed")

    monkeypatch.setattr(grid_module, "result_from_columns", decoder_fails)
    with pytest.raises(RuntimeError, match="decoder failed"):
        merge_run(run)
    assert gc.isenabled() is caller_state


def test_the_serial_loop_runs_paused_and_restores_the_callers_state(caller_state):
    """One pause spans the whole serial loop, the sink included, so the
    collector is off when a cell settles; a raising cell or sink leaves
    the caller's state as it was."""
    jobs = CampaignSpec(benchmarks=("function_chain", "no_such_benchmark"),
                        platforms=("aws",), seeds=(0,), burst_size=2).expand()
    settled, failures = [], []
    run_cells(jobs, 1, lambda cells: settled.append(gc.isenabled()), failures.append,
              max_retries=0)
    assert settled == [False]
    assert [failure.job.benchmark for failure in failures] == ["no_such_benchmark"]
    assert gc.isenabled() is caller_state

    def sink_fails(cells):
        raise RuntimeError("sink failed")

    with pytest.raises(RuntimeError, match="sink failed"):
        run_cells(jobs, 1, sink_fails, failures.append, max_retries=0)
    assert gc.isenabled() is caller_state
