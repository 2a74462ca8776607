"""The bench cell catalog: what ``repro-flow bench`` actually times.

Four families of cells, one per layer of the stack the paper's campaigns
exercise:

* ``engine.*`` -- raw event-engine throughput (events per second) on the
  dispatch shapes that dominate real campaigns: an open-loop arrival storm,
  a long yield/timeout process chain, and FIFO resource contention.
* ``campaign.*`` -- whole cells per second through the real worker entry
  (:func:`repro.faas.campaign.execute_job_inline`), and the batched
  ``run_cells`` dispatch path with a live worker pool
  (``campaign.chunked_dispatch``).
* ``metrics.*`` -- the vectorized open-loop reduction over synthetic
  measurement lattices (percentiles, concurrency sweep, latency windows).
* ``grid.*`` -- merge throughput of :func:`repro.faas.grid.merge_run` over a
  synthetic run directory whose shard logs replicate one genuine result
  document across every cell of an expanded sweep.

Every cell is deterministic (fixed seeds, fixed arrival lattices); only the
wall-clock measurements vary between hosts.  The ``quick`` profile sizes
cells for a CI smoke lane, ``full`` for the checked-in ``BENCH_*.json``
numbers.

The catalog is shared: ``benchmarks/conftest.py`` reads the same
:data:`PROFILES` table (``--bench-profile``) so the figure harness and the
bench verb agree on cell sizing instead of duplicating magic numbers.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...observability import EngineMonitor, MetricsRegistry, span, use_registry
from ...sim.engine import Environment, Resource

#: Number of processes contending in the resource cell; capacity stays far
#: below it so the FIFO handoff path (release straight to a waiter) dominates.
CONTENTION_WORKERS = 64
CONTENTION_CAPACITY = 8


@dataclass(frozen=True)
class BenchProfile:
    """Cell sizing for one bench profile (shared with ``benchmarks/``)."""

    name: str
    #: Arrivals in the timeout storm / links in the process chain.
    engine_events: int
    #: Total acquire/release cycles across all contending processes.
    resource_ops: int
    #: Burst size of the campaign bench cells (kept small: the cells time the
    #: whole worker round trip, not a paper-sized sweep).
    campaign_burst: int
    #: Expanded cells in the synthetic grid-merge run.
    merge_cells: int
    #: Timed repetitions per cell (the reported number is their median).
    repetitions: int
    #: Untimed warmup runs per cell.
    warmup: int
    #: Burst size the figure harness (``benchmarks/conftest.py``) runs the
    #: paper campaigns at under this profile.
    figure_burst: int
    #: Lease round trips (claim/renew/append/done) in the backend-ops cells.
    #: Defaulted so older profile literals (tests, benchmarks/) still build.
    backend_ops: int = 100
    #: Worker processes the chunked-dispatch cell drives ``run_cells`` with.
    #: Defaulted so older profile literals (tests, benchmarks/) still build.
    dispatch_workers: int = 2
    #: Synthetic invocations per repetition in the metrics-reduction cell.
    #: Defaulted so older profile literals (tests, benchmarks/) still build.
    metrics_invocations: int = 2_000


PROFILES: Dict[str, BenchProfile] = {
    "quick": BenchProfile(
        name="quick", engine_events=20_000, resource_ops=10_000,
        campaign_burst=4, merge_cells=16, repetitions=3, warmup=1,
        figure_burst=12, backend_ops=120, dispatch_workers=2,
        metrics_invocations=1_000,
    ),
    "full": BenchProfile(
        name="full", engine_events=200_000, resource_ops=60_000,
        campaign_burst=6, merge_cells=48, repetitions=5, warmup=1,
        figure_burst=30, backend_ops=600, dispatch_workers=2,
        metrics_invocations=5_000,
    ),
}


@dataclass(frozen=True)
class BenchSample:
    """One timed run of a cell: how much work in how many seconds."""

    units: int
    seconds: float

    @property
    def rate(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.units / self.seconds


@dataclass(frozen=True)
class BenchCell:
    """A named, self-timing cell of the catalog.

    ``measure`` runs the timed section once and returns a
    :class:`BenchSample`; ``setup`` (optional) builds shared state exactly
    once per cell so expensive preparation -- executing a real campaign cell
    to seed the merge bench, for example -- is excluded from every timed run.
    """

    name: str
    unit: str
    measure: Callable[[BenchProfile, object], BenchSample]
    setup: Optional[Callable[[BenchProfile], object]] = None
    cleanup: Optional[Callable[[object], None]] = None
    description: str = ""

    def params(self, profile: BenchProfile) -> Dict[str, object]:
        """The sizing knobs recorded next to this cell's numbers."""
        return _CELL_PARAMS[self.name](profile)


def schedule_arrivals(env: Environment, delays: Sequence[float],
                      fn: Callable[[], None]) -> int:
    """Schedule ``fn`` at each delay, portably across engine generations.

    Uses the bulk :meth:`~repro.sim.engine.Environment.schedule_batch` lane
    when the engine has one; otherwise falls back to a wrapper process plus a
    ``Timeout`` per arrival -- exactly the dispatch shape ``OpenLoopTrigger``
    used before the bulk lane existed.  The fallback is what makes baseline
    numbers honest: pointed at the seed engine, the storm cell measures the
    code path campaigns actually ran.
    """
    batch = getattr(env, "schedule_batch", None)
    if batch is not None:
        return batch(delays, fn)

    def arrival(delay: float):
        yield env.timeout(delay)
        fn()

    for delay in delays:
        env.process(arrival(delay))
    return len(delays)


# -- engine cells -----------------------------------------------------------

def _measure_timeout_storm(profile: BenchProfile, state: object) -> BenchSample:
    env = Environment()
    n = profile.engine_events
    fired = [0]

    def hit() -> None:
        fired[0] += 1

    delays = [index * 1e-4 for index in range(n)]
    start = perf_counter()
    schedule_arrivals(env, delays, hit)
    env.run()
    elapsed = perf_counter() - start
    if fired[0] != n:
        raise RuntimeError(f"storm dropped arrivals: {fired[0]}/{n}")
    return BenchSample(units=n, seconds=elapsed)


def _measure_telemetry_overhead(profile: BenchProfile,
                                state: object) -> BenchSample:
    """The timeout storm with telemetry fully enabled.

    Same arrival lattice as ``engine.timeout_storm``, but run under a
    recording :class:`MetricsRegistry` with an :class:`EngineMonitor`
    attached through the engine's seam and a span wrapping the run -- the
    most instrumented configuration a campaign cell can see.  Comparing this
    cell's rate against ``engine.timeout_storm`` in the same document bounds
    the *enabled*-path cost; comparing ``engine.timeout_storm`` across bench
    documents bounds the no-op path (gated at <2% by the tier-1 suite).
    """
    registry = MetricsRegistry(name="bench")
    n = profile.engine_events
    fired = [0]

    def hit() -> None:
        fired[0] += 1

    delays = [index * 1e-4 for index in range(n)]
    with use_registry(registry):
        env = Environment()
        set_monitor = getattr(env, "set_monitor", None)
        if set_monitor is not None:
            set_monitor(EngineMonitor())
        start = perf_counter()
        with span("bench_telemetry_storm"):
            schedule_arrivals(env, delays, hit)
            env.run()
        elapsed = perf_counter() - start
    if fired[0] != n:
        raise RuntimeError(f"storm dropped arrivals: {fired[0]}/{n}")
    if set_monitor is not None and \
            registry.counter("repro_engine_events_total").value() < n:
        raise RuntimeError("engine monitor recorded no events; seam broken")
    return BenchSample(units=n, seconds=elapsed)


def _measure_process_chain(profile: BenchProfile, state: object) -> BenchSample:
    env = Environment()
    n = profile.engine_events

    def chain():
        for _ in range(n):
            yield env.timeout(0.001)

    env.process(chain())
    start = perf_counter()
    env.run()
    elapsed = perf_counter() - start
    return BenchSample(units=n, seconds=elapsed)


def _measure_resource_contention(profile: BenchProfile,
                                 state: object) -> BenchSample:
    env = Environment()
    resource = Resource(env, capacity=CONTENTION_CAPACITY)
    cycles_per_worker = max(1, profile.resource_ops // CONTENTION_WORKERS)
    done = [0]

    def worker():
        for _ in range(cycles_per_worker):
            yield resource.acquire()
            yield env.timeout(0.001)
            resource.release()
        done[0] += 1

    for _ in range(CONTENTION_WORKERS):
        env.process(worker())
    start = perf_counter()
    env.run()
    elapsed = perf_counter() - start
    if done[0] != CONTENTION_WORKERS:
        raise RuntimeError(f"contention lost workers: {done[0]}")
    return BenchSample(units=CONTENTION_WORKERS * cycles_per_worker,
                       seconds=elapsed)


# -- campaign cells ---------------------------------------------------------

def _execute_cell(job: object) -> object:
    """Run one campaign cell in-process, portably across repo generations.

    Prefers the public :func:`~repro.faas.campaign.execute_job_inline`;
    older checkouts (the baseline the harness is pointed at when measuring
    pre-optimisation numbers) only have the worker entry, which takes and
    returns plain dictionaries.
    """
    from ...faas import campaign

    runner = getattr(campaign, "execute_job_inline", None)
    if runner is not None:
        return runner(job)
    return campaign._execute_job(job.to_dict())  # type: ignore[attr-defined]

def campaign_jobs(profile: BenchProfile) -> List[object]:
    """The real benchmark x platform x workload cells the campaign bench runs.

    A 16-cell burst sweep -- {function_chain, parallel_sleep} x every builtin
    platform x two seeds -- sized by the profile's ``campaign_burst``.  This
    is the shape real campaigns are dominated by: many modest closed-loop
    cells per worker, where per-cell setup (profile compilation, benchmark
    construction, platform build) is a visible fraction of the cost.  The
    heavier shapes (storage-heavy cells, open-loop poisson) moved to
    ``campaign.chunked_dispatch``, which times them through the batched
    ``run_cells`` path instead of one-at-a-time inline execution.  Import is
    local so ``repro.devtools.bench`` stays importable without the faas layer
    loaded.
    """
    from ...faas.campaign import CampaignSpec

    burst = profile.campaign_burst
    return list(CampaignSpec(
        benchmarks=("function_chain", "parallel_sleep"),
        platforms=("aws", "gcp", "azure", "hpc"),
        seeds=(0, 1),
        workloads=(f"burst:burst_size={burst}",),
    ).expand())


def _setup_campaign(profile: BenchProfile) -> object:
    return campaign_jobs(profile)


def _measure_campaign(profile: BenchProfile, state: object) -> BenchSample:
    jobs = state
    start = perf_counter()
    for job in jobs:
        _execute_cell(job)
    elapsed = perf_counter() - start
    return BenchSample(units=len(jobs), seconds=elapsed)


def chunked_dispatch_jobs(profile: BenchProfile) -> List[object]:
    """The heavier cell mix the chunked-dispatch bench pushes through a pool.

    Storage-heavy bursts on every builtin platform plus open-loop poisson
    cells -- the shapes that left ``campaign.cells`` when it became the
    16-cell setup-bound sweep -- so between the two campaign cells the bench
    still covers every workload family end to end.
    """
    from ...faas.campaign import CampaignSpec

    burst = profile.campaign_burst
    jobs: List[object] = []
    jobs.extend(CampaignSpec(
        benchmarks=("storage_io",), platforms=("aws", "gcp", "azure", "hpc"),
        seeds=(0, 1), workloads=(f"burst:burst_size={burst}",),
    ).expand())
    jobs.extend(CampaignSpec(
        benchmarks=("function_chain",), platforms=("azure",), seeds=(0, 1),
        workloads=(f"poisson:rate=2,duration={2 * burst}",),
    ).expand())
    return jobs


def _setup_chunked_dispatch(profile: BenchProfile) -> object:
    return chunked_dispatch_jobs(profile)


def _measure_chunked_dispatch(profile: BenchProfile,
                              state: object) -> BenchSample:
    """Time ``run_cells`` itself: pool spawn, chunked submission, settle.

    Unlike ``campaign.cells`` this includes the dispatch machinery --
    process-pool startup, adaptive chunk sizing from observed cell cost, and
    per-cell result delivery -- so it tracks the throughput a multi-worker
    campaign actually sees, not just the per-cell simulation cost.
    """
    from ...faas.campaign import run_cells

    jobs = state
    finished = [0]
    failures: List[object] = []

    def finish(settled: List[object]) -> None:
        finished[0] += len(settled)

    start = perf_counter()
    run_cells(jobs, profile.dispatch_workers, finish, failures.append)
    elapsed = perf_counter() - start
    if failures or finished[0] != len(jobs):
        raise RuntimeError(
            f"chunked dispatch lost cells: {finished[0]}/{len(jobs)} done, "
            f"{len(failures)} failed")
    return BenchSample(units=len(jobs), seconds=elapsed)


# -- metrics reduction cell -------------------------------------------------

def _setup_metrics_summary(profile: BenchProfile) -> object:
    """Synthetic open-loop measurements on a fixed deterministic lattice.

    Two repetition groups of ``metrics_invocations`` single-function
    workflows each, with arrival anchors and staggered start/end offsets --
    enough spread that percentile picks, the concurrency sweep, and window
    bucketing all do real work.
    """
    from ...core.critical_path import FunctionMeasurement, WorkflowMeasurement

    count = profile.metrics_invocations
    groups: List[List[object]] = []
    for repetition in range(2):
        measurements: List[object] = []
        for index in range(count):
            arrival = index * 0.05
            start = arrival + 0.002 + (index % 7) * 0.001
            end = start + 0.05 + ((index * 13) % 11) * 0.003
            measurement = WorkflowMeasurement(
                workflow="bench", platform="bench",
                invocation_id=f"inv-{repetition}-{index}",
            )
            measurement.metadata["arrival_s"] = arrival
            measurement.add(FunctionMeasurement(
                function="f", phase="run", start=start, end=end,
                cold_start=(index % 17 == 0),
            ))
            measurements.append(measurement)
        groups.append(measurements)
    return groups


def _measure_metrics_summary(profile: BenchProfile,
                             state: object) -> BenchSample:
    from ...faas.metrics import open_loop_summary_over_repetitions

    groups = state
    total = sum(len(group) for group in groups)
    duration = profile.metrics_invocations * 0.05
    start = perf_counter()
    summary = open_loop_summary_over_repetitions(
        "bench", "bench", groups, duration_per_repetition_s=duration)
    elapsed = perf_counter() - start
    if summary.invocations != total:
        raise RuntimeError(
            f"metrics bench lost invocations: {summary.invocations}/{total}")
    return BenchSample(units=total, seconds=elapsed)


# -- grid merge cell --------------------------------------------------------

def _setup_merge(profile: BenchProfile) -> object:
    """Build a complete synthetic run directory, outside the timed section.

    One genuine cell is executed once; its column text, encoded as a pool
    worker encodes it, is replicated across every fingerprint of a
    ``merge_cells``-seed sweep, so the merge decodes ``merge_cells`` full
    records as after a real grid run, without ``merge_cells`` executions.
    """
    from ...faas.campaign import CampaignSpec
    from ...faas.grid import GridRun
    from ...faas.results import encode_document, record_line, result_to_columns

    spec = CampaignSpec(
        benchmarks=("function_chain",), platforms=("aws",),
        seeds=tuple(range(profile.merge_cells)),
        workloads=("burst:burst_size=2",),
    )
    jobs = spec.expand()
    document = _execute_cell(jobs[0])
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-merge-")
    run = GridRun.create(spec, tmp.name, shard_count=1)
    text = encode_document(result_to_columns(document))
    for job in jobs:
        run.backend.append_records(0, "bench", [record_line({
            "fingerprint": job.fingerprint(),
            "shard": 0,
            "worker": "bench",
            "from_cache": False,
            "job": job.to_dict(),
        }, text)])
    return (tmp, run, len(jobs))


def _measure_merge(profile: BenchProfile, state: object) -> BenchSample:
    from ...faas.grid import merge_run

    _tmp, run, cell_count = state
    start = perf_counter()
    result = merge_run(run)
    elapsed = perf_counter() - start
    if len(result.cells) != cell_count:
        raise RuntimeError(
            f"merge bench lost cells: {len(result.cells)}/{cell_count}")
    return BenchSample(units=cell_count, seconds=elapsed)


def _cleanup_merge(state: object) -> None:
    tmp, _run, _count = state
    tmp.cleanup()


# -- grid backend-ops cells -------------------------------------------------

def _drive_backend(backend: object, ops: int) -> BenchSample:
    """Time ``ops`` full lease round trips against a fresh backend.

    Each iteration is the life of one cell as a grid worker sees it, with
    one-cell batches: claim the lease, renew it once mid-flight, append
    the result record, mark the lease done.  Fingerprints are unique per iteration because done
    markers are permanent by design -- a reused fingerprint would measure the
    (cheap) already-done early-out instead of the full protocol.
    """
    from ...faas.results import encode_document

    start = perf_counter()
    for index in range(ops):
        fingerprint = f"{index:064x}"
        if backend.claim_many([fingerprint], "bench", 300.0) != [True]:
            raise RuntimeError(f"backend refused fresh claim {index}")
        if not backend.renew(fingerprint, "bench", 300.0):
            raise RuntimeError(f"backend refused renew {index}")
        backend.append_records(0, "bench", [encode_document({
            "fingerprint": fingerprint, "shard": 0, "worker": "bench",
            "from_cache": False, "result": {"index": index},
        })])
        backend.mark_done_many([fingerprint], "bench")
    elapsed = perf_counter() - start
    return BenchSample(units=ops, seconds=elapsed)


def _measure_backend_memory(profile: BenchProfile,
                            state: object) -> BenchSample:
    from ...faas.backends import MemoryBackend

    return _drive_backend(MemoryBackend(name="bench"), profile.backend_ops)


def _setup_backend_file(profile: BenchProfile) -> object:
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-backend-")
    return {"tmp": tmp, "round": 0}


def _measure_backend_file(profile: BenchProfile, state: object) -> BenchSample:
    from pathlib import Path

    from ...faas.backends import FileBackend

    # A fresh subdirectory per timed run: done markers and shard logs from
    # the previous repetition must not be visible to this one.
    state["round"] += 1
    root = Path(state["tmp"].name) / f"round-{state['round']:03d}"
    return _drive_backend(FileBackend(root), profile.backend_ops)


def _cleanup_backend_file(state: object) -> None:
    state["tmp"].cleanup()


# -- the catalog ------------------------------------------------------------

_CELL_PARAMS: Dict[str, Callable[[BenchProfile], Dict[str, object]]] = {
    "engine.timeout_storm": lambda p: {"arrivals": p.engine_events},
    "engine.telemetry_overhead": lambda p: {"arrivals": p.engine_events},
    "engine.process_chain": lambda p: {"links": p.engine_events},
    "engine.resource_contention": lambda p: {
        "cycles": max(1, p.resource_ops // CONTENTION_WORKERS)
        * CONTENTION_WORKERS,
        "workers": CONTENTION_WORKERS,
        "capacity": CONTENTION_CAPACITY,
    },
    "campaign.cells": lambda p: {"cells": 16, "burst_size": p.campaign_burst},
    "campaign.chunked_dispatch": lambda p: {
        "cells": 10, "burst_size": p.campaign_burst,
        "workers": p.dispatch_workers,
    },
    "metrics.open_loop_summary": lambda p: {
        "invocations": 2 * p.metrics_invocations,
        "repetitions": 2,
    },
    "grid.merge": lambda p: {"cells": p.merge_cells},
    "grid.backend_ops.memory": lambda p: {"ops": p.backend_ops},
    "grid.backend_ops.file": lambda p: {"ops": p.backend_ops},
}

ALL_CELLS: Tuple[BenchCell, ...] = (
    BenchCell(
        name="engine.timeout_storm", unit="events/s",
        measure=_measure_timeout_storm,
        description="open-loop arrival storm through the bulk scheduling lane "
                    "(falls back to one wrapper process per arrival on "
                    "engines without schedule_batch)",
    ),
    BenchCell(
        name="engine.telemetry_overhead", unit="events/s",
        measure=_measure_telemetry_overhead,
        description="the timeout storm with a recording registry, attached "
                    "EngineMonitor, and a span -- telemetry's enabled-path "
                    "cost relative to engine.timeout_storm",
    ),
    BenchCell(
        name="engine.process_chain", unit="events/s",
        measure=_measure_process_chain,
        description="one generator process yielding a long timeout chain",
    ),
    BenchCell(
        name="engine.resource_contention", unit="ops/s",
        measure=_measure_resource_contention,
        description=f"{CONTENTION_WORKERS} processes cycling acquire/release "
                    f"on a capacity-{CONTENTION_CAPACITY} Resource",
    ),
    BenchCell(
        name="campaign.cells", unit="cells/s",
        measure=_measure_campaign, setup=_setup_campaign,
        description="16 real burst cells ({function_chain, parallel_sleep} x "
                    "4 platforms x 2 seeds) through the worker entry (parse, "
                    "build platform, run, serialise)",
    ),
    BenchCell(
        name="campaign.chunked_dispatch", unit="cells/s",
        measure=_measure_chunked_dispatch, setup=_setup_chunked_dispatch,
        description="storage-heavy burst + open-loop poisson cells through "
                    "run_cells with a worker pool: pool spawn, adaptive "
                    "chunking, per-cell delivery included",
    ),
    BenchCell(
        name="metrics.open_loop_summary", unit="invocations/s",
        measure=_measure_metrics_summary, setup=_setup_metrics_summary,
        description="vectorized open-loop reduction (percentiles, concurrency "
                    "sweep, latency windows) over synthetic measurement "
                    "lattices",
    ),
    BenchCell(
        name="grid.merge", unit="cells/s",
        measure=_measure_merge, setup=_setup_merge, cleanup=_cleanup_merge,
        description="streaming merge_run over a synthetic run directory with "
                    "one full result document per cell",
    ),
    BenchCell(
        name="grid.backend_ops.memory", unit="ops/s",
        measure=_measure_backend_memory,
        description="claim/renew/append/mark_done round trips against an "
                    "in-process MemoryBackend",
    ),
    BenchCell(
        name="grid.backend_ops.file", unit="ops/s",
        measure=_measure_backend_file, setup=_setup_backend_file,
        cleanup=_cleanup_backend_file,
        description="claim/renew/append/mark_done round trips against a "
                    "tmpdir FileBackend (link/replace lease files + jsonl "
                    "shard log)",
    ),
)


def cells_by_name(names: Optional[Sequence[str]] = None) -> Tuple[BenchCell, ...]:
    """Resolve a ``--cells`` selection against the catalog (all by default)."""
    if not names:
        return ALL_CELLS
    catalog = {cell.name: cell for cell in ALL_CELLS}
    unknown = [name for name in names if name not in catalog]
    if unknown:
        known = ", ".join(sorted(catalog))
        raise ValueError(f"unknown bench cell(s) {', '.join(unknown)}; "
                         f"known: {known}")
    return tuple(catalog[name] for name in names)
