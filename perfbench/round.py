"""One benchmark round in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per round, so every round pays the real
start-up cost (imports, plan) and sees cold module-level memo caches, exactly
like a user running ``repro-flow figures --all`` again.  Modes:

* ``setup``  -- set-up only: imports plus the ready plan.
* ``fill``   -- ``paper_warm`` set-up: one cold ``execute_plan`` into the
  shared cell cache, plus the digest of the rendered artifacts.
* ``round``  -- one measured, untraced workload round; optionally writes the
  digest of every cell's result document (the trace's reference).
* ``trace``  -- the per-layer breakdown: the round again under a recording
  ``MetricsRegistry`` with timers around every public call (pass B), then a
  serial rebuild of every cell from ``run_repetition`` + reductions +
  ``result_to_dict`` (pass C) whose documents must be byte-identical to the
  untraced round's.  B runs first, so it starts as fresh as that round did.

Everything is driven through the program's public functions only.  The
``setup``, ``round`` and ``trace`` records give ``setup_s``, ``wall_s`` and
cell times in reference-host seconds (see ``HostSpeed``); per-layer timers
stay as measured.
"""

import argparse
import hashlib
import heapq
import json
import os
import random
import resource
import statistics
import sys
import time
from bisect import bisect_right
from pathlib import Path
from time import perf_counter

#: The paper plan: ``figures --all`` at the default burst size.
PAPER_BURST = 30
#: The grid sweep: benchmarks x platforms x seed indices at a small burst.
GRID_BENCHMARKS = ("function_chain", "parallel_sleep", "storage_io")
GRID_PLATFORMS = ("aws", "gcp", "azure", "hpc")
GRID_SEEDS = 16
GRID_BURST = 4
GRID_SHARDS = 2
GRID_WORKERS = 2
#: Host-speed probe: how long ``probe_s`` took on the reference host (2-vCPU
#: Intel Xeon, Python 3.11.7) when nothing else ran on it.
PROBE_REF_S = 0.0125
#: Probe samples per CPU, taken before and again after the timed work.
PROBE_REPEATS = 3
#: Serial rounds also probe between two cells once this much time has passed
#: since the last probe, so a slow spell in the middle of a long round shows.
PROBE_EVERY_S = 0.5


def nearest_rank(values, percent):
    """Nearest-rank percentile: the smallest value with ``percent``% at or below."""
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


def sha256_json(document):
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, default=str).encode()
    ).hexdigest()


def probe_s():
    """Time a fixed pure-Python loop that shares no code with the program.

    Its work resembles the simulator's (heap pushes and pops, dict updates,
    float arithmetic), so when a busy neighbour on the shared host slows the
    CPU, the probe and the workload slow alike.
    """
    rng = random.Random(7)
    heap = []
    totals = {}
    tick = perf_counter()
    for index in range(20000):
        heapq.heappush(heap, (rng.random(), index))
        if len(heap) > 64:
            key, popped = heapq.heappop(heap)
            totals[popped % 97] = totals.get(popped % 97, 0.0) + key * 1.5
    return perf_counter() - tick


def probe_together(cpus):
    """Probe samples taken on every CPU at once, one forked process per CPU.

    Parallel work slows with what shares the CPUs while all of them are busy,
    which probing one CPU at a time would not see.
    """
    cpus = sorted(cpus)
    read_end, write_end = os.pipe()
    children = []
    for cpu in cpus[1:]:
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.sched_setaffinity(0, {cpu})
                samples = [probe_s() for _ in range(PROBE_REPEATS)]
                os.write(write_end, (json.dumps(samples) + "\n").encode())
            finally:
                os._exit(0)
        children.append(pid)
    os.close(write_end)
    os.sched_setaffinity(0, {cpus[0]})
    samples = [probe_s() for _ in range(PROBE_REPEATS)]
    os.sched_setaffinity(0, set(cpus))
    with os.fdopen(read_end) as pipe:
        for line in pipe:
            samples += json.loads(line)
    for pid in children:
        os.waitpid(pid, 0)
    return samples


class HostSpeed:
    """Host-speed checkpoints through one round.

    The machine is shared: a busy neighbour slows it by up to 2x for seconds
    or minutes at a time.  A checkpoint is the mean probe time at an instant.
    Between two checkpoints the host is taken to run at their average speed,
    and a measured duration converts to reference-host seconds by it.  With
    no checkpoint at all, durations stay as measured.
    """

    def __init__(self):
        self.times = []
        self.probe_s = []

    def checkpoint(self, at, samples):
        self.times.append(at)
        self.probe_s.append(statistics.fmean(samples))

    def reference_s(self, start, end):
        """Reference-host seconds for ``[start, end]``; no checkpoint splits it."""
        if not self.times:
            return end - start
        if len(self.times) == 1:
            slowness = self.probe_s[0]
        else:
            index = bisect_right(self.times, start) - 1
            index = min(max(index, 0), len(self.times) - 2)
            slowness = (self.probe_s[index] + self.probe_s[index + 1]) / 2
        return (end - start) * PROBE_REF_S / slowness


def current_cpu():
    """The CPU this process runs on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def max_rss_mb(who):
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


class Paper:
    """``paper_cold`` / ``paper_warm``: the full artifact plan, serial."""

    workers = 1
    burst = PAPER_BURST

    def __init__(self, seed):
        from repro.analysis import artifacts

        self.artifacts = artifacts
        start = perf_counter()
        self.plan = artifacts.plan_artifacts(
            artifacts.available_artifacts(),
            artifacts.ArtifactConfig(burst_size=PAPER_BURST, seed=seed),
        )
        self.plan_s = perf_counter() - start
        self.jobs = list(self.plan.jobs)

    def probe(self):
        """Serial work: pin to the CPU we run on, so the probe runs there too."""
        cpu = current_cpu()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        return [probe_s() for _ in range(PROBE_REPEATS)]

    def layer_setup(self):
        return {
            "artifacts.plan_s": self.plan_s,
            "artifacts.cells_requested": self.plan.requested_cells,
            "artifacts.cells_planned": len(self.plan.jobs),
        }

    def run(self, work, cache_dir, timers=None, speed=None):
        """One round: execute_plan, render, write.  Returns a round record.

        With a ``speed`` (HostSpeed), the round probes the host before, after,
        and between cells every PROBE_EVERY_S, leaves the probes out of every
        timing, and reports ``wall_s`` and ``cell_s`` (fingerprint -> the
        time up to that cell's ``progress`` callback) in reference-host
        seconds; ``raw_wall_s`` is as measured.  ``timers`` stay as measured.
        """
        artifacts = self.artifacts
        from repro.faas.campaign import CampaignError

        out_dir = work / "out"
        marks = []  # (job, cell finished, next cell's work resumed)
        due = [0.0]

        def progress(job, cached):
            finished = perf_counter()
            if speed is not None and finished >= due[0]:
                speed.checkpoint(finished, [probe_s()])
                due[0] = perf_counter() + PROBE_EVERY_S
            marks.append((job, finished, perf_counter()))

        if speed is not None:
            before = self.probe()
        failed = 0
        start = perf_counter()
        if speed is not None:
            speed.checkpoint(start, before)
            due[0] = start + PROBE_EVERY_S
        try:
            campaign = artifacts.execute_plan(
                self.plan, workers=1, cache_dir=cache_dir, progress=progress,
            )
        except CampaignError as error:
            failed = len(error.failures)
            campaign = error.partial
        executed = perf_counter()
        if timers is None:
            rendered = artifacts.render_plan(self.plan, campaign)
        else:
            rendered = {}
            for spec in self.plan.artifacts:
                tick = perf_counter()
                rendered[spec.name] = artifacts.render_artifact(
                    spec, campaign, self.plan.config
                )
                timers[f"analysis.render.{spec.name}_s"] = perf_counter() - tick
        rendered_at = perf_counter()
        artifacts.write_artifacts(rendered, out_dir)
        end = perf_counter()
        clock = speed if speed is not None else HostSpeed()
        if speed is not None:
            speed.checkpoint(end, self.probe())
        paused = sum(resumed - finished for _, finished, resumed in marks)
        if timers is not None:
            timers["campaign.execute_s"] = executed - start - paused
            timers["analysis.render_s"] = rendered_at - executed
            timers["analysis.write_s"] = end - rendered_at
        cells = {
            job.fingerprint(): clock.reference_s(resumed, finished)
            for (_, _, resumed), (job, finished, _) in zip(
                [(None, start, start)] + marks, marks)
        }
        # The rest of execute_plan, the render and the write.
        tail = clock.reference_s(marks[-1][2] if marks else start, end)
        return {
            "wall_s": sum(cells.values()) + tail,
            "raw_wall_s": end - start - paused,
            "cell_s": cells,
            "attempted": len(self.jobs),
            "failed": failed,
            "digest": sha256_json({name: art.data for name, art in rendered.items()}),
            "campaign": campaign,
        }


class GridSweep:
    """``grid_sweep``: many small cells over a 2-shard FileBackend run."""

    burst = GRID_BURST

    def __init__(self, seed):
        from repro.faas.campaign import CampaignSpec

        self.workers = max(1, min(GRID_WORKERS, os.cpu_count() or 1))
        self.spec = CampaignSpec(
            benchmarks=GRID_BENCHMARKS,
            platforms=GRID_PLATFORMS,
            seeds=tuple(range(GRID_SEEDS)),
            workloads=(f"burst:burst_size={GRID_BURST}",),
            base_seed=seed,
        )
        self.jobs = self.spec.expand()

    def probe(self):
        """Two pool workers plus this process: probe every CPU, pin to none."""
        return probe_together(os.sched_getaffinity(0))

    def layer_setup(self):
        return {}

    def run(self, work, cache_dir, timers=None, speed=None):
        """One round; see ``Paper.run``.  With a ``speed``, the host is probed
        only before and after: a probe in between would compete with workers.
        """
        from repro.faas.grid import GridRun, merge_run, run_grid_worker

        if speed is not None:
            before = self.probe()
        start = perf_counter()
        if speed is not None:
            speed.checkpoint(start, before)
        run = GridRun.create(self.spec, work / "run", shard_count=GRID_SHARDS)
        created = perf_counter()
        report = run_grid_worker(run, workers=self.workers, worker_id="perfbench")
        worked = perf_counter()
        campaign = merge_run(run)
        end = perf_counter()
        clock = speed if speed is not None else HostSpeed()
        if speed is not None:
            speed.checkpoint(end, self.probe())
        wall_s = clock.reference_s(start, end)
        if timers is not None:
            timers["grid.create_s"] = created - start
            timers["grid.worker_s"] = worked - created
            timers["grid.merge_s"] = end - worked
        # Per-cell cost as the pool worker measured it (the grid records
        # carry it); completion gaps across 2 workers are not latencies.
        cell_s = {
            str(record["fingerprint"]): float(record["elapsed_s"]) * wall_s / (end - start)
            for shard in range(run.shard_count)
            for record in run.iter_shard_records(shard)
            if "elapsed_s" in record
        }
        return {
            "wall_s": wall_s,
            "raw_wall_s": end - start,
            "cell_s": cell_s,
            "attempted": len(self.jobs),
            "failed": report.failed,
            "digest": sha256_json(campaign.to_dict(include_results=True)),
            "campaign": campaign,
        }


WORKLOADS = {"paper_cold": Paper, "paper_warm": Paper, "grid_sweep": GridSweep}


def cell_digests(campaign):
    """fingerprint -> digest of every finished cell's result document.

    The digest covers canonical (sorted-key) JSON, because the grid's record
    log stores documents key-sorted while ``result_to_dict`` keeps insertion
    order; equal digests mean byte-identical canonical documents.
    """
    from repro.faas.results import result_to_dict

    return {
        cell.job.fingerprint(): sha256_json(result_to_dict(cell.result))
        for cell in campaign.cells
    }


def counter_total(snapshot, name, **labels):
    entry = snapshot.get(name)
    if entry is None:
        return 0.0
    total = 0.0
    for sample in entry["samples"]:
        if all(sample["labels"].get(key) == value for key, value in labels.items()):
            total += sample["sum"] if "sum" in sample else sample["value"]
    return total


def rebuild(jobs, reference):
    """Pass C: rebuild every cell from its parts, timing each public call.

    Mirrors what a serial campaign worker does per cell -- construct the
    benchmark, run each repetition, reduce, serialise -- and compares the
    document with the untraced run's.  Returns (layer metrics, mismatches,
    serial cell seconds).
    """
    from repro.benchmarks import get_benchmark
    from repro.faas.cost import combine_cost_reports
    from repro.faas.experiment import ExperimentResult, ExperimentRunner
    from repro.faas.metrics import (
        container_scaling_profile,
        open_loop_summary_over_repetitions,
        summarize,
    )
    from repro.faas.results import result_from_dict, result_to_dict
    from repro.observability import MetricsRegistry, use_registry

    per_benchmark = {}
    totals = dict.fromkeys(
        ("sim.repetition_s", "metrics.summarize_s", "metrics.scaling_profile_s",
         "metrics.open_loop_s", "results.to_dict_s", "results.from_dict_s"), 0.0
    )
    invocations = containers = doc_bytes = mismatches = 0
    cell_s = []
    registry = MetricsRegistry("perfbench-rebuild")
    with use_registry(registry):
        for job in jobs:
            cell_start = perf_counter()
            benchmark = get_benchmark(job.benchmark)
            config = job.experiment_config()
            runner = ExperimentRunner(config)
            result = ExperimentResult(
                benchmark=benchmark.name, platform=config.platform_name, config=config
            )
            groups, costs = [], []
            for repetition in range(config.repetitions):
                tick = perf_counter()
                rep = runner.run_repetition(benchmark, repetition)
                elapsed = perf_counter() - tick
                name = job.benchmark.split(":")[0]
                per_benchmark[name] = per_benchmark.get(name, 0.0) + elapsed
                totals["sim.repetition_s"] += elapsed
                groups.append(rep.measurements)
                result.measurements.extend(rep.measurements)
                result.orchestration_stats.extend(rep.orchestration_stats)
                result.containers_created += rep.containers_created
                if rep.cost is not None:
                    costs.append(rep.cost)
                invocations += len(rep.measurements)
                containers += rep.containers_created
            tick = perf_counter()
            result.summary = summarize(
                benchmark.name, config.platform_name, result.measurements
            )
            totals["metrics.summarize_s"] += perf_counter() - tick
            tick = perf_counter()
            result.scaling_profile = container_scaling_profile(result.measurements)
            totals["metrics.scaling_profile_s"] += perf_counter() - tick
            workload = config.workload_spec
            if workload.is_open_loop:
                tick = perf_counter()
                result.open_loop = open_loop_summary_over_repetitions(
                    benchmark.name, config.platform_name, groups,
                    duration_per_repetition_s=workload.duration_s,
                )
                totals["metrics.open_loop_s"] += perf_counter() - tick
            if costs:
                result.cost = combine_cost_reports(costs)
            tick = perf_counter()
            document = result_to_dict(result)
            totals["results.to_dict_s"] += perf_counter() - tick
            tick = perf_counter()
            result_from_dict(document)
            totals["results.from_dict_s"] += perf_counter() - tick
            cell_s.append(perf_counter() - cell_start)
            text = json.dumps(document, sort_keys=True, default=str)
            doc_bytes += len(text)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if reference.get(job.fingerprint()) != digest:
                mismatches += 1
    events = counter_total(registry.snapshot(), "repro_engine_events_total")
    layers = dict(totals)
    layers.update({
        "sim.events": events,
        "sim.events_per_s": events / totals["sim.repetition_s"],
        "sim.invocations": invocations,
        "sim.containers_created": containers,
        "experiment.cell_p50_ms": 1e3 * nearest_rank(cell_s, 50),
        "experiment.cell_p90_ms": 1e3 * nearest_rank(cell_s, 90),
        "results.doc_bytes": doc_bytes,
    })
    for name, seconds in per_benchmark.items():
        layers[f"benchmarks.{name}.sim_s"] = seconds
    return layers, mismatches, sum(cell_s)


def trace(bench, work, cache, cache_was_full, reference):
    """Passes B and C (see the module docstring) -> per-layer metrics."""
    from repro.faas.campaign import load_cached_campaign, scan_cache_fingerprints
    from repro.observability import MetricsRegistry, use_registry

    timers = {}
    registry = MetricsRegistry("perfbench-trace")
    speed = HostSpeed()
    with use_registry(registry):
        traced = bench.run(work, cache, timers=timers, speed=speed)
    snapshot = registry.snapshot()
    if cache is not None:
        # What execute_plan does first -- one scan, then per-cell loads -- on
        # the cache as that call found it (empty for paper_cold).  Timed
        # after the traced round so it cannot warm anything the round reads.
        found = cache if cache_was_full else work / "empty-cache"
        tick = perf_counter()
        scan_cache_fingerprints(found)
        timers["campaign.cache_scan_s"] = perf_counter() - tick
        tick = perf_counter()
        load_cached_campaign(bench.plan.spec, found)
        timers["campaign.cache_load_s"] = perf_counter() - tick

    layers, mismatches, serial_cell_s = rebuild(bench.jobs, reference)

    hits = counter_total(snapshot, "repro_campaign_cache_hits_total")
    misses = counter_total(snapshot, "repro_campaign_cache_misses_total")
    cell_seconds = counter_total(snapshot, "repro_campaign_cell_seconds")
    execute_s = timers.pop("campaign.execute_s", timers.get("grid.worker_s", 0.0))
    layers.update(timers)
    layers.update({
        "campaign.cache_hits": hits,
        "campaign.cache_misses": misses,
        "campaign.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "campaign.cells_executed": counter_total(
            snapshot, "repro_campaign_cells_done_total"),
        "campaign.cells_failed": counter_total(
            snapshot, "repro_campaign_cells_failed_total"),
        # Execution wall time not covered by per-worker cell work.
        "campaign.overhead_s": execute_s - cell_seconds / bench.workers,
    })
    if isinstance(bench, GridSweep):
        for op in ("claim", "claim_conflict", "renew", "mark_done"):
            layers[f"grid.backend.{op}"] = counter_total(
                snapshot, "repro_grid_backend_ops_total", op=op)
        layers["grid.records"] = counter_total(snapshot, "repro_grid_records_total")
        layers["grid.parallel_efficiency"] = serial_cell_s / (
            bench.workers * timers["grid.worker_s"])
        layers["grid.worker_peak_rss_mb"] = max_rss_mb(resource.RUSAGE_CHILDREN)
    return {
        "layers": layers,
        "wall_s": traced["wall_s"],
        "raw_wall_s": traced["raw_wall_s"],
        "speed": speed,
        "attempted": traced["attempted"],
        # A rebuilt document that differs from the untraced run's counts as
        # a failure, like a failed cell.
        "failed": traced["failed"] + mismatches,
        "digest": traced["digest"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "fill", "round", "trace"))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--cache", type=Path, default=None,
                        help="shared cell cache (paper_warm)")
    parser.add_argument("--digests", type=Path, default=None,
                        help="round: write per-cell document digests here")
    parser.add_argument("--reference", type=Path, default=None,
                        help="trace: per-cell digests of the untraced round")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() just before starting us")
    args = parser.parse_args()

    tick = perf_counter()
    import repro.analysis.artifacts  # noqa: F401 -- the import cost is measured
    import repro.faas.grid  # noqa: F401
    import_s = perf_counter() - tick
    import numpy
    bench = WORKLOADS[args.workload](args.seed)
    # Wall clock, not perf_counter: the start instant belongs to the parent.
    setup_s = time.time() - args.spawned_at

    args.work.mkdir(parents=True, exist_ok=True)
    record = {
        "setup_s": setup_s,
        "context": {
            "seed": args.seed,
            "plan_cells": len(bench.jobs),
            "burst": bench.burst,
            "workers": bench.workers,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    # paper_cold starts from an empty cache in its own fresh work directory;
    # paper_warm reads the shared, pre-filled one; grid_sweep uses none.
    cache = args.cache
    if cache is None and isinstance(bench, Paper):
        cache = args.work / "cache"
    speed = HostSpeed()
    if args.mode == "setup":
        speed.checkpoint(perf_counter(), bench.probe())
    elif args.mode == "fill":
        result = bench.run(args.work, cache)
        record.update(digest=result["digest"], failed=result["failed"])
    elif args.mode == "round":
        result = bench.run(args.work, cache, speed=speed)
        record.update({key: result[key] for key in
                       ("wall_s", "raw_wall_s", "cell_s", "attempted", "failed", "digest")})
        record["peak_rss_mb"] = max_rss_mb(resource.RUSAGE_SELF)
        record["child_peak_rss_mb"] = max_rss_mb(resource.RUSAGE_CHILDREN)
        if args.digests is not None:
            args.digests.write_text(json.dumps(cell_digests(result["campaign"])))
    elif args.mode == "trace":
        reference = json.loads(args.reference.read_text())
        record.update(trace(bench, args.work, cache, args.cache is not None, reference))
        speed = record.pop("speed")
        record["layers"]["startup.import_s"] = import_s
        record["layers"].update(bench.layer_setup())
    if speed.times:
        # Set-up ran just before the first checkpoint; scale it by that one.
        record["setup_s"] = setup_s * PROBE_REF_S / speed.probe_s[0]
        record["speed"] = PROBE_REF_S / statistics.fmean(speed.probe_s)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
