"""Aggregation of workflow measurements into the metrics the paper reports.

Raw measurements (per-function timestamps) are turned into the quantities used
throughout the evaluation: end-to-end runtime, critical path and overhead
(Figures 7, 8, 12, 16), cold-start fraction (Table 5), container scaling
profiles (Figure 11), and warm/cold subsets.

For open-loop workloads (poisson / constant / ramp / trace arrival processes,
see :mod:`repro.faas.workload`) the burst metrics are complemented -- never
replaced -- by :class:`OpenLoopSummary`: sustained throughput, tail latency
(p50/p95/p99), latency-over-time windows, and queueing/cold-start behaviour
under load.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import percentile, sample_stdev
from ..core.critical_path import RuntimeBreakdown, WorkflowMeasurement, scaling_profile


@dataclass
class BenchmarkSummary:
    """Aggregated statistics of one benchmark on one platform."""

    benchmark: str
    platform: str
    runtimes: List[float] = field(default_factory=list)
    critical_paths: List[float] = field(default_factory=list)
    overheads: List[float] = field(default_factory=list)
    cold_start_fraction: float = 0.0
    invocations: int = 0

    @property
    def median_runtime(self) -> float:
        return statistics.median(self.runtimes) if self.runtimes else 0.0

    @property
    def mean_runtime(self) -> float:
        return statistics.fmean(self.runtimes) if self.runtimes else 0.0

    @property
    def median_critical_path(self) -> float:
        return statistics.median(self.critical_paths) if self.critical_paths else 0.0

    @property
    def median_overhead(self) -> float:
        return statistics.median(self.overheads) if self.overheads else 0.0

    @property
    def mean_overhead(self) -> float:
        return statistics.fmean(self.overheads) if self.overheads else 0.0

    @property
    def coefficient_of_variation(self) -> float:
        if len(self.runtimes) < 2 or self.mean_runtime == 0:
            return 0.0
        return sample_stdev(self.runtimes) / self.mean_runtime

    def as_row(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "platform": self.platform,
            "median_runtime_s": round(self.median_runtime, 3),
            "median_critical_path_s": round(self.median_critical_path, 3),
            "median_overhead_s": round(self.median_overhead, 3),
            "cold_start_fraction": round(self.cold_start_fraction, 4),
            "cv": round(self.coefficient_of_variation, 4),
            "invocations": self.invocations,
        }


def summarize(
    benchmark: str, platform: str, measurements: Sequence[WorkflowMeasurement]
) -> BenchmarkSummary:
    """Build a :class:`BenchmarkSummary` from raw workflow measurements."""
    summary = BenchmarkSummary(benchmark=benchmark, platform=platform)
    total_functions = 0
    cold_functions = 0
    for measurement in measurements:
        if not measurement.functions:
            continue
        breakdown = RuntimeBreakdown.from_measurement(measurement)
        summary.runtimes.append(breakdown.runtime)
        summary.critical_paths.append(breakdown.critical_path)
        summary.overheads.append(breakdown.overhead)
        total_functions += len(measurement.functions)
        cold_functions += sum(1 for f in measurement.functions if f.cold_start)
        summary.invocations += 1
    if total_functions:
        summary.cold_start_fraction = cold_functions / total_functions
    return summary


def split_warm_cold(
    measurements: Sequence[WorkflowMeasurement],
) -> Dict[str, List[WorkflowMeasurement]]:
    """Split measurements into fully-warm and cold-containing invocations (Figure 12)."""
    warm = [m for m in measurements if m.functions and m.is_fully_warm()]
    cold = [m for m in measurements if m.functions and not m.is_fully_warm()]
    return {"warm": warm, "cold": cold}


def container_scaling_profile(
    measurements: Sequence[WorkflowMeasurement], resolution: float = 1.0
) -> List[Dict[str, float]]:
    """Containers active over time across a burst (Figure 11)."""
    return scaling_profile(measurements, resolution=resolution)


@dataclass
class OpenLoopSummary:
    """Sustained-load statistics of one open-loop workload run.

    ``windows`` holds latency-over-time buckets: for each ``window_s``-wide
    slice of the run, the arrivals that started in it, their p50/p95/p99
    end-to-end latency, and their cold-start fraction -- the inputs for
    latency-over-time and warm-up plots under sustained traffic.
    """

    benchmark: str
    platform: str
    duration_s: float = 0.0
    window_s: float = 10.0
    invocations: int = 0
    throughput_per_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0
    mean_concurrency: float = 0.0
    max_concurrency: int = 0
    cold_start_fraction: float = 0.0
    windows: List[Dict[str, float]] = field(default_factory=list)

    def as_row(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "platform": self.platform,
            "duration_s": round(self.duration_s, 3),
            "invocations": self.invocations,
            "throughput_per_s": round(self.throughput_per_s, 4),
            "latency_p50_s": round(self.latency_p50_s, 3),
            "latency_p95_s": round(self.latency_p95_s, 3),
            "latency_p99_s": round(self.latency_p99_s, 3),
            "mean_concurrency": round(self.mean_concurrency, 3),
            "max_concurrency": self.max_concurrency,
            "cold_start_fraction": round(self.cold_start_fraction, 4),
        }


def _arrival(measurement: WorkflowMeasurement) -> float:
    """Client-observed arrival time of an invocation.

    Open-loop executors stash the scheduled arrival in the measurement
    metadata; the platform's own timestamps only begin once a container was
    acquired, so without this anchor queue wait is invisible.  Falls back to
    the first function start for measurements without one.
    """
    value = measurement.metadata.get("arrival_s")
    return float(value) if value is not None else measurement.start  # type: ignore[arg-type]


def _latency(measurement: WorkflowMeasurement) -> float:
    """Client-observed latency: arrival to last completion (includes queueing)."""
    return measurement.end - _arrival(measurement)


def open_loop_summary(
    benchmark: str,
    platform: str,
    measurements: Sequence[WorkflowMeasurement],
    duration_s: Optional[float] = None,
    window_s: float = 10.0,
) -> OpenLoopSummary:
    """Build an :class:`OpenLoopSummary` from one run's raw measurements.

    ``duration_s`` defaults to the observed span from the first arrival to the
    last completion; passing the workload's nominal duration instead keeps
    throughput comparable across runs whose tails differ.
    """
    return open_loop_summary_over_repetitions(
        benchmark, platform, [measurements],
        duration_per_repetition_s=duration_s, window_s=window_s,
    )


def _nearest_rank(sorted_values: Sequence[float], count: int, fraction: float) -> float:
    """Nearest-rank pick from an ascending sequence.

    Index arithmetic is byte-for-byte the one in
    :func:`repro.analysis.stats.percentile`; callers sort once and pick three
    ranks instead of sorting per percentile.
    """
    rank = min(count, max(1, math.ceil(fraction * count)))
    return float(sorted_values[rank - 1])


def open_loop_summary_over_repetitions(
    benchmark: str,
    platform: str,
    repetition_groups: Sequence[Sequence[WorkflowMeasurement]],
    duration_per_repetition_s: Optional[float] = None,
    window_s: float = 10.0,
) -> OpenLoopSummary:
    """Aggregate an open-loop workload over independent repetitions.

    Every repetition runs on a fresh platform whose simulation clock restarts
    at zero, so the groups must not be pooled into one concurrency sweep --
    that would count replicate runs as overlapping traffic.  Latencies are
    pooled (they are exchangeable across replicates); concurrency is swept per
    repetition (max of maxima, busy time over observed time); the
    latency-over-time windows overlay the repetitions on a common axis
    relative to each repetition's first arrival.

    This is the vectorized reduction: percentiles come from one numpy sort,
    the concurrency sweep from a lexsort + cumulative sum, and latencies from
    elementwise array arithmetic.  Every operation either is performed on
    Python floats in the original order or is a bit-exact array counterpart
    (sort/index, elementwise subtract, integer cumsum), so the result is
    bit-identical to :func:`_open_loop_summary_python`, which is kept as the
    reference oracle and pinned by tests.
    """
    if window_s <= 0:
        raise ValueError("window width must be positive")
    groups = [
        [m for m in group if m.functions] for group in repetition_groups
    ]
    groups = [group for group in groups if group]
    summary = OpenLoopSummary(benchmark=benchmark, platform=platform, window_s=window_s)
    if not groups:
        summary.duration_s = float(duration_per_repetition_s or 0.0)
        return summary

    # One pass over the measurements builds per-group arrival/end arrays; all
    # per-sample arithmetic below runs on these.
    group_arrays: List[Tuple[List[WorkflowMeasurement], np.ndarray, np.ndarray]] = []
    for group in groups:
        arrivals = np.empty(len(group))
        ends = np.empty(len(group))
        for i, m in enumerate(group):
            value = m.metadata.get("arrival_s")
            arrivals[i] = float(value) if value is not None else m.start  # type: ignore[arg-type]
            ends[i] = m.end
        group_arrays.append((group, arrivals, ends))

    populated = [m for group in groups for m in group]
    # Python-float sum in group order: np.sum would pairwise-sum and drift.
    observed = sum(
        float(ends.max()) - float(arrivals.min())
        for _, arrivals, ends in group_arrays
    )
    if duration_per_repetition_s:
        summary.duration_s = float(duration_per_repetition_s) * len(groups)
    else:
        summary.duration_s = observed
    summary.invocations = len(populated)
    if summary.duration_s > 0:
        summary.throughput_per_s = len(populated) / summary.duration_s

    latency_arrays = [ends - arrivals for _, arrivals, ends in group_arrays]
    pooled = np.concatenate(latency_arrays)
    sorted_latencies = np.sort(pooled)
    count = len(populated)
    summary.latency_p50_s = _nearest_rank(sorted_latencies, count, 0.50)
    summary.latency_p95_s = _nearest_rank(sorted_latencies, count, 0.95)
    summary.latency_p99_s = _nearest_rank(sorted_latencies, count, 0.99)

    total_functions = sum(len(m.functions) for m in populated)
    cold_functions = sum(
        1 for m in populated for f in m.functions if f.cold_start
    )
    if total_functions:
        summary.cold_start_fraction = cold_functions / total_functions

    # Concurrency (queueing behaviour): sweep each repetition independently
    # over the in-flight [arrival, end] intervals, so invocations queued for a
    # container count as outstanding load.  The stable lexsort on
    # (time, delta) reproduces sorted()'s boundary order exactly (ends, delta
    # -1, precede arrivals at time ties).
    for group, arrivals, ends in group_arrays:
        size = len(group)
        times = np.concatenate((arrivals, ends))
        deltas = np.concatenate(
            (np.ones(size, dtype=np.int64), np.full(size, -1, dtype=np.int64))
        )
        order = np.lexsort((deltas, times))
        running = np.cumsum(deltas[order])
        summary.max_concurrency = max(summary.max_concurrency, int(running.max()))
    # Left-to-right Python sum in populated order, as above.
    in_flight_time = sum(
        value for latencies in latency_arrays for value in latencies.tolist()
    )
    if observed > 0:
        summary.mean_concurrency = in_flight_time / observed

    # Latency-over-time windows, bucketed by each invocation's arrival offset
    # within its own repetition (so replicates overlay, not concatenate).
    # Bucket indices use Python-float floor division: numpy floor_divide
    # rounds the quotient before flooring and can land one bucket off.
    buckets: Dict[int, List[Tuple[WorkflowMeasurement, float]]] = {}
    for (group, arrivals, _), latencies in zip(group_arrays, latency_arrays):
        arrival_list = arrivals.tolist()
        latency_list = latencies.tolist()
        group_start = min(arrival_list)
        for m, arrival, latency in zip(group, arrival_list, latency_list):
            buckets.setdefault(int((arrival - group_start) // window_s), []).append(
                (m, latency)
            )
    for index in sorted(buckets):
        members = buckets[index]
        window_sorted = sorted(latency for _, latency in members)
        window_count = len(window_sorted)
        window_functions = sum(len(m.functions) for m, _ in members)
        window_cold = sum(1 for m, _ in members for f in m.functions if f.cold_start)
        summary.windows.append(
            {
                "window_start_s": round(index * window_s, 3),
                "invocations": window_count,
                "latency_p50_s": round(_nearest_rank(window_sorted, window_count, 0.50), 3),
                "latency_p95_s": round(_nearest_rank(window_sorted, window_count, 0.95), 3),
                "latency_p99_s": round(_nearest_rank(window_sorted, window_count, 0.99), 3),
                "cold_start_fraction": round(
                    window_cold / window_functions if window_functions else 0.0, 4
                ),
            }
        )
    return summary


def _open_loop_summary_python(
    benchmark: str,
    platform: str,
    repetition_groups: Sequence[Sequence[WorkflowMeasurement]],
    duration_per_repetition_s: Optional[float] = None,
    window_s: float = 10.0,
) -> OpenLoopSummary:
    """Pure-Python reference for :func:`open_loop_summary_over_repetitions`.

    The pre-vectorization implementation, kept verbatim as the oracle the
    tests compare the array path against -- any drift between the two is a
    bit-identity regression in the vectorized reduction.
    """
    if window_s <= 0:
        raise ValueError("window width must be positive")
    groups = [
        [m for m in group if m.functions] for group in repetition_groups
    ]
    groups = [group for group in groups if group]
    summary = OpenLoopSummary(benchmark=benchmark, platform=platform, window_s=window_s)
    if not groups:
        summary.duration_s = float(duration_per_repetition_s or 0.0)
        return summary

    populated = [m for group in groups for m in group]
    observed = sum(
        max(m.end for m in group) - min(_arrival(m) for m in group)
        for group in groups
    )
    if duration_per_repetition_s:
        summary.duration_s = float(duration_per_repetition_s) * len(groups)
    else:
        summary.duration_s = observed
    summary.invocations = len(populated)
    if summary.duration_s > 0:
        summary.throughput_per_s = len(populated) / summary.duration_s

    latencies = [_latency(m) for m in populated]
    summary.latency_p50_s = percentile(latencies, 0.50)
    summary.latency_p95_s = percentile(latencies, 0.95)
    summary.latency_p99_s = percentile(latencies, 0.99)

    total_functions = sum(len(m.functions) for m in populated)
    cold_functions = sum(
        1 for m in populated for f in m.functions if f.cold_start
    )
    if total_functions:
        summary.cold_start_fraction = cold_functions / total_functions

    # Concurrency (queueing behaviour): sweep each repetition independently
    # over the in-flight [arrival, end] intervals, so invocations queued for a
    # container count as outstanding load.
    for group in groups:
        boundaries = sorted(
            [(_arrival(m), 1) for m in group] + [(m.end, -1) for m in group],
            key=lambda entry: (entry[0], entry[1]),
        )
        active = 0
        for _, delta in boundaries:
            active += delta
            summary.max_concurrency = max(summary.max_concurrency, active)
    in_flight_time = sum(latencies)
    if observed > 0:
        summary.mean_concurrency = in_flight_time / observed

    # Latency-over-time windows, bucketed by each invocation's arrival offset
    # within its own repetition (so replicates overlay, not concatenate).
    buckets: Dict[int, List[WorkflowMeasurement]] = {}
    for group in groups:
        group_start = min(_arrival(m) for m in group)
        for m in group:
            buckets.setdefault(int((_arrival(m) - group_start) // window_s), []).append(m)
    for index in sorted(buckets):
        members = buckets[index]
        window_latencies = [_latency(m) for m in members]
        window_functions = sum(len(m.functions) for m in members)
        window_cold = sum(1 for m in members for f in m.functions if f.cold_start)
        summary.windows.append(
            {
                "window_start_s": round(index * window_s, 3),
                "invocations": len(members),
                "latency_p50_s": round(percentile(window_latencies, 0.50), 3),
                "latency_p95_s": round(percentile(window_latencies, 0.95), 3),
                "latency_p99_s": round(percentile(window_latencies, 0.99), 3),
                "cold_start_fraction": round(
                    window_cold / window_functions if window_functions else 0.0, 4
                ),
            }
        )
    return summary


def distinct_containers(measurements: Sequence[WorkflowMeasurement]) -> int:
    return len(
        {
            f.container_id
            for m in measurements
            for f in m.functions
            if f.container_id
        }
    )
