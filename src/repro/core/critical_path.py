"""Critical-path and overhead decomposition of measured workflow executions.

The paper's RQ2 analysis (Section 7.3) splits the end-to-end runtime of a
workflow execution into

* the **critical path** ``T_C`` -- the sum over phases of the maximum function
  runtime within the phase, and
* the **overhead** ``T_O = runtime - T_C`` -- time spent in orchestration,
  scheduling, and data movement performed by the workflow service.

This module implements that decomposition on top of the raw per-function
measurements collected by the benchmark harness, plus helper computations used
by several figures: normalisation of the critical path by the platform's CPU
suspension share (Figure 13) and phase-level runtime extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence


@dataclass(slots=True)
class FunctionMeasurement:
    """Timestamps and metadata for a single function invocation within a workflow run.

    Records are mutable, unhashable, slotted values.  A cache-served figure
    run decodes ~23k of them, and a frozen dataclass's ``__init__`` pays one
    ``object.__setattr__`` per field: dropping ``frozen`` halves the build
    cost, and ``slots`` drops the per-record ``__dict__``.  Nothing hashes a
    record or mutates one after construction; treat them as values.
    """

    function: str
    phase: str
    start: float
    end: float
    request_id: str = ""
    container_id: str = ""
    cold_start: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"measurement for {self.function!r} ends before it starts "
                f"({self.end} < {self.start})"
            )


@dataclass(slots=True)
class WorkflowMeasurement:
    """All function measurements belonging to one workflow invocation."""

    workflow: str
    platform: str
    invocation_id: str
    functions: List[FunctionMeasurement] = field(default_factory=list)
    memory_mb: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def add(self, measurement: FunctionMeasurement) -> None:
        self.functions.append(measurement)

    @property
    def start(self) -> float:
        if not self.functions:
            raise ValueError("workflow measurement has no function measurements")
        return min(m.start for m in self.functions)

    @property
    def end(self) -> float:
        if not self.functions:
            raise ValueError("workflow measurement has no function measurements")
        return max(m.end for m in self.functions)

    @property
    def runtime(self) -> float:
        """End-to-end runtime: last end timestamp minus first start timestamp."""
        return self.end - self.start

    def phases(self) -> List[str]:
        seen: List[str] = []
        for measurement in self.functions:
            if measurement.phase not in seen:
                seen.append(measurement.phase)
        return seen

    def phase_measurements(self, phase: str) -> List[FunctionMeasurement]:
        return [m for m in self.functions if m.phase == phase]

    def phase_runtime(self, phase: str) -> float:
        """Runtime of a phase: earliest start to latest end among its functions."""
        measurements = self.phase_measurements(phase)
        if not measurements:
            return 0.0
        return max(m.end for m in measurements) - min(m.start for m in measurements)

    def critical_path(self) -> float:
        """Sum over phases of the maximum function runtime within the phase."""
        return phase_critical_path(
            [m.phase for m in self.functions], [m.end - m.start for m in self.functions]
        )

    def overhead(self) -> float:
        """Scheduling and data-movement overhead: runtime minus critical path."""
        return max(0.0, self.runtime - self.critical_path())

    def cold_start_fraction(self) -> float:
        if not self.functions:
            return 0.0
        cold = sum(1 for m in self.functions if m.cold_start)
        return cold / len(self.functions)

    def is_fully_warm(self) -> bool:
        return all(not m.cold_start for m in self.functions)

    def has_warm_function(self) -> bool:
        return any(not m.cold_start for m in self.functions)

    def normalized_critical_path(self, suspension_share: float) -> float:
        """Critical path scaled by the CPU share actually received.

        The paper normalises as ``T'_C = T_C * (1 - S_M)`` where ``S_M`` is the
        relative suspension time at memory configuration ``M`` (Section 7.3.2).
        """
        if not 0.0 <= suspension_share < 1.0:
            raise ValueError("suspension share must lie in [0, 1)")
        return self.critical_path() * (1.0 - suspension_share)


def phase_critical_path(phases: Iterable[str], durations: Iterable[float]) -> float:
    """The critical path of one invocation's records, given as two columns.

    Single pass: the per-phase maxima (keyed by phase name, the first of
    equal maxima kept) accumulate in first-seen phase order, so the float
    sum matches a per-phase scan exactly.
    """
    maxima: Dict[str, float] = {}
    for phase, duration in zip(phases, durations):
        previous = maxima.get(phase)
        if previous is None or duration > previous:
            maxima[phase] = duration
    total = 0.0
    for value in maxima.values():
        total += value
    return total


@dataclass
class RuntimeBreakdown:
    """Summary of one workflow invocation used by figures 8, 12, and 16."""

    runtime: float
    critical_path: float
    overhead: float
    cold_start_fraction: float

    @classmethod
    def from_measurement(cls, measurement: WorkflowMeasurement) -> "RuntimeBreakdown":
        # One loop finds the span and the cold count; critical_path() stays
        # the one definition of the critical path.  The comparisons mirror
        # min()/max() (the first extreme wins), so runtime is bit-identical
        # to WorkflowMeasurement.runtime, -0.0 and nan included.
        functions = measurement.functions
        if not functions:
            raise ValueError("workflow measurement has no function measurements")
        first = functions[0]
        start = first.start
        end = first.end
        cold = 0
        for m in functions:
            if m.start < start:
                start = m.start
            if m.end > end:
                end = m.end
            if m.cold_start:
                cold += 1
        runtime = end - start
        critical_path = measurement.critical_path()
        # max(0.0, ...) mirrors WorkflowMeasurement.overhead.
        return cls(
            runtime=runtime,
            critical_path=critical_path,
            overhead=max(0.0, runtime - critical_path),
            cold_start_fraction=cold / len(functions),
        )


def scaling_profile(
    measurements: Sequence[WorkflowMeasurement],
    resolution: float = 1.0,
) -> List[Dict[str, float]]:
    """Number of distinct containers active over time across a burst of invocations.

    Reproduces the scaling profiles of Figure 11: at each sample instant we
    count containers that have at least one function running (boundaries
    inclusive).  The time axis is relative to the earliest function start
    across the burst; samples never extend past the measurement horizon, whose
    exact instant is always the last sample.

    Implemented as a single sweep over the sorted start/end events with a
    per-container active counter, so the cost is O(n log n) in the number of
    function measurements rather than O(samples x functions).
    """
    all_functions = [m for wf in measurements for m in wf.functions]
    if not all_functions:
        return []
    origin = min(m.start for m in all_functions)
    horizon = max(m.end for m in all_functions) - origin
    starts = sorted(
        (m.start - origin, m.container_id) for m in all_functions if m.container_id
    )
    ends = sorted(
        (m.end - origin, m.container_id) for m in all_functions if m.container_id
    )
    steps = int(math.ceil(horizon / resolution)) if horizon > 0 else 0
    active_per_container: Dict[str, int] = {}
    active = 0
    start_idx = end_idx = 0
    samples: List[Dict[str, float]] = []
    for step in range(steps + 1):
        instant = min(step * resolution, horizon)
        while start_idx < len(starts) and starts[start_idx][0] <= instant:
            container = starts[start_idx][1]
            count = active_per_container.get(container, 0)
            active_per_container[container] = count + 1
            if count == 0:
                active += 1
            start_idx += 1
        while end_idx < len(ends) and ends[end_idx][0] < instant:
            container = ends[end_idx][1]
            active_per_container[container] -= 1
            if active_per_container[container] == 0:
                active -= 1
            end_idx += 1
        samples.append({"time": instant, "containers": float(active)})
    return samples
