"""OS-noise model and the selfish-detour microbenchmark.

The paper quantifies how much CPU time a serverless function actually receives
with the *selfish detour* benchmark (Hoefler et al., Netgauge): a tight loop
records every iteration that takes significantly longer than expected; the
magnitude and frequency of those detours estimate the share of time the
function was suspended by the host OS.

In the simulator the ground truth is the platform's CPU model
(:mod:`repro.sim.resources`); the selfish-detour benchmark *samples* detour
events consistent with that ground truth plus measurement noise, so that the
analysis pipeline of Figure 13 runs end-to-end exactly as it would against a
real cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .resources import CPUModel
from .rng import RandomStreams

# Cycles one undisturbed selfish-detour loop iteration takes.
_EXPECTED_CYCLES = 100.0


@dataclass(slots=True)
class DetourEvent:
    """One loop iteration that took noticeably longer than expected."""

    iteration: int
    expected_cycles: float
    observed_cycles: float

    @property
    def lost_cycles(self) -> float:
        return max(0.0, self.observed_cycles - self.expected_cycles)


@dataclass
class DetourTrace:
    """The result of one selfish-detour run inside a simulated function."""

    platform: str
    memory_mb: int
    events: List[DetourEvent] = field(default_factory=list)
    total_iterations: int = 0
    expected_cycles_per_iteration: float = 100.0

    def suspension_share(self) -> float:
        """Estimate the fraction of time the function was suspended.

        The estimate divides the cycles lost to detours by the total cycles the
        loop would have needed without interference plus the lost cycles.
        """
        return _suspension_share(
            self.total_iterations,
            self.expected_cycles_per_iteration,
            sum(event.lost_cycles for event in self.events),
        )


def _suspension_share(total_iterations: int, expected_cycles: float, lost: float) -> float:
    """``lost / (useful + lost)`` cycles, zero for a run without iterations."""
    if total_iterations == 0:
        return 0.0
    useful = total_iterations * expected_cycles
    if useful + lost == 0:
        return 0.0
    return lost / (useful + lost)


class NoiseModel:
    """Generates OS-noise effects consistent with a platform's CPU allocation."""

    def __init__(self, platform: str, cpu_model: CPUModel, streams: RandomStreams) -> None:
        self._platform = platform
        self._cpu_model = cpu_model
        self._streams = streams
        # The CPU share for a memory configuration is a pure function of the
        # model, but it sits on the per-compute-call hot path; memoizing it
        # (and its reciprocal) reuses the deterministic part of the slowdown
        # across invocations without touching the per-invocation jitter draw.
        self._inverse_share: Dict[int, float] = {}

    def execution_slowdown(self, memory_mb: int, invocation: str = "") -> float:
        """Multiplier applied to compute time due to the limited CPU share.

        A function with CPU share ``s`` needs ``1 / s`` wall-clock seconds per
        second of compute; sampling noise adds a small run-to-run variation.
        """
        inverse_share = self._inverse_share.get(memory_mb)
        if inverse_share is None:
            inverse_share = 1.0 / self._cpu_model.share(memory_mb)
            self._inverse_share[memory_mb] = inverse_share
        jitter = self._streams.lognormal_around(
            f"noise:{self._platform}:{memory_mb}:{invocation}", 1.0, sigma=0.03
        )
        return max(1.0, inverse_share * jitter)

    def _draw_detours(
        self, memory_mb: int, events: int, invocation: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative iteration counts and observed cycles of each detour."""
        allocation = self._cpu_model.allocation(memory_mb)
        suspension = allocation.suspension_share
        stream = self._streams.stream(
            f"detour:{self._platform}:{memory_mb}:{invocation}"
        )
        if suspension <= 1e-6:
            # Practically no noise: detours are tiny scheduler blips.
            detour_magnitude = _EXPECTED_CYCLES * 0.05
            iterations_between = 10_000
        else:
            # Choose detour frequency/magnitude so that
            #   lost / (useful + lost) == suspension  (in expectation).
            iterations_between = 2_000
            useful_between = iterations_between * _EXPECTED_CYCLES
            detour_magnitude = suspension * useful_between / (1.0 - suspension)

        # Each event draws its gap, then its detour: one draw broadcasting the
        # (gap, detour) parameters over an (events, 2) array, filled in row
        # order, consumes the stream in exactly that order.
        draws = stream.normal(
            (iterations_between, detour_magnitude),
            (iterations_between * 0.05, detour_magnitude * 0.1),
            size=(events, 2),
        )
        gaps = np.maximum(draws[:, 0].astype(np.int64), 1)
        detours = draws[:, 1]
        observed = _EXPECTED_CYCLES + np.where(detours > 0.0, detours, 0.0)
        return np.cumsum(gaps), observed

    def sample_detour_trace(
        self,
        memory_mb: int,
        events_to_collect: int = 5000,
        invocation: str = "",
    ) -> DetourTrace:
        """Simulate a selfish-detour run collecting ``events_to_collect`` detours."""
        counts, observed = self._draw_detours(memory_mb, events_to_collect, invocation)
        trace = DetourTrace(
            platform=self._platform,
            memory_mb=memory_mb,
            expected_cycles_per_iteration=_EXPECTED_CYCLES,
        )
        iterations = counts.tolist()
        trace.events = [
            DetourEvent(iteration, _EXPECTED_CYCLES, cycles)
            for iteration, cycles in zip(iterations, observed.tolist())
        ]
        trace.total_iterations = iterations[-1] if iterations else 0
        return trace

    def suspension_curve(
        self, memory_configurations: Sequence[int], events: int = 5000
    ) -> Dict[int, Dict[str, float]]:
        """Measured vs documented suspension for a sweep of memory configurations.

        The measured share equals ``sample_detour_trace(...).suspension_share()``
        bit for bit (same lost cycles, summed left to right), without events.
        """
        curve: Dict[int, Dict[str, float]] = {}
        for memory in memory_configurations:
            allocation = self._cpu_model.allocation(memory)
            iterations, observed = self._draw_detours(memory, events, "")
            lost = sum(np.maximum(observed - _EXPECTED_CYCLES, 0.0).tolist())
            curve[memory] = {
                "measured_suspension": _suspension_share(
                    int(iterations[-1]) if iterations.size else 0, _EXPECTED_CYCLES, lost
                ),
                "documented_suspension": allocation.documented_suspension_share,
            }
        return curve
