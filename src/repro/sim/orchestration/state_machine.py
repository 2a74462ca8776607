"""State-machine workflow executor (AWS Step Functions / Google Cloud Workflows).

The executor interprets the platform-agnostic workflow definition with the
semantics of a static state machine: the orchestration service performs a
billable state transition for every step, fans map items out up to the
platform's parallelism limit, and passes payloads between states through the
payload channel.  All latencies are charged on the simulation clock, so the
difference between critical path and orchestration overhead emerges from the
execution rather than being asserted.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ...core.definition import WorkflowDefinition
from ...core.phases import (
    LoopPhase,
    MapPhase,
    ParallelPhase,
    Phase,
    RepeatPhase,
    SwitchPhase,
    TaskPhase,
)
from ..engine import Event
from ..invocation import FunctionSpec
from .events import OrchestrationError, OrchestrationStats, payload_size_bytes, resolve_array
from .profile import OrchestrationProfile


class StateMachineExecutor:
    """Executes a workflow definition as a billed state machine."""

    def __init__(self, platform: "object") -> None:
        # ``platform`` is a PlatformRuntime (duck-typed to avoid a circular import):
        # it provides env, profile, payload_channel, and invoke_function().
        self._platform = platform

    # ------------------------------------------------------------------ public
    def execute(
        self,
        definition: WorkflowDefinition,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
    ) -> Generator[Event, object, Tuple[object, OrchestrationStats]]:
        env = self._platform.env
        profile: OrchestrationProfile = self._platform.profile.orchestration
        stats = OrchestrationStats(
            platform=self._platform.profile.name,
            workflow=definition.name,
            invocation_id=invocation_id,
            started_at=env.now,
        )
        stats.state_transitions += profile.transitions_workflow_fixed
        yield env.timeout(profile.transition_latency_s * profile.transitions_workflow_fixed)

        current: Optional[str] = definition.root
        visited_without_progress = 0
        while current is not None:
            phase = definition.phase(current)
            payload, next_override = yield from self._run_phase(
                phase, definition, functions, payload, invocation_id, memory_mb, stats
            )
            current = next_override if next_override is not None else phase.next
            visited_without_progress += 1
            if visited_without_progress > 10_000:
                raise OrchestrationError("workflow did not terminate (possible cycle)")

        stats.finished_at = env.now
        stats.orchestrator_time_s = profile.transition_latency_s * stats.state_transitions
        return payload, stats

    # ------------------------------------------------------------------ phases
    def _run_phase(
        self,
        phase: Phase,
        definition: WorkflowDefinition,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
        phase_label: Optional[str] = None,
    ) -> Generator[Event, object, Tuple[object, Optional[str]]]:
        # Functions inside a parallel phase report the parallel phase's name so
        # that the critical-path decomposition sees them as one phase.
        label = phase_label or phase.name
        if isinstance(phase, TaskPhase):
            result = yield from self._run_task(
                phase.func_name, label, functions, payload, invocation_id, memory_mb, stats
            )
            return result, None
        if isinstance(phase, LoopPhase):
            result = yield from self._run_loop(
                phase, functions, payload, invocation_id, memory_mb, stats, label
            )
            return result, None
        if isinstance(phase, MapPhase):
            result = yield from self._run_map(
                phase, functions, payload, invocation_id, memory_mb, stats, label
            )
            return result, None
        if isinstance(phase, RepeatPhase):
            result = payload
            for task in phase.unrolled():
                result = yield from self._run_task(
                    task.func_name, label, functions, result, invocation_id, memory_mb, stats
                )
            return result, None
        if isinstance(phase, SwitchPhase):
            result, target = yield from self._run_switch(phase, payload, stats)
            return result, target
        if isinstance(phase, ParallelPhase):
            result = yield from self._run_parallel(
                phase, definition, functions, payload, invocation_id, memory_mb, stats
            )
            return result, None
        raise OrchestrationError(f"unsupported phase type {type(phase).__name__}")

    def _charge_transitions(self, stats: OrchestrationStats, count: int) -> Event:
        profile: OrchestrationProfile = self._platform.profile.orchestration
        stats.state_transitions += count
        return self._platform.env.timeout(profile.transition_latency_s * count)

    def _run_task(
        self,
        func_name: str,
        phase_name: str,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
    ) -> Generator[Event, object, object]:
        profile: OrchestrationProfile = self._platform.profile.orchestration
        if func_name not in functions:
            raise OrchestrationError(f"workflow references unknown function {func_name!r}")
        yield self._charge_transitions(stats, profile.transitions_per_task)
        # The payload is handed to the function via the invocation channel.
        transfer = self._platform.payload_channel.transfer_duration(
            payload_size_bytes(payload), label=func_name
        )
        yield self._platform.env.timeout(transfer)
        result = yield from self._platform.env.call(
            self._platform.invoke_function(
                functions[func_name], payload, phase_name, invocation_id, memory_mb
            )
        )
        stats.activity_count += 1
        return result

    def _run_map(
        self,
        phase: MapPhase,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
        phase_label: Optional[str] = None,
    ) -> Generator[Event, object, List[object]]:
        profile: OrchestrationProfile = self._platform.profile.orchestration
        env = self._platform.env
        items = resolve_array(payload, phase.array)
        sub_tasks = [p for p in phase.sub_workflow_order() if isinstance(p, TaskPhase)]
        if not sub_tasks:
            raise OrchestrationError(f"map phase {phase.name!r} has no task sub-phases")

        yield self._charge_transitions(stats, profile.transitions_map_setup)

        results: List[object] = [None] * len(items)
        # Respect the platform's parallelism limit by running the items in waves.
        limit = profile.max_parallelism
        for wave_start in range(0, len(items), limit):
            wave = items[wave_start : wave_start + limit]
            processes = []
            for index, item in enumerate(wave, start=wave_start):
                stats.state_transitions += profile.transitions_per_map_item * len(sub_tasks)
                processes.append(
                    (index, env.process(self._run_map_item(
                        sub_tasks, functions, item, phase_label or phase.name,
                        invocation_id, memory_mb, stats
                    )))
                )
            # Transition latency for dispatching this wave.
            yield env.timeout(
                profile.transition_latency_s
                * profile.transitions_per_map_item
                * len(wave)
            )
            wave_results = yield env.all_of([proc for _, proc in processes])
            for (index, _), value in zip(processes, wave_results):
                results[index] = value
        return results

    def _run_map_item(
        self,
        sub_tasks: List[TaskPhase],
        functions: Dict[str, FunctionSpec],
        item: object,
        phase_name: str,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
    ) -> Generator[Event, object, object]:
        env = self._platform.env
        current = item
        for sub in sub_tasks:
            if sub.func_name not in functions:
                raise OrchestrationError(
                    f"workflow references unknown function {sub.func_name!r}"
                )
            transfer = self._platform.payload_channel.transfer_duration(
                payload_size_bytes(current), label=sub.func_name
            )
            yield env.timeout(transfer)
            current = yield from env.call(
                self._platform.invoke_function(
                    functions[sub.func_name], current, phase_name, invocation_id, memory_mb
                )
            )
            stats.activity_count += 1
        return current

    def _run_loop(
        self,
        phase: LoopPhase,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
        phase_label: Optional[str] = None,
    ) -> Generator[Event, object, List[object]]:
        profile: OrchestrationProfile = self._platform.profile.orchestration
        items = resolve_array(payload, phase.array)
        sub_tasks = [p for p in phase.sub_workflow_order() if isinstance(p, TaskPhase)]
        yield self._charge_transitions(stats, profile.transitions_map_setup)
        results: List[object] = []
        for item in items:
            yield self._charge_transitions(
                stats, profile.transitions_per_map_item * max(1, len(sub_tasks))
            )
            result = yield from self._run_map_item(
                sub_tasks, functions, item, phase_label or phase.name,
                invocation_id, memory_mb, stats
            )
            results.append(result)
        return results

    def _run_switch(
        self, phase: SwitchPhase, payload: object, stats: OrchestrationStats
    ) -> Generator[Event, object, Tuple[object, Optional[str]]]:
        profile: OrchestrationProfile = self._platform.profile.orchestration
        yield self._charge_transitions(stats, profile.transitions_per_switch)
        if not isinstance(payload, dict):
            raise OrchestrationError("switch phases require a dict payload")
        target = phase.select(payload)
        if target is None:
            target = phase.next
        return payload, target

    def _run_parallel(
        self,
        phase: ParallelPhase,
        definition: WorkflowDefinition,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
    ) -> Generator[Event, object, Dict[str, object]]:
        env = self._platform.env
        profile: OrchestrationProfile = self._platform.profile.orchestration
        yield self._charge_transitions(stats, profile.transitions_map_setup)
        processes = []
        for branch in phase.branches:
            processes.append(
                (branch.name, env.process(self._run_branch(
                    branch, definition, functions, payload, invocation_id, memory_mb, stats,
                    phase.name,
                )))
            )
        branch_results = yield env.all_of([proc for _, proc in processes])
        return {name: value for (name, _), value in zip(processes, branch_results)}

    def _run_branch(
        self,
        branch: "object",
        definition: WorkflowDefinition,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
        phase_label: Optional[str] = None,
    ) -> Generator[Event, object, object]:
        current_payload = payload
        for sub in branch.sub_workflow_order():
            current_payload, _ = yield from self._run_phase(
                sub, definition, functions, current_payload, invocation_id, memory_mb, stats,
                phase_label,
            )
        return current_payload
