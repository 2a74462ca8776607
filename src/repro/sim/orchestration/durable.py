"""Durable-orchestrator workflow executor (Azure Durable Functions).

Azure workflows are driven by a user-supplied orchestrator function that
parses the SeBS-Flow definition and spawns activity invocations
(paper Section 4.2.3).  The executor models the observable behaviour of the
Durable Functions runtime:

* the orchestrator itself is cheap (the paper measures ~13.6 ms per replay for
  the largest benchmark), but every activity is dispatched through the task
  hub's work-item queue, which adds a latency that grows with how many
  activities are outstanding on the whole function app;
* after an activity completes, its result is checkpointed through Azure
  Storage; this result-processing time grows with the amount of data the
  activity moved, which is where the storage-I/O-dependent overhead of
  Figure 9a comes from;
* return payloads beyond the inline threshold spill to remote storage
  (handled by the payload channel, Figure 9b).

Because dispatch and checkpointing happen outside the function's own
start/end timestamps, they appear as *overhead* in the critical-path
decomposition -- while the activity execution itself is fast thanks to Azure's
generous CPU allocation, matching the paper's observations.
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


class DurableExecutor:
    """Executes a workflow definition with Durable-Functions semantics."""

    def __init__(self, platform: "object") -> None:
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
        # Parsing the platform-independent definition inside the orchestrator --
        # the overhead the paper quantifies in Section 6.2 (milliseconds).
        parse_time = 0.002 + 0.0002 * len(definition.states)
        stats.orchestrator_time_s += parse_time
        yield env.timeout(parse_time)

        current: Optional[str] = definition.root
        guard = 0
        while current is not None:
            phase = definition.phase(current)
            payload, next_override = yield from self._run_phase(
                phase, definition, functions, payload, invocation_id, memory_mb, stats
            )
            current = next_override if next_override is not None else phase.next
            guard += 1
            if guard > 10_000:
                raise OrchestrationError("workflow did not terminate (possible cycle)")

        stats.finished_at = env.now
        return payload, stats

    # ----------------------------------------------------------------- helpers
    def _replay(self, stats: OrchestrationStats, awaited: int = 1) -> Event:
        """Orchestrator replay after awaiting ``awaited`` history events."""
        profile: OrchestrationProfile = self._platform.profile.orchestration
        duration = profile.replay_latency_s * max(1, awaited)
        stats.orchestrator_time_s += duration
        stats.state_transitions += 2 * max(1, awaited)  # scheduled + completed events
        return self._platform.env.timeout(duration)

    def _run_activity(
        self,
        func_name: str,
        phase_name: str,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: int,
        stats: OrchestrationStats,
    ) -> Generator[Event, object, object]:
        env = self._platform.env
        profile: OrchestrationProfile = self._platform.profile.orchestration
        if func_name not in functions:
            raise OrchestrationError(f"workflow references unknown function {func_name!r}")

        # Work-item queue dispatch: latency grows with the number of work items
        # queued or running on the whole app and with the checkpointing backlog
        # of storage-heavy activities that completed recently.
        self._platform.queued_work_items += 1
        load = self._platform.outstanding_activities + self._platform.queued_work_items
        dispatch_median = (
            profile.dispatch_base_s
            + profile.dispatch_load_s_per_activity * load
            + profile.dispatch_backlog_s_per_byte * self._platform.checkpoint_backlog_bytes
        )
        dispatch = self._platform.streams.lognormal_around(
            f"dispatch:{invocation_id}:{func_name}", max(1e-4, dispatch_median), profile.dispatch_sigma
        )
        try:
            yield env.timeout(dispatch)

            # The input payload travels through the task hub (spills when large).
            transfer = self._platform.payload_channel.transfer_duration(
                payload_size_bytes(payload), label=func_name
            )
            yield env.timeout(transfer)
        finally:
            self._platform.queued_work_items -= 1

        result, moved_bytes = yield from env.call(
            self._platform.invoke_function(
                functions[func_name],
                payload,
                phase_name,
                invocation_id,
                memory_mb,
                report_bytes=True,
            )
        )
        stats.activity_count += 1

        # Result checkpointing: grows with the data the activity moved through
        # storage and with the size of the returned payload.  While the result
        # is being checkpointed it occupies the task hub and slows down the
        # dispatch of further work items (the backlog gauge).
        chargeable_bytes = max(0, moved_bytes - profile.completion_io_threshold_bytes)
        completion = (
            profile.completion_base_s
            + profile.completion_io_s_per_byte * chargeable_bytes
        )
        completion += self._platform.payload_channel.transfer_duration(
            payload_size_bytes(result), label=f"{func_name}:return"
        )
        stats.orchestrator_time_s += profile.completion_base_s
        self._platform.checkpoint_backlog_bytes += chargeable_bytes
        try:
            yield env.timeout(completion)
        finally:
            self._platform.checkpoint_backlog_bytes -= chargeable_bytes
        return result

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
        env = self._platform.env
        # Functions inside a parallel phase report the parallel phase's name so
        # that the critical-path decomposition sees them as one phase.
        label = phase_label or phase.name
        if isinstance(phase, TaskPhase):
            result = yield from self._run_activity(
                phase.func_name, label, functions, payload, invocation_id, memory_mb, stats
            )
            yield self._replay(stats, 1)
            return result, None

        if isinstance(phase, LoopPhase):
            items = resolve_array(payload, phase.array)
            sub_tasks = [p for p in phase.sub_workflow_order() if isinstance(p, TaskPhase)]
            results: List[object] = []
            for item in items:
                current = item
                for sub in sub_tasks:
                    current = yield from self._run_activity(
                        sub.func_name, label, functions, current, invocation_id, memory_mb, stats
                    )
                    yield self._replay(stats, 1)
                results.append(current)
            return results, None

        if isinstance(phase, MapPhase):
            items = resolve_array(payload, phase.array)
            sub_tasks = [p for p in phase.sub_workflow_order() if isinstance(p, TaskPhase)]
            if not sub_tasks:
                raise OrchestrationError(f"map phase {phase.name!r} has no task sub-phases")
            processes = [
                env.process(
                    self._run_map_item(
                        sub_tasks, functions, item, label, invocation_id, memory_mb, stats
                    )
                )
                for item in items
            ]
            results = yield env.all_of(processes)
            yield self._replay(stats, len(items) * len(sub_tasks))
            return list(results), None

        if isinstance(phase, RepeatPhase):
            current = payload
            for _ in range(phase.count):
                current = yield from self._run_activity(
                    phase.func_name, label, functions, current, invocation_id, memory_mb, stats
                )
                yield self._replay(stats, 1)
            return current, None

        if isinstance(phase, SwitchPhase):
            if not isinstance(payload, dict):
                raise OrchestrationError("switch phases require a dict payload")
            yield self._replay(stats, 1)
            target = phase.select(payload)
            if target is None:
                target = phase.next
            return payload, target

        if isinstance(phase, ParallelPhase):
            processes = []
            for branch in phase.branches:
                processes.append(
                    (branch.name, env.process(self._run_branch(
                        branch, definition, functions, payload, invocation_id, memory_mb, stats,
                        phase.name,
                    )))
                )
            branch_results = yield env.all_of([proc for _, proc in processes])
            yield self._replay(stats, len(processes))
            return {
                name: value for (name, _), value in zip(processes, branch_results)
            }, None

        raise OrchestrationError(f"unsupported phase type {type(phase).__name__}")

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
        current = item
        for sub in sub_tasks:
            current = yield from self._run_activity(
                sub.func_name, phase_name, functions, current, invocation_id, memory_mb, stats
            )
        return current

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
