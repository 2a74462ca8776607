"""Platform profiles and the platform runtime.

A :class:`PlatformProfile` bundles every parameter that distinguishes one
cloud from another: CPU allocation, sandbox scaling policy, storage and
payload-channel performance, orchestration behaviour, and pricing.  A
:class:`Platform` instantiates the simulated services for one profile and
executes workflow invocations on the discrete-event engine.

The concrete profiles (``aws``, ``gcp``, ``azure``, ``hpc`` and their 2022/2024
eras) live in the sibling modules of this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Dict, Generator, List, Optional, Tuple, Type, Union

from ...core.definition import WorkflowDefinition
from ..billing import BillingCalculator, FunctionExecutionRecord, PricingModel
from ..container import ContainerPool, ScalingPolicy
from ..engine import Environment, Event
from ..invocation import FunctionSpec, InvocationContext
from ..noise import NoiseModel
from ..orchestration.durable import DurableExecutor
from ..orchestration.events import OrchestrationStats
from ..orchestration.profile import OrchestrationProfile
from ..orchestration.state_machine import StateMachineExecutor
from ..resources import CPUModel
from ..rng import RandomStreams
from ..storage.metrics_store import MeasurementRecord, MetricsStore
from ..storage.nosql import NoSQLProfile, NoSQLStorage
from ..storage.object_storage import ObjectStorage, StorageProfile
from ..storage.payload import PayloadChannel, PayloadProfile


@dataclass
class PlatformProfile:
    """Every parameter that characterises one platform (or one era of it)."""

    name: str
    display_name: str
    region: str
    cpu_model: CPUModel
    #: Relative single-thread speed of the platform's hardware (1.0 = AWS-class).
    cpu_speed: float
    scaling: ScalingPolicy
    storage: StorageProfile
    nosql: NoSQLProfile
    payload: PayloadProfile
    orchestration: OrchestrationProfile
    pricing: PricingModel
    default_memory_mb: int = 256

    def with_overrides(self, **changes: object) -> "PlatformProfile":
        """Return a copy of the profile with selected fields replaced.

        Field names are validated up front: a typo (e.g. from a scenario
        file) raises a ``KeyError`` naming the unknown field and the valid
        ones instead of ``replace``'s opaque ``TypeError``.
        """
        valid = {f.name for f in dataclass_fields(self)}
        unknown = sorted(set(changes) - valid)
        if unknown:
            raise KeyError(
                f"unknown profile field(s) {', '.join(repr(name) for name in unknown)}; "
                f"valid fields: {sorted(valid)}"
            )
        return replace(self, **changes)  # type: ignore[arg-type]


class Platform:
    """The simulated runtime of one platform: services plus the execution engine.

    The executor is built per workflow invocation, so a platform holds no
    reference cycle and refcounting frees its world when a repetition ends.
    """

    def __init__(self, profile: PlatformProfile, seed: int = 0) -> None:
        self.profile = profile
        self.env = Environment()
        self.streams = RandomStreams(seed)
        self.noise = NoiseModel(profile.name, profile.cpu_model, self.streams)
        self.object_storage = ObjectStorage(profile.storage, self.streams, profile.name)
        self.nosql = NoSQLStorage(profile.nosql, self.streams, profile.name)
        self.payload_channel = PayloadChannel(profile.payload, self.streams, profile.name)
        self.metrics = MetricsStore()
        self.container_pool = ContainerPool(self.env, profile.scaling, self.streams, profile.name)
        self.billing = BillingCalculator(profile.pricing)
        self.executions: List[FunctionExecutionRecord] = []
        self.orchestrations: List[OrchestrationStats] = []
        self.outstanding_activities = 0
        self.queued_work_items = 0
        self.checkpoint_backlog_bytes = 0
        self._request_counter = itertools.count()

        self._executor_type: Type[Union[DurableExecutor, StateMachineExecutor]] = (
            DurableExecutor if profile.orchestration.kind == "durable" else StateMachineExecutor
        )

    # ------------------------------------------------------------------ invoke
    def invoke_function(
        self,
        spec: FunctionSpec,
        payload: object,
        phase: str,
        invocation_id: str,
        memory_mb: int,
        report_bytes: bool = False,
    ) -> Generator[Event, object, object]:
        """Simulation process executing one function invocation.

        Acquires a sandbox (incurring queueing and cold-start latency that show
        up as orchestration overhead), runs the handler with an
        :class:`InvocationContext`, advances the clock by the time the handler
        accumulated, reports the measurement record, and returns the handler's
        result (optionally together with the bytes it moved through storage).
        """
        function_memory = spec.memory_mb or memory_mb
        request_id = f"{invocation_id}-{next(self._request_counter)}"
        self.outstanding_activities += 1
        try:
            acquire = yield from self.env.call(self.container_pool.acquire(spec.name))

            concurrency_hint = max(1, self.outstanding_activities,
                                    self.container_pool.active_containers())
            context = InvocationContext(
                function=spec.name,
                phase=phase,
                workflow="",
                invocation_id=invocation_id,
                request_id=request_id,
                memory_mb=function_memory,
                cold_start=acquire.cold_start,
                platform=self.profile.name,
                cpu_model=self.profile.cpu_model,
                cpu_speed=self.profile.cpu_speed,
                noise=self.noise,
                object_storage=self.object_storage,
                nosql=self.nosql,
                payload_channel=self.payload_channel,
                streams=self.streams,
                concurrency_hint=concurrency_hint,
            )

            # Cold starts pay the language-runtime / dependency initialisation
            # inside the function body (it shows up on the critical path).
            context.cold_start_initialization(spec.cold_init_s)
            result = spec.handler(context, payload)
            staged_time = 0.0
            if self.profile.orchestration.stage_storage_io:
                # On Durable Functions the storage traffic of an activity is
                # staged through the task hub and is not covered by the
                # function's own timestamps -- it becomes orchestration overhead.
                staged_time = min(context.storage_time, context.elapsed)
                yield self.env.timeout(staged_time)
            start = self.env.now
            yield self.env.timeout(context.elapsed - staged_time)
            end = self.env.now

            self.metrics.report(
                MeasurementRecord(
                    workflow="",
                    invocation_id=invocation_id,
                    phase=phase,
                    function=spec.name,
                    start=start,
                    end=end,
                    request_id=request_id,
                    container_id=acquire.container.container_id,
                    cold_start=acquire.cold_start,
                    memory_mb=function_memory,
                    extra={
                        "downloaded_bytes": context.downloaded_bytes,
                        "uploaded_bytes": context.uploaded_bytes,
                        "compute_seconds": context.compute_seconds,
                        "queue_wait_s": acquire.wait_time,
                        "cold_start_latency_s": acquire.cold_start_latency,
                    },
                )
            )
            self.executions.append(
                FunctionExecutionRecord(
                    function=spec.name,
                    duration_s=end - start,
                    memory_mb=function_memory,
                    invocation_id=invocation_id,
                )
            )
            self.container_pool.release(acquire.container)
        finally:
            self.outstanding_activities -= 1

        if report_bytes:
            return result, context.downloaded_bytes + context.uploaded_bytes
        return result

    # ----------------------------------------------------------------- execute
    def execute_workflow(
        self,
        definition: WorkflowDefinition,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str,
        memory_mb: Optional[int] = None,
    ) -> Generator[Event, object, Tuple[object, OrchestrationStats]]:
        """Simulation process executing one full workflow invocation."""
        memory = memory_mb or self.profile.default_memory_mb
        result, stats = yield from self._executor_type(self).execute(
            definition, functions, payload, invocation_id, memory
        )
        self.orchestrations.append(stats)
        return result, stats

    def run_workflow(
        self,
        definition: WorkflowDefinition,
        functions: Dict[str, FunctionSpec],
        payload: object,
        invocation_id: str = "inv-0",
        memory_mb: Optional[int] = None,
    ) -> Tuple[object, OrchestrationStats]:
        """Convenience wrapper: execute a single workflow invocation to completion."""
        process = self.env.process(
            self.execute_workflow(definition, functions, payload, invocation_id, memory_mb)
        )
        return self.env.run(until=process)
