"""Container (sandbox) lifecycle and scaling policies of the simulated platforms.

Cold starts, container reuse, and scale-up limits are where the three clouds
differ most (paper Sections 7.3.1 and 7.3.2, Table 5, Figure 11):

* **AWS** spins up new sandboxes aggressively -- a burst of concurrent workflow
  invocations gets fresh containers (almost 100 % cold starts) but scales out
  quickly;
* **Google Cloud** caps scale-up and prefers reusing existing containers, so a
  burst is served by fewer containers in waves (~70 % cold starts);
* **Azure** keeps a function app with a small number of sandboxes (never more
  than ~10 observed) that each handle many invocations, so almost every
  invocation is warm -- at the price of large scheduling delays.

The :class:`ContainerPool` implements these behaviours behind one interface;
the platform profiles parameterise it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Deque, Dict, Generator, List, Optional, Tuple

from .engine import Environment, Event
from .rng import RandomStreams


@dataclass(slots=True)
class ScalingPolicy:
    """Parameters governing sandbox allocation on one platform."""

    #: Maximum number of concurrently existing sandboxes in one pool.
    max_containers: int
    #: If True, every function gets its own pool; if False (Azure function
    #: apps), all functions of a deployment share one pool.
    per_function_pools: bool
    #: Median cold-start latency added before the first invocation in a sandbox.
    cold_start_median_s: float
    #: Log-normal sigma of the cold-start latency.
    cold_start_sigma: float
    #: Minimum spacing between starting two new sandboxes (scale-up rate limit).
    provisioning_interval_s: float
    #: Delay for handing an invocation to an existing warm sandbox.
    warm_dispatch_s: float = 0.01
    #: Fraction of outstanding requests the platform is willing to back with
    #: dedicated sandboxes.  1.0 (AWS) provisions one sandbox per concurrent
    #: request; 0.5 (Google Cloud) serves a burst with roughly half as many
    #: sandboxes, reusing them in waves; Azure's small ``max_containers``
    #: dominates regardless.
    scale_out_factor: float = 1.0
    #: How many invocations a single sandbox may execute concurrently.  AWS and
    #: Google Cloud sandboxes are single-tenant (1); Azure function-app workers
    #: interleave many activity executions.
    concurrency_per_container: int = 1


@dataclass(slots=True)
class Container:
    """One sandbox: identity, reuse statistics, and concurrency state."""

    container_id: str
    function: Optional[str]
    created_at: float
    active: int = 0
    invocations: int = 0
    last_used_at: float = 0.0
    #: Position of this container in its pool's list (free-list index).
    index: int = 0


@dataclass(slots=True)
class AcquireResult:
    """Outcome of requesting a sandbox for an invocation."""

    container: Container
    cold_start: bool
    cold_start_latency: float
    wait_time: float


class ContainerPool:
    """Allocates sandboxes to invocations under a platform's scaling policy."""

    def __init__(
        self,
        env: Environment,
        policy: ScalingPolicy,
        streams: RandomStreams,
        platform: str,
    ) -> None:
        self._env = env
        self._policy = policy
        self._streams = streams
        self._platform = platform
        self._containers: Dict[str, List[Container]] = {}
        self._waiters: Dict[str, Deque[Event]] = {}
        self._id_counter = itertools.count()
        self._last_provision_time = -1e9
        # Flat bookkeeping replacing per-request object scans: busy slots and
        # busy-container counts per pool, plus (single-tenant pools only) a
        # lazily-validated free-list heap of (-last_used_at, index) entries.
        self._cap = max(1, policy.concurrency_per_container)
        self._busy: Dict[str, int] = {}
        self._active_total = 0
        self._free: Dict[str, List[Tuple[float, int]]] = {}

    # ------------------------------------------------------------------ stats
    def pool_key(self, function: str) -> str:
        return function if self._policy.per_function_pools else "__app__"

    def containers_created(self, function: Optional[str] = None) -> int:
        if function is None:
            return sum(len(pool) for pool in self._containers.values())
        return len(self._containers.get(self.pool_key(function), []))

    def active_containers(self) -> int:
        return self._active_total

    def outstanding(self, function: str) -> int:
        """Requests currently holding or waiting for a sandbox in this pool."""
        key = self.pool_key(function)
        return self._busy.get(key, 0) + len(self._waiters.get(key, []))

    # --------------------------------------------------------------- acquire
    def acquire(self, function: str) -> Generator[Event, object, AcquireResult]:
        """Simulation process: obtain a sandbox for one invocation of ``function``.

        Yields simulation events while waiting; returns an :class:`AcquireResult`.
        """
        key = self.pool_key(function)
        pool = self._containers.setdefault(key, [])
        waiters = self._waiters.setdefault(key, deque())
        requested_at = self._env.now
        cap = self._cap

        while True:
            container = self._take_usable(key, pool, cap)
            if container is not None:
                # Reuse the most recently used sandbox (LIFO keeps the rest idle,
                # matching observed provider behaviour).
                if container.active == 0:
                    self._active_total += 1
                container.active += 1
                self._busy[key] = self._busy.get(key, 0) + 1
                yield self._env.timeout(self._policy.warm_dispatch_s)
                container.last_used_at = self._env.now
                return AcquireResult(
                    container=container,
                    cold_start=False,
                    cold_start_latency=0.0,
                    wait_time=self._env.now - requested_at,
                )

            outstanding = self._busy.get(key, 0) + len(waiters) + 1
            target = min(
                self._policy.max_containers,
                max(1, int(-(-outstanding * self._policy.scale_out_factor // 1))),
            )
            if len(pool) < target:
                container = self._provision(key, function)
                container.active = 1
                self._active_total += 1
                self._busy[key] = self._busy.get(key, 0) + 1
                # Rate-limit sandbox creation (scale-up speed differs per platform).
                provisioning_gap = max(
                    0.0,
                    self._policy.provisioning_interval_s
                    - (self._env.now - self._last_provision_time),
                )
                self._last_provision_time = self._env.now + provisioning_gap
                if provisioning_gap:
                    yield self._env.timeout(provisioning_gap)
                latency = self._cold_start_latency(function)
                yield self._env.timeout(latency)
                container.last_used_at = self._env.now
                return AcquireResult(
                    container=container,
                    cold_start=True,
                    cold_start_latency=latency,
                    wait_time=self._env.now - requested_at,
                )

            # Pool saturated for the current scale-out target: wait for a release.
            waiter = self._env.event()
            waiters.append(waiter)
            yield waiter

    def release(self, container: Container) -> None:
        if container.active <= 0:
            raise ValueError("release without matching acquire")
        container.active -= 1
        container.invocations += 1
        container.last_used_at = self._env.now
        key = container.function if self._policy.per_function_pools else None
        key = key if key is not None else "__app__"
        self._busy[key] -= 1
        if container.active == 0:
            self._active_total -= 1
            if self._cap == 1:
                heappush(
                    self._free.setdefault(key, []),
                    (-container.last_used_at, container.index),
                )
        waiters = self._waiters.get(key)
        if waiters:
            waiters.popleft().succeed()

    # --------------------------------------------------------------- internal
    def _take_usable(self, key: str, pool: List[Container], cap: int) -> Optional[Container]:
        """Pick the sandbox a warm dispatch would reuse, or ``None``.

        Single-tenant pools (``cap == 1``) consult a lazy free-list heap of
        ``(-last_used_at, index)`` entries pushed on release.  Entries are
        validated on pop: a sandbox that was re-acquired since its entry was
        pushed is busy again (or carries a newer ``last_used_at``) and is
        discarded.  Ties on ``last_used_at`` pop the smallest pool index,
        matching ``max()``'s first-maximal choice over the scan order.
        Multi-tenant pools (Azure keeps <= ~10 sandboxes) keep the scan.
        """
        if cap == 1:
            heap = self._free.get(key)
            while heap:
                negative_time, index = heap[0]
                heappop(heap)
                container = pool[index]
                if container.active == 0 and container.last_used_at == -negative_time:
                    return container
            return None
        usable = [c for c in pool if c.active < cap]
        if not usable:
            return None
        return max(usable, key=lambda c: (c.last_used_at, -c.active))

    def _provision(self, key: str, function: str) -> Container:
        pool = self._containers[key]
        container = Container(
            container_id=f"{self._platform}-{key}-{next(self._id_counter)}",
            function=function if self._policy.per_function_pools else None,
            created_at=self._env.now,
            index=len(pool),
        )
        pool.append(container)
        return container

    def _cold_start_latency(self, function: str) -> float:
        return self._streams.lognormal_around(
            f"coldstart:{self._platform}:{function}",
            self._policy.cold_start_median_s,
            sigma=self._policy.cold_start_sigma,
        )
