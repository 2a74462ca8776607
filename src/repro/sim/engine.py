"""Deterministic discrete-event simulation engine.

The cloud substrate of this reproduction (container scheduling, orchestration,
storage transfers) runs on a small process-based discrete-event simulator in
the style of SimPy: *processes* are Python generators that ``yield`` events
(timeouts, other processes, composite events) and are resumed by the
environment when those events fire.  Virtual time only advances through
scheduled events, so simulating a 4000-second workflow takes milliseconds of
wall-clock time and results are fully deterministic for a given seed.

The engine is the hot path of every campaign cell (see ``repro-flow bench``),
so its data layout is tuned:

* the heap holds plain ``(time, seq)`` keys -- never event objects, so heap
  sift can never fall into comparing two :class:`Event` instances -- and a
  dense ``seq -> entry`` table maps keys back to their payloads;
* every event class uses ``__slots__``;
* ``Event.callbacks`` is a compact union (``None`` | one callable | list), so
  the common yield-timeout-resume cycle allocates no callback list;
* :meth:`Environment.schedule_call` / :meth:`Environment.schedule_batch`
  schedule bare callables without allocating any event object at all --
  the bulk lane behind open-loop arrival dispatch
  (:class:`repro.faas.trigger.OpenLoopTrigger`).

None of this changes observable scheduling order: entries fire in
``(time, seq)`` order exactly as before, so seeded results are bit-identical
to the pre-optimization engine.

A process that spawns a child and waits on it at once writes
``x = yield from env.call(gen)`` instead of ``x = yield env.process(gen)``.
:meth:`Environment.call` runs the child generator inside its parent, with no
:class:`Process`, bootstrap entry or completion entry.  It keeps the spawned
path's event order by the *exactness rule*: before the child starts, and again
after it returns or raises, it asks whether anything would run before the
bootstrap (or completion) entry the spawned path schedules at ``now``:

* an entry at ``now`` in the heap or the batch lane (a stale key counts:
  being conservative is still exact);
* a sibling callback still to run in the current list dispatch;
* the current :meth:`~Environment.run`'s ``until`` event already processed
  (the loop stops before the spawned bootstrap would run).

If so, the parent yields ``Timeout(env, 0)``, which takes exactly the
``(now, seq)`` slot the skipped entry would have taken; if not, it continues
inline.  A bare ``yield from`` skips this check and reorders same-time
events -- and that order decides, e.g., which container an invocation gets.

A :class:`Process` drops its bound ``_resume`` callback once its generator
returns or raises.  That breaks the process's only reference cycle, so a
finished process is freed by reference counting instead of by a cyclic GC
pass.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A one-shot event that processes can wait on.

    An event is *triggered* with a value via :meth:`succeed` (or with an
    exception via :meth:`fail`); all registered callbacks then run at the
    current simulation time.

    ``callbacks`` is ``None`` until the first callback is registered, then a
    single callable, then a list -- register through :func:`add_callback`
    instead of touching the attribute, so the no-list fast path stays intact.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "triggered", "processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> Any:
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._exception = exception
        self.env._schedule(self)
        return self


def add_callback(event: Event, fn: Callable[[Event], None]) -> None:
    """Register ``fn(event)`` to run when ``event`` is processed.

    The supported way to attach a callback from outside the engine: it keeps
    the compact ``None | callable | list`` representation of
    ``Event.callbacks`` intact.  Callbacks registered on an already-processed
    event never run (callers check ``event.processed`` first, exactly as the
    engine's internal wait sites do).
    """
    cbs = event.callbacks
    if cbs is None:
        event.callbacks = fn
    elif type(cbs) is list:
        cbs.append(fn)
    else:
        event.callbacks = [cbs, fn]


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, for which every comparison is false
            raise SimulationError(f"negative or NaN timeout delay: {delay}")
        self.env = env
        self.callbacks = None
        self._value = value
        self._exception = None
        self.triggered = True
        self.processed = False
        self.delay = delay
        env._schedule(self, delay)


class _Bootstrap:
    """Shared do-nothing event look-alike that seeds a process's first resume."""

    __slots__ = ()
    _value = None
    _exception = None
    value = None
    exception = None


_BOOTSTRAP = _Bootstrap()


class Process(Event):
    """Wraps a generator; the process event fires when the generator returns."""

    __slots__ = ("_generator", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError("a process must wrap a generator")
        self.env = env
        self.callbacks = None
        self._value = None
        self._exception = None
        self.triggered = False
        self.processed = False
        self._generator = generator
        # One bound method for every wait registration of this process.
        self._resume_cb = self._resume
        # Bootstrap: resume the process at the current time.
        env._schedule_fn(self._bootstrap)

    def _bootstrap(self) -> None:
        self._resume(_BOOTSTRAP)

    def _resume(self, event: Any) -> None:
        generator = self._generator
        while True:
            try:
                if event._exception is not None:
                    target = generator.throw(event._exception)
                else:
                    target = generator.send(event._value)
            except StopIteration as stop:
                self._resume_cb = None  # break the self-cycle: refcount frees us
                if not self.triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:  # propagate failures to waiters
                self._resume_cb = None
                if not self.triggered:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded {target!r}, which is not an Event"
                )
            if target.processed:
                # Event already fired; continue immediately with its value.
                event = target
                continue
            cbs = target.callbacks
            if cbs is None:
                target.callbacks = self._resume_cb
            elif type(cbs) is list:
                cbs.append(self._resume_cb)
            else:
                target.callbacks = [cbs, self._resume_cb]
            return


class AllOf(Event):
    """Fires once every child event has fired; value is the list of child values."""

    __slots__ = ("_children", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self.env = env
        self.callbacks = None
        self._value = None
        self._exception = None
        self.triggered = False
        self.processed = False
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            if child.processed:
                self._on_child(child)
            else:
                add_callback(child, self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._children])


class AnyOf(Event):
    """Fires as soon as one child fires; value is that child's value."""

    __slots__ = ("_children",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self.env = env
        self.callbacks = None
        self._value = None
        self._exception = None
        self.triggered = False
        self.processed = False
        self._children = list(events)
        if not self._children:
            self.succeed(None)
            return
        for child in self._children:
            if child.processed:
                self._on_child(child)
                break
            add_callback(child, self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(event.value)


class Environment:
    """The simulation environment: virtual clock plus the event queue.

    The queue holds bare ``(time, seq)`` keys; ``_pending`` maps each live
    ``seq`` to its payload -- an :class:`Event`, or a 0-argument callable
    scheduled through the :meth:`schedule_call`/:meth:`schedule_batch` fast
    lane.  A popped key whose ``seq`` is absent from the table is stale and is
    skipped, so even a hand-constructed duplicate ``(time, seq)`` collision
    (the shape that used to make ``heapq`` compare ``Event`` objects) drains
    harmlessly.

    Keys live in two lanes: ``_queue`` is an ordinary heap for incremental
    scheduling, and ``_run``/``_run_head`` is an already-sorted key vector
    produced by :meth:`schedule_batch` and consumed by index -- popping a
    presorted arrival costs an array read instead of a full heap sift-down.
    Each pop takes whichever lane holds the smaller ``(time, seq)`` key, so
    the global firing order is exactly the single-heap order.
    """

    __slots__ = ("_now", "_queue", "_pending", "_eid", "_run", "_run_head",
                 "_monitor", "_until", "_fanout")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = initial_time
        self._queue: List[Tuple[float, int]] = []
        self._pending: Dict[int, Any] = {}
        self._eid = 0
        self._run: List[Tuple[float, int]] = []
        self._run_head = 0
        self._monitor: Any = None
        # What call()'s exactness check needs beyond the queues: the running
        # run()'s `until` event, and whether a list dispatch is in progress.
        self._until: Optional[Event] = None
        self._fanout = False

    @property
    def now(self) -> float:
        return self._now

    def set_monitor(self, monitor: Any) -> None:
        """Attach (or detach with ``None``) an external run monitor.

        This is the engine's *sanctioned instrumentation seam*: the engine
        imports nothing from ``repro.observability`` (lint rule R009); an
        attached monitor receives exactly one duck-typed
        ``run_complete(events=..., elapsed=..., heap_depth=..., run_lane=...)``
        call per :meth:`run` exit.  Information only flows out -- the monitor
        can never perturb scheduling order, so seeded results stay
        bit-identical with or without one attached.  With no monitor the hot
        loop pays nothing (one ``None`` check per run, not per event).
        """
        self._monitor = monitor

    # -------------------------------------------------------------- scheduling
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        seq = self._eid
        self._eid = seq + 1
        self._pending[seq] = event
        heapq.heappush(self._queue, (self._now + delay, seq))

    def _schedule_fn(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        seq = self._eid
        self._eid = seq + 1
        self._pending[seq] = fn
        heapq.heappush(self._queue, (self._now + delay, seq))

    def schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` at ``now + delay`` without allocating an event.

        The single-entry fast lane: use it when nothing needs to wait on the
        scheduled work (the callable can itself create events or processes).
        """
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay: {delay}")
        self._schedule_fn(fn, delay)

    def schedule_batch(self, delays: Iterable[float], fn: Callable[[], None]) -> int:
        """Bulk-schedule ``fn()`` once per entry of ``delays`` (relative to now).

        The whole vector is compiled into pre-sorted ``(time, seq)`` keys in
        one pass and parked in the sorted-run lane, so no per-entry heap sift
        or event object is ever created -- scheduling *and* draining an
        arrival are both O(1) apart from the initial sort.  Entries at equal
        times fire in their order within ``delays``.  Returns the number of
        scheduled entries.
        """
        ts = sorted(delays)
        if not ts:
            return 0
        # A NaN anywhere makes the sum NaN (and the sort order meaningless);
        # without one, ts[0] is the true minimum.
        total = sum(ts)
        if not (ts[0] >= 0 and total == total):
            bad = next(t for t in ts if not t >= 0)
            raise SimulationError(f"negative or NaN delay in batch: {bad}")
        now = self._now
        base = self._eid
        end = base + len(ts)
        self._eid = end
        self._pending.update(dict.fromkeys(range(base, end), fn))
        entries = [(now + t, seq) for seq, t in enumerate(ts, base)]
        run = self._run
        head = self._run_head
        if head >= len(run):
            self._run = entries
        else:
            # A second batch while the first still has unconsumed keys: merge
            # the sorted remainders (stable, so equal keys keep seq order).
            self._run = list(heapq.merge(run[head:], entries))
        self._run_head = 0
        return len(ts)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        return Process(self, generator)

    def call(self, generator: Generator[Event, Any, Any]) -> Generator[Event, Any, Any]:
        """Run ``generator`` inside the calling process and return its value.

        Use as ``x = yield from env.call(gen)``: the same event order, value
        and exception as ``x = yield env.process(gen)``, without the child
        :class:`Process` and its two queue entries (module docstring: the
        exactness rule).
        """
        if self._contended():
            yield Timeout(self, 0)  # the bootstrap entry's (now, seq) slot
        try:
            value = yield from generator
        except GeneratorExit:
            raise
        except BaseException:
            if self._contended():
                yield Timeout(self, 0)  # the completion entry's slot
            raise
        if self._contended():
            yield Timeout(self, 0)
        return value

    def _contended(self) -> bool:
        """Would anything run before an entry scheduled now at ``now``?"""
        now = self._now
        queue = self._queue
        run = self._run
        head = self._run_head
        until = self._until
        return bool(
            (queue and queue[0][0] <= now)
            or (head < len(run) and run[head][0] <= now)
            or self._fanout
            or (until is not None and until.processed)
        )

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -------------------------------------------------------------- execution
    def step(self) -> None:
        queue = self._queue
        run = self._run
        head = self._run_head
        if head < len(run) and (not queue or run[head] <= queue[0]):
            time, seq = run[head]
            self._run_head = head + 1
        elif queue:
            time, seq = heapq.heappop(queue)
        else:
            raise SimulationError("no more events to process")
        entry = self._pending.pop(seq, None)
        if entry is None:
            return  # stale key (duplicate collision shape): skip harmlessly
        if time < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = time
        if isinstance(entry, Event):
            entry.processed = True
            callbacks = entry.callbacks
            if callbacks is not None:
                entry.callbacks = None
                if type(callbacks) is list:
                    self._fanout = True
                    for callback in callbacks:
                        callback(entry)
                    self._fanout = False
                else:
                    callbacks(entry)
        else:
            entry()

    def run(self, until: Optional[Event] = None, max_events: int = 10_000_000) -> Any:
        """Run until ``until`` fires (or the queue drains).  Returns its value.

        At most ``max_events`` events are processed before giving up.
        """
        # The body of step() is inlined (twice -- drain vs. awaited shape, so
        # the drain loop pays nothing for the `until` check): this loop IS the
        # simulator's hot path, and the per-event call/attribute overhead is
        # measurable (see the engine cells of `repro-flow bench`).  The
        # monitor seam costs one None check and a try/finally per run() --
        # never anything per event.
        monitor = self._monitor
        start = perf_counter() if monitor is not None else 0.0
        queue = self._queue
        pending_pop = self._pending.pop
        pop = heapq.heappop
        remaining = max_events
        self._until = until
        try:
            if until is None:
                while True:
                    # _run/_run_head are re-read every iteration: a callback may
                    # park a fresh batch mid-drain (only `_queue`'s identity is
                    # stable enough to cache).
                    run = self._run
                    head = self._run_head
                    if head < len(run) and (not queue or run[head] <= queue[0]):
                        time, seq = run[head]
                        self._run_head = head + 1
                    elif queue:
                        time, seq = pop(queue)
                    else:
                        break
                    if remaining <= 0:
                        raise SimulationError(
                            f"simulation did not settle within {max_events} events"
                        )
                    remaining -= 1
                    entry = pending_pop(seq, None)
                    if entry is None:
                        continue
                    if time < self._now:
                        raise SimulationError("event scheduled in the past")
                    self._now = time
                    if isinstance(entry, Event):
                        entry.processed = True
                        callbacks = entry.callbacks
                        if callbacks is not None:
                            entry.callbacks = None
                            if type(callbacks) is list:
                                self._fanout = True
                                for callback in callbacks:
                                    callback(entry)
                                self._fanout = False
                            else:
                                callbacks(entry)
                    else:
                        entry()
                return None
            while True:
                if until.processed:
                    break
                run = self._run
                head = self._run_head
                if head < len(run) and (not queue or run[head] <= queue[0]):
                    time, seq = run[head]
                    self._run_head = head + 1
                elif queue:
                    time, seq = pop(queue)
                else:
                    break
                if remaining <= 0:
                    raise SimulationError(
                        f"simulation did not settle within {max_events} events"
                    )
                remaining -= 1
                entry = pending_pop(seq, None)
                if entry is None:
                    continue
                if time < self._now:
                    raise SimulationError("event scheduled in the past")
                self._now = time
                if isinstance(entry, Event):
                    entry.processed = True
                    callbacks = entry.callbacks
                    if callbacks is not None:
                        entry.callbacks = None
                        if type(callbacks) is list:
                            self._fanout = True
                            for callback in callbacks:
                                callback(entry)
                            self._fanout = False
                        else:
                            callbacks(entry)
                else:
                    entry()
            if not until.processed:
                raise SimulationError("simulation ended before the awaited event fired")
            if until.exception is not None:
                raise until.exception
            return until.value
        finally:
            self._until = None
            self._fanout = False  # a callback may have raised mid-dispatch
            if monitor is not None:
                monitor.run_complete(
                    events=max_events - remaining,
                    elapsed=perf_counter() - start,
                    heap_depth=len(self._queue),
                    run_lane=len(self._run) - self._run_head,
                )


class Resource:
    """A counted resource with FIFO queuing (e.g. container slots on a platform)."""

    __slots__ = ("env", "capacity", "_in_use", "_waiters")

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be at least 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        """Returns an event that fires once a slot is granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            # Inlined Event.succeed: the event is freshly built, so the
            # already-triggered guard can never fire on this path.
            event.triggered = True
            self.env._schedule(event)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without matching acquire")
        if self._waiters:
            # Fast-path handoff: the slot moves straight to the next waiter
            # without ever decrementing `_in_use`.  Waiters are enqueued
            # untriggered, so succeed is inlined here as well.
            waiter = self._waiters.popleft()
            waiter.triggered = True
            self.env._schedule(waiter)
        else:
            self._in_use -= 1
