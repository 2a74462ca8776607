"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import AllOf, AnyOf, Environment, Event, Resource, SimulationError


class TestTimeoutsAndClock:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()
        done = env.timeout(5.0)
        env.run(until=done)
        assert env.now == pytest.approx(5.0)

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Environment().timeout(-1.0)

    def test_nan_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError, match="NaN"):
            env.timeout(float("nan"))
        assert env.now == 0.0

    def test_timeouts_fire_in_order(self):
        env = Environment()
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3.0, "late"))
        env.process(proc(1.0, "early"))
        env.run()
        assert order == ["early", "late"]


class TestProcesses:
    def test_process_returns_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return 42

        result = env.run(until=env.process(proc()))
        assert result == 42

    def test_nested_processes(self):
        env = Environment()

        def child():
            yield env.timeout(2.0)
            return "child-done"

        def parent():
            value = yield env.process(child())
            yield env.timeout(1.0)
            return value

        assert env.run(until=env.process(parent())) == "child-done"
        assert env.now == pytest.approx(3.0)

    def test_process_exception_propagates(self):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            env.run(until=env.process(broken()))

    def test_yielding_non_event_is_an_error(self):
        env = Environment()

        def bad():
            yield 5

        with pytest.raises(SimulationError):
            env.run(until=env.process(bad()))

    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]


class TestCompositeEvents:
    def test_all_of_waits_for_slowest(self):
        env = Environment()

        def proc(delay):
            yield env.timeout(delay)
            return delay

        barrier = env.all_of([env.process(proc(d)) for d in (1.0, 4.0, 2.0)])
        values = env.run(until=barrier)
        assert values == [1.0, 4.0, 2.0]
        assert env.now == pytest.approx(4.0)

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        assert env.run(until=env.all_of([])) == []

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc(delay):
            yield env.timeout(delay)
            return delay

        first = env.any_of([env.process(proc(d)) for d in (3.0, 1.0)])
        assert env.run(until=first) == 1.0
        assert env.now == pytest.approx(1.0)


class TestCompositeEdgeCases:
    """AllOf/AnyOf with already-processed, failing, and empty children."""

    def test_all_of_with_already_processed_children(self):
        env = Environment()
        first = env.timeout(1.0, value="a")
        second = env.timeout(2.0, value="b")
        env.run()  # both children fire and are processed before the barrier exists
        assert first.processed and second.processed
        barrier = env.all_of([first, second])
        assert env.run(until=barrier) == ["a", "b"]
        assert env.now == pytest.approx(2.0)  # no extra time passes

    def test_all_of_mixed_processed_and_pending_children(self):
        env = Environment()
        done = env.timeout(1.0, value="early")
        env.run(until=done)
        pending = env.timeout(3.0, value="late")
        barrier = env.all_of([done, pending])
        assert env.run(until=barrier) == ["early", "late"]
        assert env.now == pytest.approx(4.0)

    def test_all_of_preserves_child_order_for_values(self):
        env = Environment()
        slow = env.timeout(5.0, value="slow")
        fast = env.timeout(1.0, value="fast")
        assert env.run(until=env.all_of([slow, fast])) == ["slow", "fast"]

    def test_all_of_with_failing_child(self):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise RuntimeError("child failed")

        barrier = env.all_of([env.process(broken()), env.timeout(5.0)])
        with pytest.raises(RuntimeError, match="child failed"):
            env.run(until=barrier)

    def test_all_of_with_already_failed_child(self):
        env = Environment()
        failed = env.event()
        failed.fail(RuntimeError("pre-failed"))
        env.step()  # process the failure before the barrier is built
        barrier = env.all_of([failed, env.timeout(1.0)])
        with pytest.raises(RuntimeError, match="pre-failed"):
            env.run(until=barrier)

    def test_any_of_empty_fires_immediately(self):
        env = Environment()
        assert env.run(until=env.any_of([])) is None

    def test_any_of_with_already_processed_child(self):
        env = Environment()
        done = env.timeout(1.0, value="done")
        env.run(until=done)
        first = env.any_of([done, env.timeout(10.0)])
        assert env.run(until=first) == "done"
        assert env.now == pytest.approx(1.0)  # did not wait for the slow child

    def test_any_of_with_failing_child(self):
        env = Environment()

        def broken():
            yield env.timeout(1.0)
            raise ValueError("fast failure")

        first = env.any_of([env.process(broken()), env.timeout(5.0)])
        with pytest.raises(ValueError, match="fast failure"):
            env.run(until=first)

    def test_any_of_ignores_failures_after_the_winner(self):
        env = Environment()

        def broken():
            yield env.timeout(5.0)
            raise ValueError("too late to matter")

        first = env.any_of([env.timeout(1.0, value="winner"), env.process(broken())])
        assert env.run(until=first) == "winner"
        env.run()  # drain the late failure; the settled AnyOf must ignore it
        assert first.exception is None


class TestEvents:
    def test_event_cannot_fire_twice(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_event_failure_propagates_to_waiter(self):
        env = Environment()
        event = env.event()

        def waiter():
            yield event

        process = env.process(waiter())
        event.fail(RuntimeError("bad"))
        with pytest.raises(RuntimeError):
            env.run(until=process)


class TestResource:
    def test_capacity_limits_concurrency(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        concurrency = {"now": 0, "max": 0}

        def worker():
            yield resource.acquire()
            concurrency["now"] += 1
            concurrency["max"] = max(concurrency["max"], concurrency["now"])
            yield env.timeout(1.0)
            concurrency["now"] -= 1
            resource.release()

        barrier = env.all_of([env.process(worker()) for _ in range(6)])
        env.run(until=barrier)
        assert concurrency["max"] == 2
        assert env.now == pytest.approx(3.0)

    def test_contended_handoff_is_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def worker(tag, hold):
            yield resource.acquire()
            order.append(tag)
            yield env.timeout(hold)
            resource.release()

        for tag in ("first", "second", "third"):
            env.process(worker(tag, 1.0))
        env.run()
        assert order == ["first", "second", "third"]

    def test_handoff_keeps_the_slot_occupied(self):
        """Release under contention hands the slot directly to the next waiter
        instead of decrementing in_use -- the slot never appears free."""
        env = Environment()
        resource = Resource(env, capacity=1)
        env.run(until=resource.acquire())
        waiter = resource.acquire()
        assert not waiter.triggered
        assert resource.available == 0
        resource.release()
        # The slot went straight to the waiter: still in use, never free.
        assert waiter.triggered
        assert resource.in_use == 1
        assert resource.available == 0
        env.run()
        # A release with no waiters left drains the slot normally.
        resource.release()
        assert resource.in_use == 0
        assert resource.available == 1

    def test_release_grants_exactly_one_waiter(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        holder = resource.acquire()
        assert holder.triggered
        waiters = [resource.acquire() for _ in range(3)]
        assert not any(w.triggered for w in waiters)
        resource.release()
        env.run()
        assert [w.processed for w in waiters] == [True, False, False]
        assert resource.in_use == 1

    def test_release_without_acquire_fails(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=1).release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)

    def test_max_events_processes_exactly_the_budget(self):
        """Regression: ``run`` used to process ``max_events + 1`` events
        before giving up."""
        env = Environment()
        fired = []

        def proc():
            while True:
                yield env.timeout(1.0)
                fired.append(env.now)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run(max_events=5)
        # Bootstrap event + 4 timeouts = 5 processed events.
        assert len(fired) == 4

    def test_max_events_not_raised_when_queue_drains_first(self):
        env = Environment()
        done = env.timeout(1.0)
        env.run(until=done, max_events=10)
        assert env.now == pytest.approx(1.0)

    def test_run_without_pending_event_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()


class TestHeapKeys:
    """S1 regression: scheduler heap entries must never compare Event objects.

    Events define no ordering, so any heap entry shape that can fall through
    to comparing them -- e.g. ``(time, event)`` tuples tying on ``time`` --
    explodes with a ``TypeError`` the moment two entries collide.  The queue
    therefore stores bare ``(time, seq)`` keys with the payload in a side
    table, and a stale or duplicated key drains harmlessly.
    """

    def test_events_are_unorderable(self):
        # The old failure shape: identical times force heapq/sort to compare
        # the Event objects riding in the entry.
        env = Environment()
        with pytest.raises(TypeError):
            sorted([(1.0, env.event()), (1.0, env.event())])

    def test_heap_entries_are_bare_time_seq_keys(self):
        env = Environment()
        for _ in range(5):
            env.timeout(1.0)
        assert env._queue, "timeouts must be queued"
        for entry in env._queue:
            assert len(entry) == 2
            time, seq = entry
            assert isinstance(time, float)
            assert isinstance(seq, int)

    def test_many_same_time_events_drain_without_comparisons(self):
        env = Environment()
        fired = []
        events = [env.timeout(1.0, value=index) for index in range(50)]
        for event in events:
            # Record completion order; with (time, event) entries this many
            # ties would already have raised inside heappush.
            from repro.sim.engine import add_callback
            add_callback(event, lambda e: fired.append(e.value))
        env.run()
        assert fired == list(range(50))  # FIFO at equal times, via seq

    def test_duplicate_heap_key_is_skipped_as_stale(self):
        import heapq

        env = Environment()
        done = env.timeout(1.0)
        # Hand-construct the collision: the exact same (time, seq) key twice.
        heapq.heappush(env._queue, env._queue[0])
        env.run()  # must neither raise nor double-fire
        assert done.processed
        assert not env._pending


class TestCompositeAlreadySettled:
    """S3: composites built from children that settled before construction."""

    def test_any_of_with_already_failed_child(self):
        env = Environment()
        failed = env.event()
        failed.fail(RuntimeError("pre-failed"))
        env.step()  # process the failure before the composite exists
        first = env.any_of([failed, env.timeout(1.0)])
        with pytest.raises(RuntimeError, match="pre-failed"):
            env.run(until=first)

    def test_all_of_child_failing_after_partial_completion(self):
        env = Environment()
        completed = []

        def ok(delay):
            yield env.timeout(delay)
            completed.append(delay)

        def broken():
            yield env.timeout(2.0)
            raise RuntimeError("late failure")

        barrier = env.all_of([
            env.process(ok(1.0)), env.process(broken()), env.process(ok(3.0)),
        ])
        with pytest.raises(RuntimeError, match="late failure"):
            env.run(until=barrier)
        assert completed == [1.0]  # the fast child finished, the slow did not


class TestBulkSchedulingLane:
    """schedule_call / schedule_batch: the open-loop trigger's fast path."""

    def test_schedule_call_fires_at_the_delay(self):
        env = Environment()
        seen = []
        env.schedule_call(2.5, lambda: seen.append(env.now))
        env.run()
        assert seen == [2.5]

    def test_schedule_call_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Environment().schedule_call(-0.1, lambda: None)

    def test_schedule_call_rejects_nan_delay(self):
        with pytest.raises(SimulationError, match="NaN"):
            Environment().schedule_call(float("nan"), lambda: None)

    def test_batch_fires_in_time_order(self):
        env = Environment()
        seen = []
        count = env.schedule_batch([3.0, 1.0, 2.0], lambda: seen.append(env.now))
        env.run()
        assert count == 3
        assert seen == [1.0, 2.0, 3.0]

    def test_empty_batch_is_a_no_op(self):
        env = Environment()
        assert env.schedule_batch([], lambda: None) == 0
        with pytest.raises(SimulationError):
            env.run(until=env.event())  # nothing was scheduled

    def test_batch_rejects_negative_delays(self):
        with pytest.raises(SimulationError):
            Environment().schedule_batch([1.0, -2.0], lambda: None)

    def test_batch_rejects_nan_delay_anywhere(self):
        # Every NaN comparison is false, so sorting leaves the NaN mid-list
        # and a check of the sorted minimum alone would let it through.
        env = Environment()
        with pytest.raises(SimulationError, match="NaN delay in batch: nan"):
            env.schedule_batch([1.0, float("nan"), 0.5], lambda: None)
        assert env._pending == {}

    def test_batch_interleaves_with_heap_events(self):
        env = Environment()
        order = []

        def proc():
            yield env.timeout(1.5)
            order.append(("process", env.now))

        env.process(proc())
        env.schedule_batch([1.0, 2.0], lambda: order.append(("batch", env.now)))
        env.run()
        assert order == [("batch", 1.0), ("process", 1.5), ("batch", 2.0)]

    def test_second_batch_merges_with_unconsumed_first(self):
        env = Environment()
        seen = []
        env.schedule_batch([1.0, 3.0], lambda: seen.append(("a", env.now)))
        env.schedule_batch([2.0, 4.0], lambda: seen.append(("b", env.now)))
        env.run()
        assert seen == [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)]

    def test_batch_scheduled_from_inside_a_callback(self):
        # Callbacks may re-enter schedule_batch mid-drain; the run lane is
        # rebound, which the run loop must observe on its next iteration.
        env = Environment()
        seen = []

        def second():
            seen.append(("second", env.now))

        def first():
            seen.append(("first", env.now))
            env.schedule_batch([0.5, 1.0], second)

        env.schedule_batch([1.0], first)
        env.run()
        assert seen == [("first", 1.0), ("second", 1.5), ("second", 2.0)]

    def test_batch_ties_preserve_submission_order(self):
        env = Environment()
        seen = []
        env.schedule_batch([1.0, 1.0, 1.0],
                           lambda: seen.append(len(seen)))
        env.run()
        assert seen == [0, 1, 2]

    def test_max_events_budget_covers_batch_callables(self):
        env = Environment()
        fired = []
        env.schedule_batch([float(i) for i in range(10)],
                           lambda: fired.append(env.now))
        with pytest.raises(SimulationError):
            env.run(max_events=5)
        assert len(fired) == 5
