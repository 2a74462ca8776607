"""``yield from env.call(gen)`` is exactly ``yield env.process(gen)``.

The oracle is the spawned path itself: every scenario below is simulated
twice, once with each child spawned as a :class:`Process` and waited on, once
with the child run inline through :meth:`Environment.call`.  Both runs must
resume the same code at the same times in the same order, and hand back the
same values and exceptions.  Delays come from a coarse grid so that time ties
are exact and common -- same-time events are where a careless inline path
would reorder things.

Also here: finished processes are freed without the cyclic GC, and no code
under ``src/repro`` spawns a child only to wait on it at once.
"""

import ast
import gc
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment, Process

GRID = (0.0, 0.5, 1.0)
N_SHARED = 3


class ChildError(Exception):
    pass


def simulate(scenario, inline):
    """Run ``scenario``; returns the resume trace, spawned or inline."""
    env = Environment()
    trace = []
    done = env.event()
    done.succeed("done")  # seq 0: processed before any parent can wait on it
    shared = [env.event() for _ in range(N_SHARED)]
    for event, at in zip(shared, scenario["shared_at"]):
        env.schedule_call(at, lambda event=event, at=at: event.succeed(at))

    def wait(label, step):
        kind, arg = step
        if kind == "timeout":
            value = yield env.timeout(arg, value=arg)
        elif kind == "processed":
            value = yield done
        elif kind == "shared":
            value = yield shared[arg]
        else:  # a nested spawn-and-wait: the grandchild only sleeps
            value = yield from spawn_and_wait(grandchild(label, arg))
        trace.append((env.now, label, kind, value))

    def spawn_and_wait(generator):
        if inline:
            return (yield from env.call(generator))
        return (yield env.process(generator))

    def grandchild(label, delays):
        trace.append((env.now, label, "grandchild"))
        for delay in delays:
            yield env.timeout(delay)
            trace.append((env.now, label, "grandchild", delay))
        return f"{label}/grandchild"

    def child(label, spec):
        trace.append((env.now, label, "child"))
        for step in spec["child"]:
            yield from wait(label, step)
        if spec["raises"]:
            raise ChildError(label)
        return f"{label}/child"

    def parent(label, spec):
        trace.append((env.now, label, "parent"))
        for step in spec["before"]:
            yield from wait(label, step)
        try:
            value = yield from spawn_and_wait(child(label, spec))
        except ChildError as exc:
            trace.append((env.now, label, "raised", repr(exc)))
        else:
            trace.append((env.now, label, "returned", value))
        for step in spec["after"]:
            yield from wait(label, step)
        return label

    processes = []
    batch = []

    def arrive(label, spec):
        trace.append((env.now, label, "arrival"))
        processes.append(env.process(parent(label, spec)))

    for label, spec in enumerate(scenario["parents"]):
        start = lambda label=label, spec=spec: arrive(label, spec)  # noqa: E731
        if spec["lane"] == "heap":
            env.schedule_call(spec["arrival"], start)
        else:
            batch.append((spec["arrival"], start))
    # schedule_batch fires equal times in input order; sort the starters the
    # same stable way so the n-th firing starts the n-th starter.
    batch.sort(key=lambda pair: pair[0])
    starters = iter(starter for _, starter in batch)

    def schedule_arrivals(hops):
        # Parked mid-run, after `hops` extra same-time entries, the batch
        # lane can hold the only entries left at a time some parent resumes.
        if hops:
            env.schedule_call(0.0, lambda: schedule_arrivals(hops - 1))
        else:
            env.schedule_batch([at for at, _ in batch], lambda: next(starters)())

    env.schedule_call(scenario["batch_at"], lambda: schedule_arrivals(scenario["batch_hops"]))

    if scenario["until"] is not None:
        until = shared[scenario["until"]]
        trace.append(("until returned", env.run(until=until), env.now))
    env.run()
    trace.append(("results", [(p.value, repr(p.exception)) for p in processes]))
    return trace


STEP = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(GRID)),
    st.just(("processed", None)),
    st.tuples(st.just("shared"), st.integers(0, N_SHARED - 1)),
    st.tuples(st.just("nested"), st.lists(st.sampled_from(GRID), max_size=2)),
)
PARENT = st.fixed_dictionaries({
    "lane": st.sampled_from(["heap", "batch"]),
    "arrival": st.sampled_from(GRID),
    "before": st.lists(STEP, max_size=2),
    "child": st.lists(STEP, max_size=3),
    "raises": st.booleans(),
    "after": st.lists(STEP, max_size=1),
})
SCENARIO = st.fixed_dictionaries({
    "parents": st.lists(PARENT, min_size=1, max_size=6),
    "shared_at": st.lists(st.sampled_from(GRID + (1.5,)),
                          min_size=N_SHARED, max_size=N_SHARED),
    "until": st.one_of(st.none(), st.integers(0, N_SHARED - 1)),
    "batch_at": st.sampled_from(GRID),
    "batch_hops": st.integers(0, 2),
})


def parent_spec(before=(), child=(), raises=False, after=(), lane="heap", arrival=0.0):
    return {"lane": lane, "arrival": arrival, "before": list(before),
            "child": list(child), "raises": raises, "after": list(after)}


#: Two parents resumed by one event's callback list: the first one's child
#: must not start before the second parent has resumed.
FAN_OUT = {
    "parents": [
        parent_spec(before=[("shared", 0)], child=[("timeout", 0.0)]),
        parent_spec(before=[("shared", 0)], child=[("timeout", 0.5)]),
        parent_spec(lane="batch", arrival=0.5, child=[("shared", 1)]),
    ],
    "shared_at": [1.0, 1.5, 1.5],
    "until": None,
    "batch_at": 0.0,
    "batch_hops": 0,
}
#: A parent resumed by run(until=...)'s own event: its child starts only in
#: the next run().
UNTIL = {
    "parents": [
        parent_spec(before=[("shared", 0)], child=[("processed", None)]),
        parent_spec(lane="batch", arrival=1.0, child=[("timeout", 0.0)]),
    ],
    "shared_at": [0.5, 1.0, 1.5],
    "until": 0,
    "batch_at": 0.0,
    "batch_hops": 0,
}
#: A batch parked mid-run holds the only other entry at the time a parent
#: resumes: its arrival runs before the child starts.
BATCH = {
    "parents": [
        parent_spec(before=[("timeout", 1.0)]),
        parent_spec(lane="batch", arrival=0.5),
    ],
    "shared_at": [1.5, 1.5, 1.5],
    "until": None,
    "batch_at": 0.5,
    "batch_hops": 0,
}
#: Children that raise, at a time tie with another parent and from a
#: nested spawn-and-wait.
RAISES = {
    "parents": [
        parent_spec(child=[("timeout", 0.5)], raises=True, after=[("timeout", 0.0)]),
        parent_spec(lane="batch", arrival=0.5, child=[("nested", [0.0])], raises=True),
        parent_spec(arrival=0.5, child=[], raises=True),
    ],
    "shared_at": [0.5, 0.5, 0.5],
    "until": None,
    "batch_at": 0.0,
    "batch_hops": 0,
}


@settings(deadline=None, max_examples=400)
@given(SCENARIO)
@example(FAN_OUT)
@example(UNTIL)
@example(BATCH)
@example(RAISES)
def test_inline_call_matches_spawned_process(scenario):
    assert simulate(scenario, inline=True) == simulate(scenario, inline=False)


def test_until_event_defers_the_child_to_the_next_run():
    trace = simulate(UNTIL, inline=True)
    marker = next(i for i, entry in enumerate(trace) if entry[0] == "until returned")
    assert (0.5, 0, "child") in trace[marker:]


def test_fan_out_siblings_resume_before_the_child_starts():
    trace = simulate(FAN_OUT, inline=True)
    shared_resumes = [i for i, entry in enumerate(trace) if entry[2:3] == ("shared",)]
    first_child = trace.index((1.0, 0, "child"))
    assert len(shared_resumes) >= 2 and shared_resumes[1] < first_child


def test_batch_lane_arrival_runs_before_the_child_starts():
    trace = simulate(BATCH, inline=True)
    assert trace.index((1.0, 1, "arrival")) < trace.index((1.0, 0, "child"))


def test_raising_child_reaches_its_parent():
    trace = simulate(RAISES, inline=True)
    raised = [entry for entry in trace if entry[2:3] == ("raised",)]
    assert sorted(entry[1] for entry in raised) == [0, 1, 2]


def test_call_returns_the_child_value():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "value"

    def parent():
        return (yield from env.call(child()))

    assert env.run(until=env.process(parent())) == "value"
    assert env.now == 1.0


def test_finished_processes_are_freed_without_the_cyclic_gc():
    env = Environment()

    def child(delay):
        yield env.timeout(delay)
        return delay

    def parent():
        total = 0.0
        for index in range(1000):
            total += yield env.process(child(index % 3 * 0.5))
        return total

    gc.collect()
    gc.disable()
    try:
        assert env.run(until=env.process(parent())) == 999.0 / 2
        assert not [obj for obj in gc.get_objects() if isinstance(obj, Process)]
    finally:
        gc.enable()


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_no_spawn_and_wait_under_src():
    """``yield <expr>.process(...)`` spawns a child only to wait on it: the
    inline ``yield from env.call(...)`` keeps the same event order for less."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Yield)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "process"
            ):
                offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not offenders, f"use `yield from env.call(...)`: {offenders}"


def test_closing_a_parent_suspended_in_call_is_clean():
    """GeneratorExit passes straight through: ``call`` must not yield its
    zero-delay timeout while the abandoned parent is being closed."""
    env = Environment()

    def child():
        yield env.event()  # never fires

    def parent():
        yield from env.call(child())

    generator = parent()
    env.process(generator)
    env.step()  # bootstrap: nothing else pending, so the child starts inline
    env.timeout(0)  # now something is pending at `now`
    generator.close()
