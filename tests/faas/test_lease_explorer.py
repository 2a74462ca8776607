"""Exhaustive interleaving explorer for the grid lease protocol.

Model workers make the calls :func:`~repro.faas.grid.run_grid_worker`
makes, in its order: a scan of the logs, ``claim_many`` over the pending
cells, ``renew`` for each held cell at a heartbeat, then per cell either
``append_records`` and ``mark_done_many`` or, for a failed cell,
``append_records`` and ``release`` -- and another pass until the logs hold
every cell.  A worker that wins nothing waits for the clock.  Around them,
the explorer may crash a worker, fail a cell, or advance the clock past
every deadline (a stall).

One explorer step is one *storage operation* of one worker, so races inside
a call -- a renew's read and its conditional replace, say -- are reached.
Each operation is taken as atomic: what happens between the syscalls of
one file-backend operation is outside this search.
A call suspended between two operations resumes by running it again from
the start: its earlier operations (and clock reads) replay from the call's
log instead of touching the medium, and the next one runs for real.  The
medium itself is snapshotted after every step and restored before the next,
so the search needs no threads and never re-runs a schedule from its root.

The search is depth-first and bounded by budgets of stalls, crashes,
failures and heartbeats.  Visited states -- the lease documents, the logged
records, each worker's phase and call log, with times taken relative to the
clock -- are hashed after reduction by symmetry: worker permutations that
respect shared ids, with cell permutations that respect each worker's claim
order.  It checks, in every state, that no two worker ids believe they hold
a live lease on one cell, and that a done marker is never removed, revived
or re-claimed; in every terminal state, that the logs hold every cell and
``merge_run`` equals a clean run's merge.  A state where every live worker
waits, after the clock already passed every deadline with no claim won
since, is a hang.  Any violation fails with the schedule that reached it.
"""

import contextlib
import functools
import itertools
import json
import re
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import pytest

from repro.faas import campaign
from repro.faas.backends import FileBackend, MemoryBackend
from repro.faas.campaign import CampaignSpec, CellFailure
from repro.faas.grid import GridRun, merge_run, run_grid_worker
from repro.faas.results import encode_document

TTL = 10.0
START = 1_000_000.0

#: Every cell's calls, in run_grid_worker's order; the model and the real
#: worker are both checked against it.
CALL_ORDER = re.compile(r"claim_many( renew)* append_records (mark_done_many|release)")

#: The backend calls a step may make one of; each is one interleaving point.
STORAGE_OPS = (
    "read_lease", "create_lease", "replace_lease", "delete_lease",
    "append_records", "iter_records",
)


class FakeClock:
    def __init__(self, now: float = START) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# ------------------------------------------------------------------- world
class World(NamedTuple):
    """A tiny campaign and its clean run: what the model workers log."""

    spec: CampaignSpec
    fingerprints: Tuple[str, ...]
    lines: Dict[Tuple[int, bool], str]  # (cell, succeeded) -> record line
    kinds: Dict[str, Tuple[int, bool]]  # record line -> (cell, succeeded)
    merged: str


@functools.lru_cache(maxsize=None)
def world(cells: int) -> World:
    spec = CampaignSpec(benchmarks=("function_chain",), platforms=("aws",),
                        seeds=tuple(range(cells)), burst_size=2)
    clean = GridRun.create(spec, backend=MemoryBackend(name="clean"), shard_count=1)
    run_grid_worker(clean, workers=1, worker_id="clean")
    logged = {record["fingerprint"]: record for record in clean.backend.iter_records(0)}
    fingerprints = tuple(job.fingerprint() for job in spec.expand())
    lines = {}
    for cell, fingerprint in enumerate(fingerprints):
        lines[cell, True] = encode_document(logged[fingerprint])
        lines[cell, False] = encode_document({
            "fingerprint": fingerprint, "shard": 0, "worker": "model",
            "error": "boom", "attempts": 1,
        })
    kinds = {line: kind for kind, line in lines.items()}
    return World(spec, fingerprints, lines, kinds, canonical(merge_run(clean)))


# ------------------------------------------------------------------ medium
class MemoryMedium:
    """Snapshots of a :class:`MemoryBackend`'s lease and record dicts."""

    def __init__(self, tmp_path) -> None:
        self.backend = MemoryBackend(name="explorer")

    def snapshot(self):
        return (tuple(sorted(self.backend._leases.items())),
                tuple(self.backend._records.get(0, ())))

    def restore(self, snapshot) -> None:
        leases, lines = snapshot
        self.backend._leases = dict(leases)
        self.backend._records = {0: list(lines)} if lines else {}

    @staticmethod
    def documents(snapshot) -> Dict[str, str]:
        return dict(snapshot[0])

    @staticmethod
    def lines(snapshot) -> List[str]:
        return list(snapshot[1])


class FileMedium:
    """Snapshots of a :class:`FileBackend`'s ``leases/`` and ``results/``."""

    def __init__(self, tmp_path) -> None:
        self.backend = FileBackend(tmp_path / "run")
        self.current = ((), ())

    def _directories(self):
        return self.backend.leases_dir, self.backend.results_dir

    def snapshot(self):
        self.current = tuple(
            tuple(sorted((path.name, path.read_bytes()) for path in directory.iterdir()))
            if directory.is_dir() else ()
            for directory in self._directories()
        )
        return self.current

    def restore(self, snapshot) -> None:
        for directory, files, current in zip(self._directories(), snapshot, self.current):
            if files == current:
                continue
            wanted = dict(files)
            for name, data in current:
                if name not in wanted:
                    (directory / name).unlink()
            for name, data in files:
                if (name, data) not in current:
                    directory.mkdir(exist_ok=True)
                    (directory / name).write_bytes(data)
        self.current = snapshot

    @staticmethod
    def documents(snapshot) -> Dict[str, str]:
        documents = {}
        for name, data in snapshot[0]:
            assert name.endswith(".lease"), f"a call left {name!r} behind"
            documents[name[:-len(".lease")]] = data.decode()
        return documents

    @staticmethod
    def lines(snapshot) -> List[str]:
        return [line for _, data in snapshot[1]
                for line in data.decode().splitlines() if line]


MEDIA = {"memory": MemoryMedium, "file": FileMedium}


# ----------------------------------------------------------------- stepper
class Suspend(BaseException):
    """The stepping call reached its next storage operation."""


class Stepper:
    """Runs a call up to and including one new storage operation.

    Installed over a backend's storage operations and clock: the operations
    and reads a call already made replay from its log, the next one runs
    for real, and the one after raises :class:`Suspend` before it starts.
    """

    def __init__(self, backend, names: Dict[str, str]) -> None:
        self.backend = backend
        self.names = names  # fingerprint -> cell name, for schedules
        self.depth = 0
        self.log: list = []
        self.position = 0
        self.executed: Optional[tuple] = None  # (operation, key, result)
        self.now = START
        for name in STORAGE_OPS:
            setattr(backend, name, self._intercept(name, getattr(backend, name)))
        backend.clock = self._clock

    def _replay(self, kind: str):
        if self.position < len(self.log):
            logged, value = self.log[self.position]
            assert logged == kind, f"replay diverged: {kind} where the log has {logged}"
            self.position += 1
            return True, value
        return False, None

    def _record(self, kind: str, value) -> None:
        self.log.append((kind, value))
        self.position += 1

    def _clock(self) -> float:
        replayed, value = self._replay("clock")
        if not replayed:
            value = self.now
            self._record("clock", value)
        return value

    def _intercept(self, name, real):
        def operation(*args):
            if self.depth:  # inside a real operation, or outside any step
                return real(*args)
            replayed, value = self._replay(name)
            if replayed:
                return value
            if self.executed is not None:
                raise Suspend
            self.depth += 1
            try:
                value = real(*args)
                if name == "iter_records":
                    value = list(value)
            finally:
                self.depth -= 1
            self._record(name, value)
            self.executed = (name, args[0], value)
            return value
        return operation

    def step(self, call, log: tuple, now: float):
        """``(finished, result, log, executed op)`` of one step of ``call``;
        the log holds what the call did so far while it is unfinished."""
        self.log, self.position, self.executed, self.now = list(log), 0, None, now
        try:
            result = call(self.backend)
        except Suspend:
            return False, None, tuple(self.log), self.executed
        return True, result, (), self.executed

    @contextlib.contextmanager
    def direct(self):
        """Let calls outside any step through to the backend unchanged."""
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1


# ------------------------------------------------------------------- model
Call = Tuple[str, object]


class Worker(NamedTuple):
    """One model worker: its identity, claim order and phase."""

    wid: str
    order: Tuple[int, ...]
    status: str = "idle"  # idle, busy, hold, waiting, finished, crashed
    agenda: Tuple[Call, ...] = ()
    log: tuple = ()  # the agenda head's storage results so far
    held: Tuple[Tuple[int, float], ...] = ()  # (cell, deadline) it believes live
    won: Tuple[int, ...] = ()  # cells claimed this pass, not yet settled


class Budgets(NamedTuple):
    stalls: int
    crashes: int
    failures: int
    heartbeats: int


class State(NamedTuple):
    now: float
    medium: object
    workers: Tuple[Worker, ...]
    budgets: Budgets
    stuck: bool = False  # every deadline passed while all waited; no claim won since
    done: FrozenSet[int] = frozenset()  # cells that ever had a done marker


class Scenario(NamedTuple):
    ids: Tuple[str, ...]
    orders: Tuple[Tuple[int, ...], ...]
    budgets: Budgets = Budgets(stalls=1, crashes=1, failures=1, heartbeats=1)
    depth: int = 120


class Violation(AssertionError):
    pass


@functools.lru_cache(maxsize=None)
def stored(raw: str) -> tuple:
    """A stored lease document as sorted ``(key, value)`` pairs."""
    return tuple(sorted(json.loads(raw).items()))


def relative(document: tuple, now: float) -> tuple:
    return tuple((key, round(value - now, 9) if key == "deadline" else value)
                 for key, value in document)


def freeze(value, now: float):
    """A hashable copy of ``value``, times taken relative to ``now``."""
    if isinstance(value, dict):
        return tuple(sorted((key, freeze(item, now)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item, now) for item in value)
    if isinstance(value, float):
        return round(value - now, 9)
    return value


class Explorer:
    """Depth-first search over every interleaving of a :class:`Scenario`."""

    def __init__(self, scenario: Scenario, medium) -> None:
        self.scenario = scenario
        self.cells = len(scenario.orders[0])
        self.world = world(self.cells)
        self.medium = medium
        self.backend = medium.backend
        self.run = GridRun.create(self.world.spec, backend=self.backend, shard_count=1)
        self.stepper = Stepper(self.backend, {
            fp: f"c{cell}" for cell, fp in enumerate(self.world.fingerprints)})
        self.symmetries = self._symmetries()
        self.merges: Dict[tuple, bool] = {}
        self.views: Dict[object, Tuple[tuple, tuple]] = {}
        self.stats = dict(states=0, transitions=0, pruned=0, symmetric=0,
                          terminal=0, bounded=0)

    # -- symmetry ------------------------------------------------------------
    def _symmetries(self):
        """(worker map, cell map, id map) triples that fix the initial state."""
        ids, orders = self.scenario.ids, self.scenario.orders
        found = []
        for sigma in itertools.permutations(range(len(ids))):
            rho = {}
            if any(rho.setdefault(ids[i], ids[sigma[i]]) != ids[sigma[i]]
                   for i in range(len(ids))):
                continue
            if len(set(rho.values())) != len(rho):
                continue
            for pi in itertools.permutations(range(self.cells)):
                if all(tuple(pi[c] for c in orders[i]) == orders[sigma[i]]
                       for i in range(len(ids))):
                    found.append((sigma, pi, rho))
        return found

    def view(self, snapshot) -> Tuple[tuple, tuple]:
        """Each cell's stored lease (or None), and the logged ``(cell, ok)`` records."""
        view = self.views.get(snapshot)
        if view is None:
            documents = self.medium.documents(snapshot)
            view = self.views[snapshot] = (
                tuple(stored(documents[fp]) if fp in documents else None
                      for fp in self.world.fingerprints),
                tuple(sorted(self.world.kinds[line] for line in self.medium.lines(snapshot))),
            )
        return view

    def abstract(self, state: State) -> tuple:
        now = state.now
        leases, records = self.view(state.medium)
        leases = tuple(None if document is None else relative(document, now)
                       for document in leases)
        workers = tuple(
            (w.wid, w.order, w.status, w.agenda, freeze(w.log, now),
             tuple((cell, round(deadline - now, 9)) for cell, deadline in w.held), w.won)
            for w in state.workers
        )
        return (leases, records, workers, tuple(state.budgets), state.stuck,
                tuple(sorted(state.done)))

    @staticmethod
    def _rename(document, rho):
        if not isinstance(document, tuple):
            return document
        return tuple((key, rho.get(value, value) if key == "worker" else value)
                     for key, value in document)

    def _map_call(self, call: Call, pi) -> Call:
        kind, arg = call
        if kind in ("renew", "release"):
            return kind, pi[arg]
        if kind == "append":
            return kind, tuple((pi[cell], ok) for cell, ok in arg)
        if kind in ("claim", "done"):
            return kind, tuple(pi[cell] for cell in arg)
        return call

    def transform(self, key, sigma, pi, rho) -> tuple:
        leases, records, workers, budgets, stuck, done = key
        mapped_leases = [None] * len(leases)
        for cell, document in enumerate(leases):
            mapped_leases[pi[cell]] = self._rename(document, rho)
        mapped_workers = [None] * len(workers)
        for index, (wid, order, status, agenda, log, held, won) in enumerate(workers):
            mapped_workers[sigma[index]] = (
                rho[wid], tuple(pi[cell] for cell in order), status,
                tuple(self._map_call(call, pi) for call in agenda),
                tuple((kind, self._rename(value, rho)) for kind, value in log),
                tuple(sorted((pi[cell], deadline) for cell, deadline in held)),
                tuple(pi[cell] for cell in won),
            )
        return (tuple(mapped_leases),
                tuple(sorted((pi[cell], ok) for cell, ok in records)),
                tuple(mapped_workers), budgets, stuck,
                tuple(sorted(pi[cell] for cell in done)))

    def canonical(self, key: tuple) -> str:
        """The least form of ``key`` under the scenario's symmetries."""
        return min(repr(self.transform(key, *g)) for g in self.symmetries)

    # -- transitions ---------------------------------------------------------
    def call(self, worker: Worker, call: Call):
        kind, arg = call
        fps, wid = self.world.fingerprints, worker.wid
        if kind == "scan":
            return lambda backend: frozenset(self.run.scan(0).completed)
        if kind == "claim":
            return lambda backend: backend.claim_many([fps[cell] for cell in arg], wid, TTL)
        if kind == "renew":
            return lambda backend: backend.renew(fps[arg], wid, TTL)
        if kind == "append":
            return lambda backend: backend.append_records(
                0, wid, [self.world.lines[entry] for entry in arg])
        if kind == "release":
            return lambda backend: backend.release(fps[arg], wid)
        assert kind == "done"
        return lambda backend: backend.mark_done_many([fps[cell] for cell in arg], wid)

    def finish(self, state: State, worker: Worker, call: Call, result):
        """The worker after ``call`` returned ``result``, and the new stuck flag."""
        kind, arg = call
        agenda, stuck = worker.agenda[1:], state.stuck
        held, won = dict(worker.held), worker.won
        status = "busy"
        if kind == "scan":
            pending = tuple(cell for cell in worker.order
                            if self.world.fingerprints[cell] not in result)
            agenda = (("claim", pending),) if pending else ()
            status = "busy" if pending else "finished"
        elif kind == "claim":
            won = tuple(cell for cell, claimed in zip(arg, result) if claimed)
            status = "hold" if won else "waiting"
            stuck = stuck and not won
        elif kind == "renew" and not result:
            held.pop(arg, None)
        elif kind in ("done", "release"):
            settled = set(arg) if kind == "done" else {arg}
            won = tuple(cell for cell in won if cell not in settled)
            for cell in settled:
                held.pop(cell, None)
        if status == "busy" and not agenda:
            status = "hold" if won else "idle"
        return worker._replace(status=status, agenda=agenda, log=(),
                               held=tuple(sorted(held.items())), won=won), stuck

    def step(self, state: State, index: int, agenda: Tuple[Call, ...], budgets: Budgets):
        """Run one storage operation of worker ``index`` on ``agenda``."""
        worker = state.workers[index]._replace(agenda=agenda)
        self.medium.restore(state.medium)
        finished, result, log, executed = self.stepper.step(
            self.call(worker, agenda[0]), worker.log, state.now)
        stuck = state.stuck
        if finished:
            worker, stuck = self.finish(state, worker, agenda[0], result)
        else:
            worker = worker._replace(status="busy", log=log)
        name, key, value = executed
        if name in ("create_lease", "replace_lease") and value and agenda[0][0] != "done":
            # A claim or renew holds the lease from the write on, until the
            # deadline its first clock read set.
            cell = self.world.fingerprints.index(key)
            held = dict(worker.held)
            kind, written_at = self.stepper.log[0]
            assert kind == "clock"
            held[cell] = written_at + TTL
            worker = worker._replace(held=tuple(sorted(held.items())))
        workers = state.workers[:index] + (worker,) + state.workers[index + 1:]
        if name == "delete_lease" and value:
            # Workers sharing an id are one holder to the protocol: a
            # release by either drops the lease for both.
            cell = self.world.fingerprints.index(key)
            workers = tuple(
                w._replace(held=tuple(entry for entry in w.held if entry[0] != cell))
                if w.wid == worker.wid else w for w in workers)
        target = f"({self.stepper.names[key]})" if isinstance(key, str) else ""
        label = f"w{index}({worker.wid}) {agenda[0][0]} {agenda[0][1]}: {name}{target}"
        medium = state.medium if name in ("read_lease", "iter_records") else self.medium.snapshot()
        leases, _ = self.view(medium)
        done = state.done | {cell for cell, document in enumerate(leases)
                             if document is not None and ("done", True) in document}
        return label, State(state.now, medium, workers, budgets, stuck, done)

    def successors(self, state: State):
        budgets = state.budgets
        runnable = [i for i, w in enumerate(state.workers)
                    if w.status in ("idle", "busy", "hold")]
        for index in runnable:
            worker = state.workers[index]
            if worker.status == "busy":
                yield lambda index=index, worker=worker: self.step(
                    state, index, worker.agenda, budgets)
            elif worker.status == "idle":
                yield lambda index=index: self.step(
                    state, index, (("scan", None),), budgets)
            else:
                yield from self._settlements(state, index, worker, budgets)
        for index in runnable:
            if budgets.crashes:
                yield lambda index=index: self.crash(state, index)
        if runnable and budgets.stalls:
            yield lambda: self.advance(state, budgets._replace(stalls=budgets.stalls - 1),
                                       "stall: the clock passes every deadline", state.stuck)
        waiting = any(w.status == "waiting" for w in state.workers)
        if not runnable and waiting:
            if state.stuck:
                raise Violation("hang: every live worker waits although the clock "
                                "already passed every deadline with no claim won since")
            yield lambda: self.advance(state, budgets, "wait: the clock passes every "
                                       "deadline", True)

    def _settlements(self, state, index, worker, budgets):
        won = worker.won
        held = {cell for cell, _ in worker.held}
        if held and budgets.heartbeats:
            # In claim order, not cell order: symmetric states renew alike.
            tick = tuple(("renew", cell) for cell in won if cell in held)
            yield lambda: self.step(state, index, tick,
                                    budgets._replace(heartbeats=budgets.heartbeats - 1))
        commit = (("append", tuple((cell, True) for cell in won)), ("done", won))
        yield lambda: self.step(state, index, commit, budgets)
        if budgets.failures:
            for failed in won:
                rest = tuple(cell for cell in won if cell != failed)
                agenda = (("append", ((failed, False),)), ("release", failed))
                if rest:
                    agenda += (("append", tuple((cell, True) for cell in rest)), ("done", rest))
                yield lambda agenda=agenda: self.step(
                    state, index, agenda, budgets._replace(failures=budgets.failures - 1))

    def crash(self, state: State, index: int):
        worker = state.workers[index]._replace(
            status="crashed", agenda=(), log=(), held=(), won=())
        workers = state.workers[:index] + (worker,) + state.workers[index + 1:]
        budgets = state.budgets._replace(crashes=state.budgets.crashes - 1)
        return f"w{index}({worker.wid}) crashes", state._replace(workers=workers, budgets=budgets)

    def advance(self, state: State, budgets: Budgets, label: str, stuck: bool):
        workers = tuple(w._replace(status="idle") if w.status == "waiting" else w
                        for w in state.workers)
        return label, state._replace(now=state.now + TTL + 1.0, workers=workers,
                                     budgets=budgets, stuck=stuck)

    # -- checks --------------------------------------------------------------
    def check(self, state: State) -> None:
        now = state.now
        for cell in range(self.cells):
            holders = {w.wid for w in state.workers if w.status != "crashed"
                       and any(c == cell and deadline >= now for c, deadline in w.held)}
            if len(holders) > 1:
                raise Violation(f"cell {cell}: live leases held by {sorted(holders)}")
        leases, _ = self.view(state.medium)
        for cell in state.done:
            if ("done", True) not in (leases[cell] or ()):
                raise Violation(f"cell {cell}: done marker became {leases[cell]}")

    def check_terminal(self, state: State) -> None:
        records = tuple(sorted(set(self.world.kinds[line]
                                   for line in self.medium.lines(state.medium))))
        missing = [cell for cell in range(self.cells) if (cell, True) not in records]
        if missing:
            raise Violation(f"terminal state with cells {missing} never logged")
        if records not in self.merges:
            self.medium.restore(state.medium)
            with self.stepper.direct():
                self.merges[records] = canonical(merge_run(self.run)) == self.world.merged
        if not self.merges[records]:
            raise Violation("terminal merge differs from the clean run's")

    # -- search --------------------------------------------------------------
    def initial(self) -> State:
        workers = tuple(Worker(wid, order)
                        for wid, order in zip(self.scenario.ids, self.scenario.orders))
        return State(START, self.medium.snapshot(), workers, self.scenario.budgets)

    def explore(self) -> Dict[str, int]:
        seen, seen_raw = set(), set()
        stack = [(self.initial(), None)]  # (state, schedule node)
        while stack:
            state, node = stack.pop()
            key = self.abstract(state)
            raw = repr(key)
            if raw in seen_raw:
                self.stats["pruned"] += 1
                continue
            seen_raw.add(raw)
            least = self.canonical(key)
            if least in seen:
                self.stats["pruned"] += 1
                self.stats["symmetric"] += 1
                continue
            seen.add(least)
            self.stats["states"] += 1
            depth = 0 if node is None else node[2]
            if depth >= self.scenario.depth:
                self.stats["bounded"] += 1
                continue
            try:
                successors = list(self.successors(state))
                if not successors:
                    self.stats["terminal"] += 1
                    self.check_terminal(state)
            except Violation as violation:
                raise Violation(f"{violation}\n{self.schedule(node)}") from None
            for successor in reversed(successors):
                label, child = successor()
                self.stats["transitions"] += 1
                child_node = (label, node, depth + 1)
                try:
                    self.check(child)
                except Violation as violation:
                    raise Violation(f"{violation}\n{self.schedule(child_node)}") from None
                stack.append((child, child_node))
        return self.stats

    @staticmethod
    def schedule(node) -> str:
        steps = []
        while node is not None:
            label, node, _ = node
            steps.append(label)
        return "counterexample schedule:\n" + "\n".join(
            f"  {number:3d}. {label}" for number, label in enumerate(reversed(steps), 1))


def scenario(ids, orders, stalls=1, crashes=1, failures=1, heartbeats=1) -> Scenario:
    return Scenario(tuple(ids), tuple(orders),
                    Budgets(stalls, crashes, failures, heartbeats))


#: (medium, scenario): two workers race with every fault once, and two
#: sharing an id with every fault but a crash; three cells or three workers
#: with fewer faults; the file backend with the faults each of its
#: conditional operations guards against.  The budgets keep each case
#: under 5 s.
CASES = {
    "memory-two-workers": ("memory", scenario("ab", [(0, 1), (1, 0)])),
    "memory-twin-ids": ("memory", scenario("tt", [(0, 1), (0, 1)], crashes=0)),
    "memory-three-cells": ("memory", scenario("ab", [(0, 1, 2), (2, 1, 0)], failures=0)),
    "memory-three-workers": ("memory", scenario(
        "att", [(0, 1), (1, 0), (1, 0)], stalls=0, failures=0, heartbeats=0)),
    "file-two-workers": ("file", scenario("ab", [(0, 1), (1, 0)], crashes=0, heartbeats=0)),
    "file-twin-ids": ("file", scenario("tt", [(0, 1), (0, 1)], crashes=0, failures=0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_interleaving_keeps_the_lease_invariants(case, tmp_path):
    medium, scenario = CASES[case]
    stats = Explorer(scenario, MEDIA[medium](tmp_path)).explore()
    print(f"{case}: {stats}")
    assert stats["terminal"] > 0 and stats["bounded"] == 0


def test_a_planted_fault_fails_with_its_schedule(tmp_path, monkeypatch):
    """The explorer is only as good as its checks: a release that deletes
    whatever is stored must be caught, with the schedule that shows it."""
    monkeypatch.setattr(MemoryBackend, "delete_lease",
                        lambda self, fingerprint, expected: bool(
                            self._leases.pop(fingerprint, None)))
    _, case = CASES["memory-two-workers"]
    with pytest.raises(Violation, match=r"(?s)counterexample schedule:.*delete_lease"):
        Explorer(case, MemoryMedium(tmp_path)).explore()


def attempts(calls) -> List[str]:
    """One cell's calls, split into attempts: each starts at a claim."""
    return [f"claim_many{attempt}".rstrip()
            for attempt in " ".join(calls).split("claim_many")[1:]]


def test_the_model_makes_each_cells_calls_in_the_workers_order(tmp_path):
    """Along every schedule of one model worker, each attempt at a cell
    reads as :data:`CALL_ORDER`, the order the real worker is held to."""
    names = {"claim": "claim_many", "renew": "renew", "append": "append_records",
             "done": "mark_done_many", "release": "release"}

    class Recorder(Explorer):
        def finish(self, state, worker, call, result):
            self.finished.append(call)
            return super().finish(state, worker, call, result)

    recorder = Recorder(scenario("a", [(0, 1)], stalls=0, crashes=0), MemoryMedium(tmp_path))
    traces = []

    def walk(state, calls):
        successors = list(recorder.successors(state))
        if not successors:
            traces.append(calls)
        for successor in successors:
            recorder.finished = []
            _, child = successor()
            walk(child, calls + tuple(recorder.finished))

    walk(recorder.initial(), ())
    assert len(traces) > 4
    for calls in traces:
        for cell in range(2):
            touched = [names[kind] for kind, arg in calls if kind != "scan" and cell in (
                [entry[0] for entry in arg] if kind == "append"
                else arg if isinstance(arg, tuple) else [arg])]
            assert touched and all(CALL_ORDER.fullmatch(attempt)
                                   for attempt in attempts(touched)), (cell, calls)


def test_the_real_worker_makes_each_cells_calls_in_that_order():
    """run_grid_worker's own backend calls, through the ``run_cells`` seam:
    claims, heartbeats that come due, commits and a failure."""
    clock = FakeClock()
    backend = MemoryBackend(name="recorded", clock=clock)
    spec = CampaignSpec(benchmarks=("function_chain",), platforms=("aws", "azure"),
                        seeds=(0, 1), burst_size=2)
    run = GridRun.create(spec, backend=backend, shard_count=1)
    calls: Dict[str, List[str]] = {}

    def recorded(name):
        real = getattr(backend, name)

        def call(*args):
            if name == "append_records":
                cells = [json.loads(line)["fingerprint"] for line in args[2]]
            else:
                cells = [args[0]] if isinstance(args[0], str) else list(args[0])
            for fingerprint in cells:
                calls.setdefault(fingerprint, []).append(name)
            return real(*args)
        return call

    for name in ("claim_many", "renew", "append_records", "mark_done_many", "release"):
        setattr(backend, name, recorded(name))

    def run_cells(pending, workers, finish, fail, *, admit, tick, tick_interval_s, **hooks):
        jobs = list(pending)
        assert admit(jobs[:2]) == [True, True]
        clock.advance(tick_interval_s)
        tick()  # both leases due: renewed
        finish([(jobs[0], "{}", 0.1)])
        assert admit(jobs[2:]) == [True, True]
        clock.advance(tick_interval_s)
        tick()
        fail(CellFailure(jobs[1], "boom", 1))
        finish([(jobs[2], "{}", 0.1), (jobs[3], "{}", 0.1)])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "run_cells", run_cells)
        run_grid_worker(run, workers=2, worker_id="w", lease_ttl_s=60.0, clock=clock)
    assert sorted(" ".join(names) for names in calls.values()) == [
        "claim_many renew append_records mark_done_many",
        "claim_many renew append_records mark_done_many",
        "claim_many renew append_records mark_done_many",
        "claim_many renew renew append_records release",
    ]
    for names in calls.values():
        assert all(CALL_ORDER.fullmatch(attempt) for attempt in attempts(names))
