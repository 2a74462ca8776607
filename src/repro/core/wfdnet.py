"""Workflow nets with data (WFD-nets) extended for serverless workflows.

The paper (Section 3) models serverless workflows as WFD-nets -- workflow nets
annotated with data elements and read/write/destroy operations -- extended by:

* two kinds of transitions: *serverless functions* and *coordinators* that
  model the orchestration platform awaiting a phase and scheduling the next;
* *resource annotations* describing how each read/written data element is
  passed: object storage, NoSQL, invocation payload, transparently, or by
  reference.

This module implements that extended formalism plus the consistency checks it
enables (e.g. a data element must be written and read through the same
resource channel).  :class:`ResourceAnnotation` is defined next to the data
specification that uses it, in :mod:`repro.core.builder`, and is imported
here so both paths name the same enum.  Nets are built by
:meth:`repro.core.builder.ModelBuilder.build_wfdnet`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .builder import ResourceAnnotation
from .petri import PetriNetError, WorkflowNet


class TransitionKind(enum.Enum):
    """Kind of a WFD-net transition in the serverless extension."""

    FUNCTION = "function"
    COORDINATOR = "coordinator"


@dataclass(frozen=True)
class DataAccess:
    """A single data access of a transition: which element, via which channel."""

    element: str
    annotation: ResourceAnnotation
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("data access size must be non-negative")


@dataclass
class TransitionData:
    """All data behaviour attached to a single transition."""

    kind: TransitionKind = TransitionKind.FUNCTION
    reads: Dict[str, DataAccess] = field(default_factory=dict)
    writes: Dict[str, DataAccess] = field(default_factory=dict)
    destroys: Set[str] = field(default_factory=set)
    guard: Optional[str] = None


@dataclass(frozen=True)
class ConsistencyIssue:
    """A single data-access consistency violation found in a WFD-net."""

    kind: str
    element: str
    transition: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - human readable
        return f"[{self.kind}] {self.transition}/{self.element}: {self.message}"


class WFDNet(WorkflowNet):
    """A workflow net with data elements, guards, and resource annotations.

    Formally the tuple ``(P, T, F, D, r, w, d, grd, A, ra, rw)`` from the
    paper: a workflow net, a set of data elements ``D``, read/write/destroy
    labelling functions, a guard function, and resource-annotation functions
    ``ra`` / ``rw`` mapping each (transition, element) access to a channel.
    """

    def __init__(self, source: str = "start", sink: str = "end") -> None:
        super().__init__(source=source, sink=sink)
        self.data_elements: Set[str] = set()
        #: A map phase's per-replica element -> the array element it slices.
        self.replica_of: Dict[str, str] = {}
        self._transition_data: Dict[str, TransitionData] = {}

    # ------------------------------------------------------------------ build
    def add_function_transition(self, name: str) -> None:
        self.add_transition(name)
        self._transition_data.setdefault(name, TransitionData(kind=TransitionKind.FUNCTION))

    def add_coordinator_transition(self, name: str) -> None:
        self.add_transition(name)
        self._transition_data.setdefault(
            name, TransitionData(kind=TransitionKind.COORDINATOR)
        )

    def _data(self, transition: str) -> TransitionData:
        self._require_transition(transition)
        return self._transition_data.setdefault(transition, TransitionData())

    def add_read(
        self,
        transition: str,
        element: str,
        annotation: ResourceAnnotation,
        size_bytes: int = 0,
    ) -> None:
        """Declare that ``transition`` reads ``element`` through ``annotation``."""
        self.data_elements.add(element)
        self._data(transition).reads[element] = DataAccess(element, annotation, size_bytes)

    def add_write(
        self,
        transition: str,
        element: str,
        annotation: ResourceAnnotation,
        size_bytes: int = 0,
    ) -> None:
        """Declare that ``transition`` writes ``element`` through ``annotation``."""
        self.data_elements.add(element)
        self._data(transition).writes[element] = DataAccess(element, annotation, size_bytes)

    def add_destroy(self, transition: str, element: str) -> None:
        self.data_elements.add(element)
        self._data(transition).destroys.add(element)

    def set_guard(self, transition: str, guard: str) -> None:
        self._data(transition).guard = guard

    # ----------------------------------------------------------------- access
    def transition_kind(self, transition: str) -> TransitionKind:
        return self._data(transition).kind

    def function_transitions(self) -> List[str]:
        return sorted(
            t for t in self.transitions
            if self.transition_kind(t) is TransitionKind.FUNCTION
        )

    def coordinator_transitions(self) -> List[str]:
        return sorted(
            t for t in self.transitions
            if self.transition_kind(t) is TransitionKind.COORDINATOR
        )

    def reads(self, transition: str) -> Mapping[str, DataAccess]:
        return dict(self._data(transition).reads)

    def writes(self, transition: str) -> Mapping[str, DataAccess]:
        return dict(self._data(transition).writes)

    def destroys(self, transition: str) -> FrozenSet[str]:
        return frozenset(self._data(transition).destroys)

    def guard(self, transition: str) -> Optional[str]:
        return self._data(transition).guard

    def readers_of(self, element: str) -> List[str]:
        return sorted(
            t for t, data in self._transition_data.items() if element in data.reads
        )

    def writers_of(self, element: str) -> List[str]:
        return sorted(
            t for t, data in self._transition_data.items() if element in data.writes
        )

    # --------------------------------------------------------- volume metrics
    def total_read_bytes(self, annotation: Optional[ResourceAnnotation] = None) -> int:
        """Total bytes read across all transitions, optionally per channel."""
        total = 0
        for data in self._transition_data.values():
            for access in data.reads.values():
                if annotation is None or access.annotation is annotation:
                    total += access.size_bytes
        return total

    def total_write_bytes(self, annotation: Optional[ResourceAnnotation] = None) -> int:
        total = 0
        for data in self._transition_data.values():
            for access in data.writes.values():
                if annotation is None or access.annotation is annotation:
                    total += access.size_bytes
        return total

    # ------------------------------------------------------------ consistency
    def check_consistency(self) -> List[ConsistencyIssue]:
        """Check that data accesses are consistent across the net.

        Detected issue kinds:

        * ``never-written``    -- an element is read but no transition writes it
          (workflow inputs are exempt: elements read by transitions reachable
          directly from the source without a prior writer are assumed to be
          external inputs if annotated as payload or reference).
        * ``never-read``       -- an element is written but nothing reads it and
          it is not produced by a sink-adjacent transition (workflow outputs
          are exempt).
        * ``channel-mismatch`` -- an element is written via one channel and read
          via a different one (transparent matches anything).
        * ``destroyed-then-read`` -- an element is destroyed by a transition
          that precedes (topologically) a reader.

        A map replica's element counts as its array's (:attr:`replica_of`):
        the phase before a map writes the whole array, each replica reads
        and writes its own slice, and the phase after reads the whole array.
        """
        issues: List[ConsistencyIssue] = []
        writers: Dict[str, List[Tuple[str, DataAccess]]] = {}
        readers: Dict[str, List[Tuple[str, DataAccess]]] = {}
        for transition, data in self._transition_data.items():
            for element, access in data.writes.items():
                writers.setdefault(self._array(element), []).append((transition, access))
            for element, access in data.reads.items():
                readers.setdefault(self._array(element), []).append((transition, access))

        order = self._topological_index()

        for element in sorted(set(map(self._array, self.data_elements))):
            element_writers = writers.get(element, [])
            element_readers = readers.get(element, [])

            if element_readers and not element_writers:
                for transition, access in element_readers:
                    if access.annotation in (
                        ResourceAnnotation.PAYLOAD,
                        ResourceAnnotation.REFERENCE,
                        ResourceAnnotation.OBJECT_STORAGE,
                    ) and self._is_entry_transition(transition):
                        continue  # external workflow input
                    issues.append(
                        ConsistencyIssue(
                            "never-written",
                            element,
                            transition,
                            "element is read but never written inside the workflow",
                        )
                    )

            if element_writers and not element_readers:
                for transition, _ in element_writers:
                    if self._is_exit_transition(transition):
                        continue  # workflow output
                    issues.append(
                        ConsistencyIssue(
                            "never-read",
                            element,
                            transition,
                            "element is written but never read and is not a workflow output",
                        )
                    )

            for write_transition, write_access in element_writers:
                for read_transition, read_access in element_readers:
                    if ResourceAnnotation.TRANSPARENT in (
                        write_access.annotation,
                        read_access.annotation,
                    ):
                        continue
                    if write_access.annotation is not read_access.annotation:
                        issues.append(
                            ConsistencyIssue(
                                "channel-mismatch",
                                element,
                                read_transition,
                                f"written via {write_access.annotation.value} by "
                                f"{write_transition} but read via {read_access.annotation.value}",
                            )
                        )

            for destroyer, data in self._transition_data.items():
                if element not in map(self._array, data.destroys):
                    continue
                for read_transition, _ in element_readers:
                    if order.get(destroyer, 0) < order.get(read_transition, 0):
                        issues.append(
                            ConsistencyIssue(
                                "destroyed-then-read",
                                element,
                                read_transition,
                                f"element destroyed by {destroyer} before being read",
                            )
                        )
        return issues

    def _array(self, element: str) -> str:
        return self.replica_of.get(element, element)

    def _is_entry_transition(self, transition: str) -> bool:
        """True if only coordinators stand between the source and the transition."""
        return self._behind_coordinators(transition, self.source, self.preset, self.place_preset)

    def _is_exit_transition(self, transition: str) -> bool:
        """True if only coordinators stand between the transition and the sink."""
        return self._behind_coordinators(transition, self.sink, self.postset, self.place_postset)

    def _behind_coordinators(self, transition: str, end: str, places_of, transitions_of) -> bool:
        frontier, seen = [transition], {transition}
        while frontier:
            for place in places_of(frontier.pop()):
                if place == end:
                    return True
                for neighbour in transitions_of(place):
                    if neighbour not in seen and \
                            self.transition_kind(neighbour) is TransitionKind.COORDINATOR:
                        seen.add(neighbour)
                        frontier.append(neighbour)
        return False

    def _topological_index(self) -> Dict[str, int]:
        """Approximate topological order of transitions (BFS depth from source)."""
        depth: Dict[str, int] = {}
        frontier: List[str] = [self.source]
        level = 0
        visited: Set[str] = {self.source}
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                if node in self.transitions:
                    depth.setdefault(node, level)
                neighbours: Iterable[str]
                if node in self.places:
                    neighbours = self.place_postset(node)
                else:
                    neighbours = self.postset(node)
                for nxt in neighbours:
                    if nxt not in visited:
                        visited.add(nxt)
                        next_frontier.append(nxt)
            frontier = next_frontier
            level += 1
        return depth
