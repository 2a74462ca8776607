"""Petri nets and workflow nets.

This module implements the structural formalism the SeBS-Flow workflow model is
built on (paper Section 2.2): classical place/transition Petri nets with token
semantics, and *workflow nets* -- Petri nets with a unique source place, a
unique sink place, and every node on a path from source to sink.

The classes here are deliberately independent of serverless concepts; the
serverless extensions (data elements, resource annotations, coordinator
transitions) live in :mod:`repro.core.wfdnet`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


class PetriNetError(Exception):
    """Raised for structurally invalid nets or invalid firing attempts."""


@dataclass(frozen=True)
class Place:
    """A place (circle) in a Petri net.

    Places hold tokens.  In workflow nets, places represent conditions between
    computations, e.g. "phase 1 has finished, phase 2 may begin".
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class Transition:
    """A transition (box) in a Petri net.

    Transitions represent active components -- in SeBS-Flow either serverless
    functions or coordinator steps of the orchestration platform.
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class Marking:
    """A marking assigns a non-negative number of tokens to each place.

    Markings are immutable value objects: firing a transition produces a new
    marking rather than mutating the current one, which keeps reachability
    exploration and property-based testing straightforward.
    """

    __slots__ = ("_tokens",)

    def __init__(self, tokens: Optional[Dict[str, int]] = None) -> None:
        cleaned = {}
        for place, count in (tokens or {}).items():
            if count < 0:
                raise PetriNetError(f"negative token count for place {place!r}")
            if count > 0:
                cleaned[place] = count
        self._tokens: Dict[str, int] = cleaned

    def tokens(self, place: str) -> int:
        """Number of tokens currently in ``place``."""
        return self._tokens.get(place, 0)

    def total(self) -> int:
        """Total number of tokens in the marking."""
        return sum(self._tokens.values())

    def add(self, place: str, count: int = 1) -> "Marking":
        new = dict(self._tokens)
        new[place] = new.get(place, 0) + count
        return Marking(new)

    def remove(self, place: str, count: int = 1) -> "Marking":
        available = self.tokens(place)
        if available < count:
            raise PetriNetError(
                f"cannot remove {count} token(s) from {place!r}: only {available} present"
            )
        new = dict(self._tokens)
        new[place] = available - count
        return Marking(new)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(frozenset(self._tokens.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{p}:{c}" for p, c in sorted(self._tokens.items()))
        return f"Marking({{{inner}}})"


@dataclass
class PetriNet:
    """A place/transition net ``N = (P, T, F)``.

    Arcs connect places to transitions and transitions to places.  The net
    stores arcs as adjacency maps for efficient pre-set / post-set queries.
    """

    places: Dict[str, Place] = field(default_factory=dict)
    transitions: Dict[str, Transition] = field(default_factory=dict)
    _inputs: Dict[str, Set[str]] = field(default_factory=dict)   # transition -> places
    _outputs: Dict[str, Set[str]] = field(default_factory=dict)  # transition -> places

    # ------------------------------------------------------------------ build
    def add_place(self, name: str) -> Place:
        if name in self.transitions:
            raise PetriNetError(f"name {name!r} already used by a transition")
        place = self.places.get(name)
        if place is None:
            place = Place(name)
            self.places[name] = place
        return place

    def add_transition(self, name: str) -> Transition:
        if name in self.places:
            raise PetriNetError(f"name {name!r} already used by a place")
        transition = self.transitions.get(name)
        if transition is None:
            transition = Transition(name)
            self.transitions[name] = transition
            self._inputs.setdefault(name, set())
            self._outputs.setdefault(name, set())
        return transition

    def add_arc(self, source: str, target: str) -> None:
        """Add an arc from ``source`` to ``target``.

        Exactly one endpoint must be a place and the other a transition.
        """
        if source in self.places and target in self.transitions:
            self._inputs.setdefault(target, set()).add(source)
        elif source in self.transitions and target in self.places:
            self._outputs.setdefault(source, set()).add(target)
        else:
            raise PetriNetError(
                f"arc must connect a place and a transition, got {source!r} -> {target!r}"
            )

    # ----------------------------------------------------------------- access
    def preset(self, transition: str) -> FrozenSet[str]:
        """Input places of ``transition`` (the •t set)."""
        self._require_transition(transition)
        return frozenset(self._inputs.get(transition, set()))

    def postset(self, transition: str) -> FrozenSet[str]:
        """Output places of ``transition`` (the t• set)."""
        self._require_transition(transition)
        return frozenset(self._outputs.get(transition, set()))

    def place_preset(self, place: str) -> FrozenSet[str]:
        """Transitions with an arc into ``place``."""
        self._require_place(place)
        return frozenset(t for t, outs in self._outputs.items() if place in outs)

    def place_postset(self, place: str) -> FrozenSet[str]:
        """Transitions with an arc out of ``place``."""
        self._require_place(place)
        return frozenset(t for t, ins in self._inputs.items() if place in ins)

    def arcs(self) -> Iterator[Tuple[str, str]]:
        for transition, ins in self._inputs.items():
            for place in ins:
                yield (place, transition)
        for transition, outs in self._outputs.items():
            for place in outs:
                yield (transition, place)

    def _require_place(self, name: str) -> None:
        if name not in self.places:
            raise PetriNetError(f"unknown place {name!r}")

    def _require_transition(self, name: str) -> None:
        if name not in self.transitions:
            raise PetriNetError(f"unknown transition {name!r}")

    # -------------------------------------------------------------- semantics
    def enabled(self, transition: str, marking: Marking) -> bool:
        """A transition is enabled iff every input place holds a token."""
        return all(marking.tokens(p) >= 1 for p in self.preset(transition))

    def enabled_transitions(self, marking: Marking) -> List[str]:
        return sorted(t for t in self.transitions if self.enabled(t, marking))

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire ``transition``: consume one token per input place, produce one per output place."""
        if not self.enabled(transition, marking):
            raise PetriNetError(f"transition {transition!r} is not enabled")
        result = marking
        for place in self.preset(transition):
            result = result.remove(place)
        for place in self.postset(transition):
            result = result.add(place)
        return result

    def reachable_markings(self, initial: Marking, limit: int = 100_000) -> Set[Marking]:
        """Breadth-first exploration of the reachability graph.

        ``limit`` bounds the number of explored markings to keep exploration of
        unbounded nets from running forever.
        """
        seen: Set[Marking] = {initial}
        queue: deque[Marking] = deque([initial])
        while queue:
            marking = queue.popleft()
            for transition in self.enabled_transitions(marking):
                successor = self.fire(transition, marking)
                if successor not in seen:
                    if len(seen) >= limit:
                        raise PetriNetError(
                            f"reachability exploration exceeded limit of {limit} markings"
                        )
                    seen.add(successor)
                    queue.append(successor)
        return seen


@dataclass
class WorkflowNet(PetriNet):
    """A workflow net: a Petri net with a dedicated start and end place.

    Structural requirements (van der Aalst):

    * exactly one source place (no incoming arcs), called ``start``;
    * exactly one sink place (no outgoing arcs), called ``end``;
    * every node lies on a path from source to sink.
    """

    source: str = "start"
    sink: str = "end"

    def __post_init__(self) -> None:
        self.add_place(self.source)
        self.add_place(self.sink)

    # ------------------------------------------------------------- validation
    def source_places(self) -> List[str]:
        return sorted(
            p for p in self.places
            if not any(p in outs for outs in self._outputs.values())
        )

    def sink_places(self) -> List[str]:
        return sorted(
            p for p in self.places
            if not any(p in ins for ins in self._inputs.values())
        )

    def validate_structure(self) -> List[str]:
        """Return a list of human-readable structural violations (empty if valid)."""
        problems: List[str] = []
        sources = self.source_places()
        sinks = self.sink_places()
        if sources != [self.source]:
            problems.append(
                f"expected single source place {self.source!r}, found {sources}"
            )
        if sinks != [self.sink]:
            problems.append(
                f"expected single sink place {self.sink!r}, found {sinks}"
            )
        on_path = self._nodes_on_source_sink_path()
        all_nodes = set(self.places) | set(self.transitions)
        orphans = sorted(all_nodes - on_path)
        if orphans:
            problems.append(f"nodes not on a path from source to sink: {orphans}")
        return problems

    def is_valid(self) -> bool:
        return not self.validate_structure()

    def _neighbours_forward(self, node: str) -> Iterable[str]:
        if node in self.places:
            return self.place_postset(node)
        return self.postset(node)

    def _neighbours_backward(self, node: str) -> Iterable[str]:
        if node in self.places:
            return self.place_preset(node)
        return self.preset(node)

    def _reach(self, start: str, forward: bool) -> Set[str]:
        seen = {start}
        queue = deque([start])
        step = self._neighbours_forward if forward else self._neighbours_backward
        while queue:
            node = queue.popleft()
            for nxt in step(node):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def _nodes_on_source_sink_path(self) -> Set[str]:
        from_source = self._reach(self.source, forward=True)
        to_sink = self._reach(self.sink, forward=False)
        return from_source & to_sink

    # --------------------------------------------------------------- semantics
    def initial_marking(self) -> Marking:
        return Marking({self.source: 1})

    def final_marking(self) -> Marking:
        return Marking({self.sink: 1})

    def is_final(self, marking: Marking) -> bool:
        """A run completed cleanly iff exactly one token sits in the sink place."""
        return marking == self.final_marking()

    def run_to_completion(self, max_steps: int = 100_000) -> List[str]:
        """Fire enabled transitions until none is enabled; return the firing sequence.

        Deterministic: ties are broken by transition name.  Used by tests to
        check soundness of generated nets; real execution happens on the
        simulated platforms, not here.
        """
        marking = self.initial_marking()
        fired: List[str] = []
        for _ in range(max_steps):
            enabled = self.enabled_transitions(marking)
            if not enabled:
                break
            transition = enabled[0]
            marking = self.fire(transition, marking)
            fired.append(transition)
        else:
            raise PetriNetError("run did not terminate within max_steps")
        if not self.is_final(marking):
            raise PetriNetError(
                f"run terminated in non-final marking {marking!r} after firing {fired}"
            )
        return fired

    def is_sound(self, marking_limit: int = 50_000) -> bool:
        """Classical workflow-net soundness check via reachability analysis.

        A workflow net is sound iff from every reachable marking the final
        marking is reachable, the final marking is the only reachable marking
        with a token in the sink, and every transition can fire in some run.
        """
        initial = self.initial_marking()
        final = self.final_marking()
        reachable = self.reachable_markings(initial, limit=marking_limit)

        # Option to complete + proper completion.
        for marking in reachable:
            if marking.tokens(self.sink) >= 1 and marking != final:
                return False
            reachable_from_here = self.reachable_markings(marking, limit=marking_limit)
            if final not in reachable_from_here:
                return False

        # No dead transitions.
        fired_somewhere: Set[str] = set()
        for marking in reachable:
            for transition in self.transitions:
                if self.enabled(transition, marking):
                    fired_somewhere.add(transition)
        return fired_somewhere == set(self.transitions)


def sequence_net(transition_names: Sequence[str]) -> WorkflowNet:
    """Build a simple sequential workflow net ``start -> t1 -> ... -> tn -> end``.

    Convenience constructor used in tests and documentation examples.
    """
    if not transition_names:
        raise PetriNetError("a workflow net needs at least one transition")
    duplicates = [name for name, count in Counter(transition_names).items() if count > 1]
    if duplicates:
        raise PetriNetError(f"duplicate transition names: {duplicates}")
    net = WorkflowNet()
    previous_place = net.source
    for index, name in enumerate(transition_names):
        net.add_transition(name)
        net.add_arc(previous_place, name)
        if index == len(transition_names) - 1:
            next_place = net.sink
        else:
            next_place = f"p_{index}"
            net.add_place(next_place)
        net.add_arc(name, next_place)
        previous_place = next_place
    return net
