"""Build WFD-net models from workflow definitions and derive workflow statistics.

The model builder turns a platform-agnostic :class:`WorkflowDefinition` into
the WFD-net model of Section 3: each phase contributes function transitions,
coordinator transitions are inserted between phases (and elided before
sequential task phases, as in the paper), and resource annotations from the
benchmark's data specification are attached to the corresponding transitions.

The builder is also where workflow-level statistics come from -- the entries
of the paper's Table 4 (#functions, parallelism, critical-path length,
download/upload volume) are computed here from the definition plus concrete
input parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .definition import WorkflowDefinition
from .phases import (
    DefinitionError,
    LoopPhase,
    MapPhase,
    ParallelPhase,
    Phase,
    PhaseType,
    RepeatPhase,
    SwitchPhase,
    TaskPhase,
)
from .wfdnet import ResourceAnnotation, WFDNet


@dataclass(frozen=True)
class DataItem:
    """One data element accessed by a function: name, channel, and size."""

    element: str
    annotation: ResourceAnnotation
    size_bytes: int = 0


@dataclass(frozen=True)
class FunctionDataSpec:
    """Declared data behaviour of one serverless function."""

    reads: Sequence[DataItem] = ()
    writes: Sequence[DataItem] = ()


@dataclass
class WorkflowStatistics:
    """The per-benchmark characteristics reported in the paper's Table 4."""

    name: str
    num_functions: int
    max_parallelism: int
    critical_path_length: int
    download_mb: float
    upload_mb: float

    def as_row(self) -> Dict[str, object]:
        return {
            "Benchmark": self.name,
            "#functions": self.num_functions,
            "Parallelism": self.max_parallelism,
            "Critical path": self.critical_path_length,
            "Download [MB]": round(self.download_mb, 2),
            "Upload [MB]": round(self.upload_mb, 2),
        }


@dataclass
class PhaseNode:
    """One node of the flattened phase graph used for execution and analysis.

    ``width`` is the number of parallel function invocations the phase issues
    for the given input parameters (1 for task, array length for map, total
    concurrent functions for parallel, 1 for loop/repeat because they
    serialise).  ``chain_length`` is the number of functions executed
    sequentially inside a single branch of the phase (e.g. a loop of length N
    has chain_length N).  ``invocations`` is the total number of function
    executions the phase performs.
    """

    phase: Phase
    functions: List[str]
    width: int
    chain_length: int
    invocations: int = 0

    @property
    def name(self) -> str:
        return self.phase.name

    @property
    def total_invocations(self) -> int:
        if self.invocations:
            return self.invocations
        return self.width * self.chain_length * max(1, len(self.functions))


class ModelBuilder:
    """Builds WFD-nets and statistics for one workflow definition."""

    def __init__(
        self,
        definition: WorkflowDefinition,
        data_spec: Optional[Mapping[str, FunctionDataSpec]] = None,
        array_sizes: Optional[Mapping[str, int]] = None,
    ) -> None:
        """``array_sizes`` maps map/loop input array names to concrete lengths."""
        self._definition = definition
        self._data_spec = dict(data_spec or {})
        self._array_sizes = dict(array_sizes or {})

    # -------------------------------------------------------------- phase graph
    def phase_nodes(self) -> List[PhaseNode]:
        """Flatten the top-level phase order into executable phase nodes."""
        nodes: List[PhaseNode] = []
        for phase in self._definition.top_level_order():
            nodes.append(self._node_for(phase))
        return nodes

    def _array_size(self, array_name: str) -> int:
        return max(1, int(self._array_sizes.get(array_name, 1)))

    def _node_for(self, phase: Phase) -> PhaseNode:
        if isinstance(phase, TaskPhase):
            return PhaseNode(phase, [phase.func_name], width=1, chain_length=1, invocations=1)
        if isinstance(phase, LoopPhase):
            sub = [p for p in phase.sub_workflow_order() if isinstance(p, TaskPhase)]
            length = self._array_size(phase.array) * max(1, len(sub))
            return PhaseNode(
                phase,
                [p.func_name for p in sub],
                width=1,
                chain_length=length,
                invocations=length,
            )
        if isinstance(phase, MapPhase):
            sub = [p for p in phase.sub_workflow_order() if isinstance(p, TaskPhase)]
            width = self._array_size(phase.array)
            return PhaseNode(
                phase,
                [p.func_name for p in sub],
                width=width,
                chain_length=max(1, len(sub)),
                invocations=width * max(1, len(sub)),
            )
        if isinstance(phase, RepeatPhase):
            return PhaseNode(
                phase, [phase.func_name], width=1, chain_length=phase.count,
                invocations=phase.count,
            )
        if isinstance(phase, ParallelPhase):
            # Branches may nest task and map/loop phases; the phase's width is the
            # total number of concurrently running functions across all branches.
            branch_functions: List[str] = []
            total_width = 0
            longest_branch = 1
            total_invocations = 0
            for branch in phase.branches:
                branch_width = 0
                branch_chain = 0
                for sub in branch.sub_workflow_order():
                    sub_node = self._node_for(sub)
                    branch_functions.extend(sub_node.functions)
                    branch_width = max(branch_width, sub_node.width)
                    branch_chain += sub_node.chain_length
                    total_invocations += sub_node.total_invocations
                total_width += max(1, branch_width)
                longest_branch = max(longest_branch, branch_chain)
            return PhaseNode(
                phase,
                branch_functions,
                width=max(1, total_width),
                chain_length=max(1, longest_branch),
                invocations=max(1, total_invocations),
            )
        if isinstance(phase, SwitchPhase):
            return PhaseNode(phase, [], width=1, chain_length=0, invocations=0)
        raise DefinitionError(f"cannot build a phase node for {phase!r}")  # pragma: no cover

    # ------------------------------------------------------------------ wfdnet
    def build_wfdnet(self) -> WFDNet:
        """Construct the WFD-net for the workflow.

        Structure per phase node (cf. Figure 3 of the paper): a coordinator
        transition enters the phase, the phase's function transitions run
        between dedicated places, and a shared join place leads to the next
        coordinator.  As in the paper, the coordinator before a sequential task
        phase is elided: the single function transition already acts as the
        AND-join.
        """
        net = WFDNet()
        nodes = self.phase_nodes()
        previous_place = net.source

        initial = "c0"
        net.add_coordinator_transition(initial)
        net.add_arc(previous_place, initial)
        previous_place = f"{initial}_done"
        net.add_place(previous_place)
        net.add_arc(initial, previous_place)

        for index, node in enumerate(nodes):
            is_parallel = node.width > 1
            entry_place = previous_place
            if is_parallel and index > 0:
                coordinator = f"enter_{node.name}"
                net.add_coordinator_transition(coordinator)
                net.add_arc(previous_place, coordinator)
                entry_place = f"{coordinator}_ready"
                net.add_place(entry_place)
                net.add_arc(coordinator, entry_place)

            join_place = f"{node.name}_done"
            net.add_place(join_place)
            self._add_phase_transitions(net, node, entry_place, join_place)
            previous_place = join_place

        final = "c_end"
        net.add_coordinator_transition(final)
        net.add_arc(previous_place, final)
        net.add_arc(final, net.sink)
        return net

    def _add_phase_transitions(
        self, net: WFDNet, node: PhaseNode, entry_place: str, join_place: str
    ) -> None:
        if not node.functions:
            # Switch phases contribute a coordinator-only decision transition.
            decision = f"{node.name}_decide"
            net.add_coordinator_transition(decision)
            net.add_arc(entry_place, decision)
            net.add_arc(decision, join_place)
            return

        fanout = f"{node.name}_fanout"
        if node.width > 1:
            net.add_coordinator_transition(fanout)
            net.add_arc(entry_place, fanout)

        branch_exit_places = []
        for replica in range(node.width):
            branch_entry = entry_place
            branch_exit = join_place
            if node.width > 1:
                branch_entry = f"{node.name}_slot{replica}"
                net.add_place(branch_entry)
                net.add_arc(fanout, branch_entry)
                branch_exit = f"{node.name}_done{replica}"
                net.add_place(branch_exit)
                branch_exit_places.append(branch_exit)
            previous = branch_entry
            for position, func in enumerate(node.functions):
                suffix = f"_{replica}" if node.width > 1 else ""
                transition = f"{func}{suffix}" if position == 0 else f"{func}{suffix}_{position}"
                net.add_function_transition(transition)
                net.add_arc(previous, transition)
                self._attach_data(net, transition, func, replica, node.width)
                if position == len(node.functions) - 1:
                    net.add_arc(transition, branch_exit)
                else:
                    mid = f"{node.name}_{replica}_{position}"
                    net.add_place(mid)
                    net.add_arc(transition, mid)
                    previous = mid

        if node.width > 1:
            # The coordinator awaiting the phase acts as the AND-join: it
            # consumes one token per parallel branch and emits a single token.
            join = f"join_{node.name}"
            net.add_coordinator_transition(join)
            for place in branch_exit_places:
                net.add_arc(place, join)
            net.add_arc(join, join_place)

    def _attach_data(
        self, net: WFDNet, transition: str, func: str, replica: int, width: int
    ) -> None:
        spec = self._data_spec.get(func)
        if spec is None:
            return
        for items, add in ((spec.reads, net.add_read), (spec.writes, net.add_write)):
            for item in items:
                element = item.element if width == 1 else f"{item.element}_{replica}"
                if width > 1:
                    net.replica_of[element] = item.element
                add(transition, element, item.annotation, item.size_bytes // max(1, width))

    # -------------------------------------------------------------- statistics
    def statistics(self) -> WorkflowStatistics:
        nodes = self.phase_nodes()
        num_functions = sum(node.total_invocations for node in nodes)
        max_parallelism = max((node.width for node in nodes), default=1)
        critical_path = sum(node.chain_length for node in nodes if node.functions)

        # Phases reachable only through switch targets (e.g. the SAGA
        # compensation chain of Trip Booking) are not on the deterministic
        # top-level order but still count towards the function total and the
        # phase's parallelism.
        on_path = {node.name for node in nodes}
        for name, phase in self._definition.states.items():
            if name in on_path:
                continue
            node = self._node_for(phase)
            num_functions += node.total_invocations
            max_parallelism = max(max_parallelism, node.width)

        download_bytes = 0
        upload_bytes = 0
        for node in nodes:
            for func in set(node.functions):
                spec = self._data_spec.get(func)
                if spec is None:
                    continue
                multiplier = node.width * node.chain_length / max(1, len(node.functions))
                per_branch = max(1, int(round(multiplier)))
                for item in spec.reads:
                    if item.annotation is ResourceAnnotation.OBJECT_STORAGE:
                        download_bytes += item.size_bytes
                for item in spec.writes:
                    if item.annotation is ResourceAnnotation.OBJECT_STORAGE:
                        upload_bytes += item.size_bytes
                del per_branch  # volume declared per workflow, not per branch
        return WorkflowStatistics(
            name=self._definition.name,
            num_functions=num_functions,
            max_parallelism=max_parallelism,
            critical_path_length=critical_path,
            download_mb=download_bytes / 1e6,
            upload_mb=upload_bytes / 1e6,
        )


def build_model(
    definition: WorkflowDefinition,
    data_spec: Optional[Mapping[str, FunctionDataSpec]] = None,
    array_sizes: Optional[Mapping[str, int]] = None,
) -> WFDNet:
    """Convenience wrapper returning the WFD-net of a workflow definition."""
    return ModelBuilder(definition, data_spec, array_sizes).build_wfdnet()
