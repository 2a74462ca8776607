"""Core workflow model of the SeBS-Flow reproduction.

This package implements the paper's primary contribution: the platform-agnostic
serverless workflow model (WFD-nets extended with coordinators and resource
annotations), the JSON workflow definition language, and the transcribers to
the proprietary formats of AWS Step Functions, Google Cloud Workflows, and
Azure Durable Functions.
"""

from .builder import DataItem, FunctionDataSpec, ModelBuilder, WorkflowStatistics, build_model
from .critical_path import (
    FunctionMeasurement,
    RuntimeBreakdown,
    WorkflowMeasurement,
    aggregate_breakdowns,
    scaling_profile,
)
from .definition import WorkflowDefinition
from .petri import Marking, PetriNet, PetriNetError, Place, Transition, WorkflowNet, sequence_net
from .phases import (
    DefinitionError,
    LoopPhase,
    MapPhase,
    ParallelBranch,
    ParallelPhase,
    Phase,
    PhaseType,
    RepeatPhase,
    SwitchCase,
    SwitchPhase,
    TaskPhase,
)
from .wfdnet import ConsistencyIssue, DataAccess, ResourceAnnotation, TransitionKind, WFDNet

__all__ = [
    "ConsistencyIssue",
    "DataAccess",
    "DataItem",
    "DefinitionError",
    "FunctionDataSpec",
    "FunctionMeasurement",
    "LoopPhase",
    "MapPhase",
    "Marking",
    "ModelBuilder",
    "ParallelBranch",
    "ParallelPhase",
    "PetriNet",
    "PetriNetError",
    "Phase",
    "PhaseType",
    "Place",
    "RepeatPhase",
    "ResourceAnnotation",
    "RuntimeBreakdown",
    "SwitchCase",
    "SwitchPhase",
    "TaskPhase",
    "Transition",
    "TransitionKind",
    "WFDNet",
    "WorkflowDefinition",
    "WorkflowMeasurement",
    "WorkflowNet",
    "WorkflowStatistics",
    "aggregate_breakdowns",
    "build_model",
    "scaling_profile",
    "sequence_net",
]
