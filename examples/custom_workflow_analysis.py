#!/usr/bin/env python3
"""Model analysis for a custom workflow: WFD-net construction, resource-annotation
checks, and platform transcription.

This example does not run any experiment -- it shows the *model* side of
SeBS-Flow: how a platform-agnostic definition is checked for data-access
problems (data never written or read, inconsistent resource annotations), how the
WFD-net model of the paper's Section 3 is built, and what the generated AWS
Step Functions / Google Cloud Workflows / Azure Durable Functions artefacts
look like.

Run with:  python examples/custom_workflow_analysis.py
"""

from __future__ import annotations

import json

from repro.core.builder import DataItem, FunctionDataSpec, ModelBuilder, ResourceAnnotation
from repro.core.definition import WorkflowDefinition
from repro.core.transcription import AWSTranscriber, AzureTranscriber, GCPTranscriber

# An ETL-style workflow: extract -> transform (map) -> load, plus a validation
# switch that either archives the batch or routes it to a quarantine function.
DEFINITION = WorkflowDefinition.from_dict(
    {
        "root": "extract",
        "states": {
            "extract": {"type": "task", "func_name": "extract_records", "next": "transform"},
            "transform": {
                "type": "map",
                "array": "batches",
                "root": "clean",
                "next": "validate",
                "states": {"clean": {"type": "task", "func_name": "clean_batch"}},
            },
            "validate": {
                "type": "switch",
                "cases": [
                    {"variable": "error_rate", "operator": ">", "value": 0.05, "next": "quarantine"}
                ],
                "default": "load",
            },
            "quarantine": {"type": "task", "func_name": "quarantine_batch"},
            "load": {"type": "task", "func_name": "load_warehouse"},
        },
    },
    name="etl_pipeline",
)

DATA_SPEC = {
    "extract_records": FunctionDataSpec(
        reads=[DataItem("source_dump", ResourceAnnotation.OBJECT_STORAGE, 50_000_000)],
        writes=[DataItem("batches", ResourceAnnotation.OBJECT_STORAGE, 48_000_000)],
    ),
    "clean_batch": FunctionDataSpec(
        reads=[DataItem("batches", ResourceAnnotation.OBJECT_STORAGE, 48_000_000)],
        writes=[DataItem("clean_batches", ResourceAnnotation.TRANSPARENT, 40_000_000)],
    ),
    "load_warehouse": FunctionDataSpec(
        reads=[DataItem("clean_batches", ResourceAnnotation.TRANSPARENT, 40_000_000)],
        writes=[DataItem("warehouse_rows", ResourceAnnotation.NOSQL, 1_000_000)],
    ),
    "quarantine_batch": FunctionDataSpec(
        reads=[DataItem("clean_batches", ResourceAnnotation.TRANSPARENT, 40_000_000)],
        writes=[DataItem("quarantine_report", ResourceAnnotation.OBJECT_STORAGE, 100_000)],
    ),
}


def main() -> None:
    print("1. Definition validation")
    problems = DEFINITION.validate()
    print(f"   problems: {problems or 'none'}")

    print("\n2. WFD-net model (paper Section 3)")
    builder = ModelBuilder(DEFINITION, DATA_SPEC, array_sizes={"batches": 8})
    net = builder.build_wfdnet()
    print(f"   places: {len(net.places)}, transitions: {len(net.transitions)} "
          f"({len(net.function_transitions())} functions, "
          f"{len(net.coordinator_transitions())} coordinators)")
    print(f"   structurally valid workflow net: {net.is_valid()}")
    stats = builder.statistics()
    print(f"   statistics: {stats.as_row()}")

    print("\n3. Data-access consistency (resource annotations)")
    issues = net.check_consistency()
    print("   " + ("\n   ".join(map(str, issues)) if issues else "no issues detected"))

    print("\n4. Platform transcription")
    aws = AWSTranscriber().transcribe(DEFINITION, {"batches": 8})
    gcp = GCPTranscriber().transcribe(DEFINITION, {"batches": 8})
    azure = AzureTranscriber().transcribe(DEFINITION, {"batches": 8})
    print(f"   AWS Step Functions: {aws.state_count} states, "
          f"~{aws.transition_estimate} billable transitions per execution")
    print(f"   Google Cloud Workflows: {gcp.state_count} steps, "
          f"~{gcp.transition_estimate} billable transitions per execution")
    print(f"   Azure Durable Functions: {len(azure.functions)} activities, "
          f"~{azure.transition_estimate} history events per execution")

    print("\n   Excerpt of the generated Amazon States Language document:")
    excerpt = {"StartAt": aws.document["StartAt"],
               "States": {"extract": aws.document["States"]["extract"]}}
    print("   " + json.dumps(excerpt, indent=2).replace("\n", "\n   "))


if __name__ == "__main__":
    main()
