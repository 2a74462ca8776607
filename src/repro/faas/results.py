"""Serialisation of experiment results.

Experiments can take a while for the large benchmarks, so the harness supports
persisting results as JSON documents and loading them back for analysis --
mirroring the paper artifact's separation between measurement collection and
plotting scripts.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

from ..core.critical_path import FunctionMeasurement, WorkflowMeasurement
from ..sim.billing import CostBreakdown
from ..sim.orchestration.events import OrchestrationStats
from ..sim.platforms.spec import PlatformSpec
from .cost import CostReport
from .experiment import ExperimentConfig, ExperimentResult
from .metrics import open_loop_summary_over_repetitions, summarize
from .trigger import repetition_of_invocation
from .workload import WorkloadSpec


def measurement_to_dict(measurement: WorkflowMeasurement) -> Dict[str, object]:
    document: Dict[str, object] = {
        "workflow": measurement.workflow,
        "platform": measurement.platform,
        "invocation_id": measurement.invocation_id,
        "memory_mb": measurement.memory_mb,
    }
    if measurement.metadata:
        document["metadata"] = dict(measurement.metadata)
    document["functions"] = [
        {
            "function": f.function,
            "phase": f.phase,
            "start": f.start,
            "end": f.end,
            "request_id": f.request_id,
            "container_id": f.container_id,
            "cold_start": f.cold_start,
        }
        for f in measurement.functions
    ]
    return document


def measurement_from_dict(document: Dict[str, object]) -> WorkflowMeasurement:
    # Records are built positionally, cheaper than keywords over the ~23k
    # records of a cache-served figure run: the arguments must follow
    # FunctionMeasurement's field order.
    return WorkflowMeasurement(
        workflow=str(document["workflow"]),
        platform=str(document["platform"]),
        invocation_id=str(document["invocation_id"]),
        memory_mb=int(document.get("memory_mb", 0)),
        metadata=dict(document.get("metadata", {})),  # type: ignore[arg-type]
        functions=[
            FunctionMeasurement(
                str(entry["function"]),
                str(entry["phase"]),
                float(entry["start"]),
                float(entry["end"]),
                str(entry.get("request_id", "")),
                str(entry.get("container_id", "")),
                bool(entry.get("cold_start", False)),
            )
            for entry in document.get("functions", [])
        ],
    )


def result_to_dict(result: ExperimentResult) -> Dict[str, object]:
    platform_spec = result.config.platform_spec
    workload = result.config.workload_spec
    document: Dict[str, object] = {
        "benchmark": result.benchmark,
        "platform": result.platform,
        "config": {
            # "platform"/"era"/"burst_size"/"mode" are flat copies kept in the
            # document format; the decoder reads "platform_spec" and "workload".
            "platform": result.config.platform_name,
            "era": platform_spec.era,
            "platform_spec": platform_spec.to_dict(),
            "seed": result.config.seed,
            "burst_size": workload.burst_size,
            "repetitions": result.config.repetitions,
            "mode": workload.kind,
            "memory_mb": result.config.memory_mb,
            "workload": workload.to_dict(),
        },
        "measurements": [measurement_to_dict(m) for m in result.measurements],
        "containers_created": result.containers_created,
        "scaling_profile": result.scaling_profile,
    }
    if result.summary is not None:
        document["summary"] = result.summary.as_row()
    if result.open_loop is not None:
        document["open_loop"] = result.open_loop.as_row()
    if result.cost is not None:
        document["cost_per_1000"] = result.cost.per_1000_executions.as_row()
        document["cost"] = _cost_to_dict(result.cost)
    document["orchestration"] = [
        {
            "platform": s.platform,
            "workflow": s.workflow,
            "invocation_id": s.invocation_id,
            "state_transitions": s.state_transitions,
            "orchestrator_time_s": s.orchestrator_time_s,
            "activity_count": s.activity_count,
            "started_at": s.started_at,
            "finished_at": s.finished_at,
            "wall_clock_s": s.wall_clock_s,
        }
        for s in result.orchestration_stats
    ]
    return document


def _cost_to_dict(cost: CostReport) -> Dict[str, object]:
    """Unrounded per-execution cost components (exact round-trip, unlike as_row)."""
    per = cost.per_execution
    return {
        "benchmark": cost.benchmark,
        "platform": cost.platform,
        "executions": cost.executions,
        "per_execution": {
            "platform": per.platform,
            "compute_usd": per.compute_usd,
            "invocations_usd": per.invocations_usd,
            "orchestration_usd": per.orchestration_usd,
            "storage_usd": per.storage_usd,
            "nosql_usd": per.nosql_usd,
        },
    }


def _cost_from_dict(document: Dict[str, object]) -> CostReport:
    per_doc = dict(document["per_execution"])  # type: ignore[arg-type]
    per_execution = CostBreakdown(
        platform=str(per_doc["platform"]),
        compute_usd=float(per_doc["compute_usd"]),
        invocations_usd=float(per_doc["invocations_usd"]),
        orchestration_usd=float(per_doc["orchestration_usd"]),
        storage_usd=float(per_doc["storage_usd"]),
        nosql_usd=float(per_doc["nosql_usd"]),
    )
    return CostReport(
        benchmark=str(document["benchmark"]),
        platform=str(document["platform"]),
        per_execution=per_execution,
        per_1000_executions=per_execution.scaled(1000.0),
        executions=int(document["executions"]),
    )


def result_from_dict(document: Dict[str, object]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its JSON document.

    The summary is recomputed from the measurements (it is derived data); the
    cost report is restored from the unrounded ``cost`` entry when present.
    """
    config_doc = dict(document["config"])  # type: ignore[arg-type]
    memory_mb = config_doc.get("memory_mb")
    # Documents predating the workload and platform-spec fields raise a
    # KeyError here, which the cell cache treats as a miss.
    workload = WorkloadSpec.from_dict(config_doc["workload"])  # type: ignore[arg-type]
    platform = PlatformSpec.from_dict(config_doc["platform_spec"])  # type: ignore[arg-type]
    config = ExperimentConfig(
        platform=platform,
        seed=int(config_doc["seed"]),
        repetitions=int(config_doc["repetitions"]),
        memory_mb=int(memory_mb) if memory_mb is not None else None,
        workload=workload,
    )
    result = ExperimentResult(
        benchmark=str(document["benchmark"]),
        platform=str(document["platform"]),
        config=config,
        measurements=[measurement_from_dict(m) for m in document.get("measurements", [])],
        containers_created=int(document.get("containers_created", 0)),
        scaling_profile=list(document.get("scaling_profile", [])),
    )
    for entry in document.get("orchestration", []):
        result.orchestration_stats.append(
            OrchestrationStats(
                platform=str(entry.get("platform", result.platform)),
                workflow=str(entry.get("workflow", result.benchmark)),
                invocation_id=str(entry["invocation_id"]),
                state_transitions=int(entry["state_transitions"]),
                orchestrator_time_s=float(entry["orchestrator_time_s"]),
                activity_count=int(entry["activity_count"]),
                started_at=float(entry.get("started_at", 0.0)),
                finished_at=float(entry.get("finished_at", 0.0)),
            )
        )
    result.summary = summarize(result.benchmark, result.platform, result.measurements)
    if config.workload_spec.is_open_loop:
        # Recover the per-repetition grouping from the invocation-id
        # namespaces; replicate runs must not be swept as overlapping traffic.
        groups: Dict[int, List[WorkflowMeasurement]] = {}
        for measurement in result.measurements:
            repetition = repetition_of_invocation(
                measurement.invocation_id, measurement.workflow
            )
            groups.setdefault(repetition, []).append(measurement)
        result.open_loop = open_loop_summary_over_repetitions(
            result.benchmark,
            result.platform,
            [groups[key] for key in sorted(groups)],
            duration_per_repetition_s=config.workload_spec.duration_s,
        )
    if "cost" in document:
        result.cost = _cost_from_dict(dict(document["cost"]))  # type: ignore[arg-type]
    return result


class ResultLog:
    """An append-only JSONL stream of per-cell documents.

    The storage format of the grid's streaming aggregation
    (:mod:`repro.faas.grid`): workers append one self-contained JSON document
    per finished cell, and the merge step folds the logs incrementally
    without ever holding a whole log in memory.

    Each append is a single ``write`` of one newline-terminated line to a
    file opened in append mode, fsynced before close, so a completed append
    survives the writer dying.  ``O_APPEND`` writes are atomic on local
    filesystems but *not* over NFS, so the intended deployment is a single
    writer per log file -- the grid gives every worker its own log segment
    (:meth:`repro.faas.grid.GridRun.shard_log`) rather than sharing one.
    Iteration is tolerant by design: a truncated trailing line (a worker
    killed mid-append) or an otherwise corrupt line is skipped rather than
    aborting the merge; a later retry or duplicate record supplies the cell.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, document: Dict[str, object]) -> None:
        line = json.dumps(document, sort_keys=True)
        if "\n" in line:  # pragma: no cover - json never emits raw newlines
            raise ValueError("result-log documents must serialise to one line")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = (line + "\n").encode("utf-8")
        # A worker killed mid-append leaves a truncated line with no newline;
        # healing it here keeps that crash from swallowing the next record.
        try:
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                if probe.read(1) != b"\n":
                    payload = b"\n" + payload
        except OSError:
            pass  # no file yet, or empty: nothing to heal
        with open(self.path, "ab") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    #: Block size for buffered log reads.  One syscall per MiB instead of
    #: text-mode line iteration keeps merge passes over large grid logs cheap.
    READ_BLOCK_BYTES = 1 << 20

    def __iter__(self) -> Iterator[Dict[str, object]]:
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            tail = b""
            while True:
                block = handle.read(self.READ_BLOCK_BYTES)
                if not block:
                    break
                # Carry the trailing partial line into the next block; only
                # newline-terminated lines are complete records.
                lines = (tail + block).split(b"\n")
                tail = lines.pop()
                yield from self._parse_lines(lines)
            if tail:
                # Final unterminated line: either the last record of a log
                # whose writer exited before the trailing newline, or a
                # truncated crash remnant -- _parse_lines skips the latter.
                yield from self._parse_lines([tail])

    @staticmethod
    def _parse_lines(lines: List[bytes]) -> Iterator[Dict[str, object]]:
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(document, dict):
                yield document

    def __len__(self) -> int:
        return sum(1 for _ in self)


def iter_campaign_cell_results(
    document: Dict[str, object],
) -> Iterator[Tuple[Dict[str, object], ExperimentResult, bool]]:
    """Per-cell ``(job_document, ExperimentResult, from_cache)`` triples of a
    campaign document.

    Understands the documents written by ``repro-flow campaign --output`` /
    ``campaign-merge --output`` when they embed full results
    (``CampaignResult.to_dict(include_results=True)``): each cell's ``result``
    entry is parsed with :func:`result_from_dict` and yielded with its job
    coordinates.  Summary-only cells (no ``result`` entry) are skipped, so the
    iterator degrades gracefully over partial or summary-only documents.
    """
    for entry in document.get("cells", []):  # type: ignore[union-attr]
        if not isinstance(entry, dict):
            continue
        result_document = entry.get("result")
        job_document = entry.get("job")
        if not isinstance(result_document, dict) or not isinstance(job_document, dict):
            continue
        yield (
            job_document,
            result_from_dict(result_document),
            bool(entry.get("from_cache", False)),
        )


def load_campaign_document(path: Union[str, Path]) -> Dict[str, object]:
    """Read a campaign JSON document (``--output`` / ``--save-campaign`` files)."""
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or "spec" not in document:
        raise ValueError(f"{path} is not a campaign result document")
    return document


def save_result(result: ExperimentResult, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2))


def load_measurements(path: Union[str, Path]) -> List[WorkflowMeasurement]:
    document = json.loads(Path(path).read_text())
    return [measurement_from_dict(entry) for entry in document.get("measurements", [])]
