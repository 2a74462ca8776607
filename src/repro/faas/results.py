"""Serialisation of experiment results.

Experiments can take a while for the large benchmarks, so the harness supports
persisting results as JSON documents and loading them back for analysis --
mirroring the paper artifact's separation between measurement collection and
plotting scripts.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from binascii import a2b_base64, b2a_base64
from dataclasses import asdict
from pathlib import Path
from itertools import accumulate
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.critical_path import FunctionMeasurement, WorkflowMeasurement
from ..sim.billing import CostBreakdown
from ..sim.orchestration.events import OrchestrationStats
from ..sim.platforms.spec import PlatformSpec
from .cost import CostReport
from .experiment import ExperimentConfig, ExperimentResult
from .metrics import open_loop_summary_over_repetitions, summarize
from .trigger import repetition_of_invocation
from .workload import WorkloadSpec

#: What :func:`result_from_dict` raises on a malformed document, and all it
#: raises: the cell cache and the grid merge catch exactly this tuple and
#: treat the document as a miss.
DECODE_ERRORS = (KeyError, TypeError, ValueError)


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
    A malformed document raises one of :data:`DECODE_ERRORS`, never anything
    else, so every reader can treat it as a miss.
    """
    return _decode(document, _row_lists)


def result_from_columns(document: Dict[str, object]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_columns` output.

    Same coercions, same derived data and the same error contract as
    :func:`result_from_dict`: only the lists are read from column tables.
    """
    return _decode(document, _column_lists)


#: Per-function record fields, in :class:`FunctionMeasurement` field order.
_FUNCTION_FIELDS = (
    "function", "phase", "start", "end", "request_id", "container_id", "cold_start",
)
#: Per-measurement head fields; ``records`` counts the measurement's rows
#: of the function table.
_HEAD_FIELDS = ("workflow", "platform", "invocation_id", "memory_mb", "metadata", "records")
#: :class:`OrchestrationStats` fields, in constructor order.
_ORCHESTRATION_FIELDS = (
    "platform", "workflow", "invocation_id", "state_transitions",
    "orchestrator_time_s", "activity_count", "started_at", "finished_at",
)
#: Scaling-profile sample fields, as ``critical_path.scaling_profile`` writes them.
_PROFILE_FIELDS = ("time", "containers")
#: Result-document entries the column layout leaves out: the lists it
#: re-encodes, and the summaries the decoder recomputes anyway.
_NOT_IN_HEAD = frozenset((
    "measurements", "orchestration", "scaling_profile",
    "summary", "open_loop", "cost_per_1000",
))


def result_to_columns(document: Dict[str, object]) -> Dict[str, object]:
    """Column-encode a :func:`result_to_dict` document (the cell-cache layout).

    The row-heavy lists become column tables: one ``functions`` table for
    every per-function record of every measurement, with function, phase,
    workflow and platform names stored as indices into one interned
    ``names`` table; a ``measurements`` table of per-measurement heads, each
    counting its rows of ``functions``; and ``orchestration`` and
    ``scaling_profile`` tables.  A column whose values are all exactly
    ``float`` is packed as ``{"f8": base64 of its little-endian float64s}``;
    every other column stays a JSON array.  Both keep every float bit, so
    the round trip is exact: ``result_to_dict(result_from_columns(
    result_to_columns(d))) == d``.
    """
    names: Dict[str, int] = {}

    def interned(values: List[Any]) -> List[int]:
        return [names.setdefault(value, len(names)) for value in values]

    measurements: List[Dict[str, Any]] = document["measurements"]  # type: ignore[assignment]
    heads = _columns(measurements, ("workflow", "platform", "invocation_id", "memory_mb"))
    heads.update(
        metadata=[m.get("metadata", {}) for m in measurements],
        records=[len(m["functions"]) for m in measurements],
    )
    functions = _columns(
        [row for m in measurements for row in m["functions"]], _FUNCTION_FIELDS
    )
    orchestration = _columns(document["orchestration"], _ORCHESTRATION_FIELDS)  # type: ignore[arg-type]
    for table, keys in ((heads, ("workflow", "platform")),
                        (functions, ("function", "phase")),
                        (orchestration, ("platform", "workflow"))):
        for key in keys:
            table[key] = interned(table[key])
    profile = _columns(document["scaling_profile"], _PROFILE_FIELDS)  # type: ignore[arg-type]
    for table in (functions, orchestration, profile):
        for key, column in table.items():
            if column and all(type(value) is float for value in column):
                values = array("d", column)
                if sys.byteorder == "big":
                    values.byteswap()
                table[key] = {"f8": b2a_base64(values.tobytes(), newline=False).decode()}
    encoded = {key: value for key, value in document.items() if key not in _NOT_IN_HEAD}
    encoded.update(
        names=list(names),
        measurements=heads,
        functions=functions,
        orchestration=orchestration,
        scaling_profile=profile,
    )
    return encoded


def _columns(rows: Sequence[Dict[str, Any]], fields: Sequence[str]) -> Dict[str, list]:
    return {key: [row[key] for row in rows] for key in fields}


def _table(node: object, fields: Sequence[str], what: str) -> list:
    """The ``fields`` columns of a column table, all of one length.

    A packed float column decodes to an ``array`` of its floats.  ``zip``
    would silently truncate columns of unequal length, so a table whose
    columns disagree is rejected here.
    """
    table = _object(node, what)
    columns = [_column(table[key], what) for key in fields]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"{what} columns differ in length")
    return columns


def _column(node: object, what: str) -> Union[list, array]:
    if isinstance(node, list):
        return node
    if not (isinstance(node, dict) and node.keys() == {"f8"} and isinstance(node["f8"], str)):
        raise TypeError(f"{what} columns must be JSON arrays or packed float columns")
    raw = a2b_base64(node["f8"])
    # Only the canonical text is valid: a2b_base64 skips stray characters.
    if b2a_base64(raw, newline=False).decode() != node["f8"]:
        raise ValueError(f"{what} holds a malformed packed float column")
    values = array("d", raw)  # a ValueError unless whole float64s
    if sys.byteorder == "big":
        values.byteswap()
    return values


#: What each layout's list reader hands the shared decode tail: the
#: measurements, the orchestration stats and the scaling profile.
_Lists = Tuple[List[WorkflowMeasurement], List[OrchestrationStats], list]


def _decode(
    document: Dict[str, object],
    lists: Callable[[Dict[str, object]], _Lists],
) -> ExperimentResult:
    try:
        return _assemble(document, *lists(document))
    except OverflowError as error:
        # A JSON integer too large for a float is an out-of-range value.
        raise ValueError(f"result document holds an out-of-range number: {error}") from error


def _object(node: object, what: str) -> Dict[str, object]:
    """``node`` if it is a JSON object; a wrong-typed node is a TypeError."""
    if not isinstance(node, dict):
        raise TypeError(f"{what} must be a JSON object, not {type(node).__name__}")
    return node


def _row_lists(document: Dict[str, object]) -> _Lists:
    """Measurements, orchestration stats and scaling profile of a row document."""
    platform, benchmark = document["platform"], document["benchmark"]
    orchestration = []
    for entry in document.get("orchestration", []):  # type: ignore[union-attr]
        entry = _object(entry, "an orchestration entry")
        orchestration.append(
            OrchestrationStats(
                platform=str(entry.get("platform", platform)),
                workflow=str(entry.get("workflow", benchmark)),
                invocation_id=str(entry["invocation_id"]),
                state_transitions=int(entry["state_transitions"]),
                orchestrator_time_s=float(entry["orchestrator_time_s"]),
                activity_count=int(entry["activity_count"]),
                started_at=float(entry.get("started_at", 0.0)),
                finished_at=float(entry.get("finished_at", 0.0)),
            )
        )
    return (
        [measurement_from_dict(m) for m in document.get("measurements", [])],  # type: ignore[union-attr]
        orchestration,
        list(document.get("scaling_profile", [])),  # type: ignore[call-overload]
    )


def _column_lists(document: Dict[str, object]) -> _Lists:
    """The same three lists, read from the column tables of :func:`result_to_columns`."""
    names = document["names"]
    if not isinstance(names, list):
        raise TypeError("the name table must be a JSON array")
    # A dict, not the list: an out-of-range or negative index is a KeyError
    # instead of an IndexError or a silent wrap-around.
    name = dict(enumerate(map(str, names))).__getitem__
    # Every column goes through the row decoder's coercion of its field.
    records = list(map(FunctionMeasurement, *map(
        map, (name, name, float, float, str, str, bool),
        _table(document["functions"], _FUNCTION_FIELDS, "the function table"),
    )))
    workflow, platform, invocation_id, memory_mb, metadata, counts = _table(
        document["measurements"], _HEAD_FIELDS, "the measurement table"
    )
    # Each head owns the next ``records`` rows of the function table; the
    # counts must be non-negative and cover the table exactly.
    ends = list(accumulate(counts))
    if (ends[-1] if ends else 0) != len(records) or min(counts, default=0) < 0:
        raise ValueError("measurement record counts disagree with the function table")
    measurements = [
        WorkflowMeasurement(name(w), name(p), str(i), records[a:b], int(mb), dict(meta))
        for w, p, i, mb, meta, a, b in zip(
            workflow, platform, invocation_id, memory_mb, metadata, [0, *ends], ends
        )
    ]
    orchestration = list(map(OrchestrationStats, *map(
        map, (name, name, str, int, float, int, float, float),
        _table(document["orchestration"], _ORCHESTRATION_FIELDS, "the orchestration table"),
    )))
    times, containers = _table(
        document["scaling_profile"], _PROFILE_FIELDS, "the scaling-profile table"
    )
    profile = [{"time": t, "containers": c} for t, c in zip(times, containers)]
    return measurements, orchestration, profile


def _assemble(
    document: Dict[str, object],
    measurements: List[WorkflowMeasurement],
    orchestration: List[OrchestrationStats],
    scaling_profile: list,
) -> ExperimentResult:
    """The one decode tail both layouts share: config, derived data, cost."""
    config_doc = dict(document["config"])  # type: ignore[arg-type]
    memory_mb = config_doc.get("memory_mb")
    # Documents predating the workload and platform-spec fields raise a
    # KeyError here, which the cell cache treats as a miss.
    workload = WorkloadSpec.from_dict(config_doc["workload"])  # type: ignore[arg-type]
    platform = PlatformSpec.from_dict(_object(config_doc["platform_spec"], "platform_spec"))
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
        measurements=measurements,
        orchestration_stats=orchestration,
        containers_created=int(document.get("containers_created", 0)),
        scaling_profile=scaling_profile,
    )
    result.summary = summarize(result.benchmark, result.platform, result.measurements)
    # A document whose runtimes have no finite summary row is malformed.
    # Runtimes are never negative (no record ends before it starts), so a
    # finite sum bounds their mean and their spread; a non-finite runtime
    # makes the sum non-finite, and runtimes near the float maximum
    # overflow it (an OverflowError, which _decode turns into a ValueError).
    if not math.isfinite(math.fsum(result.summary.runtimes)):
        raise ValueError("result document holds runtimes with no finite summary")
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


def parse_json_object(raw: Union[str, bytes]) -> Optional[Dict[str, object]]:
    """``raw`` parsed, when it holds one JSON object; otherwise ``None``.

    The one parser for stored records and cache entries, which may be torn
    or corrupt: invalid JSON or UTF-8 (a ``ValueError``) and nesting deeper
    than the parser's recursion limit (a ``RecursionError``) both read as
    nothing.
    """
    try:
        document = json.loads(raw)
    except (ValueError, RecursionError):
        return None
    return document if isinstance(document, dict) else None


def encode_document(document: Dict[str, object]) -> str:
    """The canonical text of a document: key-sorted JSON, as logs store it."""
    return json.dumps(document, sort_keys=True)


def record_line(fields: Dict[str, object], result: Optional[str] = None) -> str:
    """One grid log record: ``fields`` plus an already encoded ``result``.

    Equal to ``encode_document({**fields, "result": json.loads(result)})``
    when ``result`` is ``encode_document`` text, but the (large) result is
    spliced in, not decoded and encoded again.
    """
    if result is None:
        return encode_document(fields)
    head = encode_document({k: v for k, v in fields.items() if k < "result"})[1:-1]
    tail = encode_document({k: v for k, v in fields.items() if k > "result"})[1:-1]
    middle = '"result": ' + result
    return "{" + ", ".join(part for part in (head, middle, tail) if part) + "}"


def write_in_directory(directory: Path, write: Callable[[], Any]) -> Any:
    """Run ``write``; if ``directory`` is missing, create it and retry once.

    So per-cell writes pay no ``mkdir`` unless their directory is new or gone.
    """
    try:
        return write()
    except FileNotFoundError:
        directory.mkdir(parents=True, exist_ok=True)
        return write()


class ResultLog:
    """An append-only JSONL stream of per-cell documents.

    The storage format of the grid's streaming aggregation
    (:mod:`repro.faas.grid`): workers append one self-contained JSON document
    per finished cell, and the merge step folds the logs incrementally
    without ever holding a whole log in memory.

    Each :meth:`extend` commits a batch: a single ``write`` of its
    newline-terminated lines to a file opened in append mode, fsynced once
    before close, so a committed batch survives the writer dying.
    ``O_APPEND`` writes are atomic on local
    filesystems but *not* over NFS, so the intended deployment is a single
    writer per log file -- the grid gives every worker its own log segment
    (:meth:`repro.faas.backends.file.FileBackend.shard_log`) rather than sharing one.
    Iteration is tolerant by design: a truncated trailing line (a worker
    killed mid-append) or an otherwise corrupt line is skipped rather than
    aborting the merge; a later retry or duplicate record supplies the cell.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def extend(self, lines: Sequence[str]) -> None:
        """Durably append encoded records (:func:`record_line`): one write
        and one ``fsync``."""
        if not lines:
            return
        # json.dumps never emits a raw newline: each record stays one line.
        if any("\n" in line for line in lines):  # pragma: no cover
            raise ValueError("result-log records must be one line each")
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        with write_in_directory(self.path.parent, lambda: open(self.path, "a+b")) as handle:
            # A worker killed mid-append leaves a truncated line with no
            # newline; healing it here keeps that crash from swallowing the
            # next batch's first record.
            if handle.seek(0, os.SEEK_END):
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    payload = b"\n" + payload
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
            document = parse_json_object(line) if line else None
            if document is not None:
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
