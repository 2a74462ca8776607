"""``repro-flow serve``: a scrapeable front door onto a grid run.

A minimal stdlib-asyncio HTTP server exposing one grid run directory three
ways:

* ``GET /metrics`` -- Prometheus text format: every worker's latest JSONL
  telemetry snapshot merged into one cluster-wide registry, plus freshly
  computed whole-run gauges (shard progress, autoscale hint).
* ``GET /status``  -- the same view as JSON (shard rows, totals, live
  leases with holder and seconds to expiry, cache hit rate, cells/sec, and
  the autoscale hint's one-line description).
* ``GET /events``  -- a Server-Sent-Events stream of live merge progress,
  one ``data:`` frame per :func:`repro.faas.grid.iter_partial_merges`
  snapshot, ending once the run settles.

Everything interesting is a pure function (:func:`aggregate_run_metrics`,
:func:`status_document`, :func:`respond`, :func:`iter_sse_frames`) so tests
never need a socket; the asyncio wrapper at the bottom only parses request
lines and frames bytes.  Blocking filesystem scans run in the default
executor, keeping the event loop responsive while a large run merges.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

from .faas.grid import (
    AutoscaleHint,
    GridRun,
    ShardStatus,
    autoscale_hint,
    grid_status,
    iter_partial_merges,
)
from .observability import (
    CONTENT_TYPE,
    MetricsRegistry,
    merge_directory,
    render_prometheus,
    use_registry,
)

#: Conventional telemetry location inside a run directory (what the CLI's
#: ``--telemetry`` defaults to pointing at, and what serve scans).
TELEMETRY_DIRNAME = "telemetry"


def default_telemetry_dir(run_dir: Union[str, Path]) -> Path:
    """Where a run's workers stream their JSONL telemetry by convention."""
    return Path(run_dir) / TELEMETRY_DIRNAME


@dataclass
class RunMetricsView:
    """One consistent observation of a run: merged telemetry + fresh state."""

    registry: MetricsRegistry
    run: GridRun
    statuses: List[ShardStatus]
    hint: AutoscaleHint
    writers: int  #: telemetry files whose snapshots were merged


def aggregate_run_metrics(
    run_dir: Union[str, Path],
    telemetry: Optional[Union[str, Path]] = None,
) -> RunMetricsView:
    """The cluster-wide metrics view of one grid run.

    Counters and histograms merge exactly across the per-worker snapshot
    files (each worker's latest snapshot, summed).  Point-in-time gauges do
    not -- a sum of stale per-worker readings is not the run's state -- so
    after merging, the whole-run gauges (shard progress, lease depth, the
    autoscale hint) are recomputed from the backend and *overwrite* the
    merged values.  ``campaign-status --metrics`` and every serve endpoint
    read through here: one code path, one set of numbers.
    """
    registry = MetricsRegistry(name="cluster")
    directory = (
        Path(telemetry) if telemetry is not None else default_telemetry_dir(run_dir)
    )
    writers = merge_directory(registry, directory)
    run = GridRun.open(run_dir)
    statuses = grid_status(run)
    with use_registry(registry):
        hint = autoscale_hint(run, statuses=statuses)
    done = sum(status.done for status in statuses)
    failed = sum(status.failed for status in statuses)
    leased = sum(status.leased for status in statuses)
    total = sum(status.total for status in statuses)
    registry.gauge(
        "repro_grid_cells_done", "Cells with a merged result across all shards."
    ).set(done)
    registry.gauge(
        "repro_grid_cells_failed",
        "Cells whose latest attempt failed with nobody retrying.",
    ).set(failed)
    registry.gauge(
        "repro_grid_cells_total", "Cells the run's campaign spec expands to."
    ).set(total)
    # Summed per-worker depths are stale point-in-time readings; the live
    # lease scan is the truth.
    registry.gauge(
        "repro_grid_lease_queue_depth", "Leases this worker currently holds."
    ).set(leased)
    return RunMetricsView(
        registry=registry, run=run, statuses=statuses, hint=hint, writers=writers
    )


def _counter_value(registry: MetricsRegistry, name: str) -> float:
    """Sum of a counter across every label set (0.0 when never written)."""
    metric = registry.counter(name)
    return float(sum(value for _, value in metric.samples()))


def cells_per_second(registry: MetricsRegistry) -> Optional[float]:
    """Executed-cell throughput from the cell-latency histogram, or None.

    ``count / sum`` over ``repro_campaign_cell_seconds`` -- cells per second
    of *cell compute time* (per worker-second, not wall time), which is the
    comparable number across fleets of any size.
    """
    histogram = registry.histogram("repro_campaign_cell_seconds")
    count = histogram.sample_count()
    total = histogram.sample_sum()
    if count <= 0 or total <= 0:
        return None
    return count / total


def cache_hit_rate(registry: MetricsRegistry) -> Optional[Tuple[float, int, int]]:
    """``(rate, hits, misses)`` over the run so far, or None before any probe.

    Both counters come from the one cache driver every worker runs: a hit
    per cache-served cell, a miss per cell admitted for execution.
    """
    hits = _counter_value(registry, "repro_campaign_cache_hits_total")
    misses = _counter_value(registry, "repro_campaign_cache_misses_total")
    attempts = hits + misses
    if attempts <= 0:
        return None
    return hits / attempts, int(hits), int(misses)


def status_document(view: RunMetricsView) -> dict:
    """The ``/status`` JSON body (and ``campaign-status --metrics`` source)."""
    rate = cache_hit_rate(view.registry)
    throughput = cells_per_second(view.registry)
    return {
        "run_dir": str(view.run.run_dir),
        "shard_count": view.run.shard_count,
        "shards": [status.as_row() for status in view.statuses],
        "totals": {
            "cells": sum(status.total for status in view.statuses),
            "done": sum(status.done for status in view.statuses),
            "failed": sum(status.failed for status in view.statuses),
            "leased": sum(status.leased for status in view.statuses),
            "pending": sum(status.pending for status in view.statuses),
        },
        "leases": [
            lease.as_row() for status in view.statuses for lease in status.leases
        ],
        "cells_per_second": throughput,
        "cache_hit_rate": None if rate is None else rate[0],
        "cache_hits": None if rate is None else rate[1],
        "cache_misses": None if rate is None else rate[2],
        "telemetry_writers": view.writers,
        "autoscale": view.hint.describe(),
        "suggested_workers": view.hint.suggested_workers,
    }


# ------------------------------------------------------------------ routing
_JSON_TYPE = "application/json; charset=utf-8"
_TEXT_TYPE = "text/plain; charset=utf-8"

_INDEX = (
    "repro-flow serve\n"
    "  /metrics  Prometheus text format (cluster-wide)\n"
    "  /status   JSON shard progress + throughput + autoscale hint\n"
    "  /events   Server-Sent-Events merge progress stream\n"
)


def respond(
    method: str,
    path: str,
    run_dir: Union[str, Path],
    telemetry: Optional[Union[str, Path]] = None,
) -> Tuple[int, str, bytes]:
    """Route one non-streaming request: ``(status, content_type, body)``.

    Pure apart from reading the run directory, so tests exercise the whole
    surface without a socket.  ``/events`` is the one streaming route and is
    handled by the server loop directly (:func:`iter_sse_frames`).
    """
    if method.upper() != "GET":
        return 405, _TEXT_TYPE, b"method not allowed\n"
    path = path.split("?", 1)[0]
    if path in ("", "/"):
        return 200, _TEXT_TYPE, _INDEX.encode()
    if path == "/metrics":
        view = aggregate_run_metrics(run_dir, telemetry=telemetry)
        return 200, CONTENT_TYPE, render_prometheus(view.registry).encode()
    if path == "/status":
        view = aggregate_run_metrics(run_dir, telemetry=telemetry)
        body = json.dumps(status_document(view), indent=2, sort_keys=True) + "\n"
        return 200, _JSON_TYPE, body.encode()
    return 404, _TEXT_TYPE, b"not found\n"


# ------------------------------------------------------------------- events
def sse_frame(payload: dict) -> str:
    """One Server-Sent-Events frame: a ``data:`` line and a blank terminator."""
    return f"data: {json.dumps(payload, sort_keys=True)}\n\n"


def iter_sse_frames(
    run: GridRun,
    cache_dir: Optional[Union[str, Path]] = None,
    interval_s: float = 2.0,
    max_polls: Optional[int] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[str]:
    """SSE frames of live merge progress, ending when the run settles.

    Each frame is one :func:`~repro.faas.grid.iter_partial_merges` snapshot
    (polled one at a time so this generator owns the pacing and tests can
    inject ``sleep``).  The final frame carries ``"settled": true``.
    """
    polls = 0
    while True:
        done = failed = total = 0
        for _, done, failed, total in iter_partial_merges(
            run, cache_dir=cache_dir, max_polls=1
        ):
            pass
        settled = done + failed >= total
        yield sse_frame(
            {"done": done, "failed": failed, "total": total, "settled": settled}
        )
        polls += 1
        if settled or (max_polls is not None and polls >= max_polls):
            return
        sleep(interval_s)


# ------------------------------------------------------------------- server
_REASONS = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}


def _http_head(status: int, content_type: str, length: Optional[int] = None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        "Connection: close",
        "Cache-Control: no-store",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


async def _drain_headers(reader: asyncio.StreamReader) -> None:
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return


async def _handle(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    run_dir: Union[str, Path],
    cache_dir: Optional[Union[str, Path]],
    telemetry: Optional[Union[str, Path]],
    interval_s: float,
) -> None:
    loop = asyncio.get_running_loop()
    try:
        request = (await reader.readline()).decode("latin-1").strip()
        parts = request.split()
        if len(parts) < 2:
            return
        method, path = parts[0], parts[1]
        await _drain_headers(reader)
        if path.split("?", 1)[0] == "/events" and method.upper() == "GET":
            writer.write(_http_head(200, "text/event-stream; charset=utf-8"))
            await writer.drain()
            run = await loop.run_in_executor(None, GridRun.open, run_dir)
            frames = iter_sse_frames(run, cache_dir=cache_dir, interval_s=interval_s)
            while True:
                frame = await loop.run_in_executor(None, next, frames, None)
                if frame is None:
                    return
                writer.write(frame.encode())
                await writer.drain()
        status, content_type, body = await loop.run_in_executor(
            None, respond, method, path, run_dir, telemetry
        )
        writer.write(_http_head(status, content_type, len(body)) + body)
        await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away; nothing to clean up beyond the socket
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def serve_async(
    run_dir: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8000,
    cache_dir: Optional[Union[str, Path]] = None,
    telemetry: Optional[Union[str, Path]] = None,
    interval_s: float = 2.0,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Serve a run directory until cancelled; ``ready`` gets the bound address."""
    GridRun.open(run_dir)  # fail fast on a bad run dir, before binding

    async def handler(reader, writer):
        await _handle(reader, writer, run_dir, cache_dir, telemetry, interval_s)

    server = await asyncio.start_server(handler, host=host, port=port)
    sockets = server.sockets or ()
    bound = sockets[0].getsockname() if sockets else (host, port)
    if ready is not None:
        ready(bound[0], bound[1])
    async with server:
        await server.serve_forever()


def serve(
    run_dir: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 8000,
    cache_dir: Optional[Union[str, Path]] = None,
    telemetry: Optional[Union[str, Path]] = None,
    interval_s: float = 2.0,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Blocking entry for the CLI's ``serve`` verb (Ctrl-C to stop)."""
    try:
        asyncio.run(
            serve_async(
                run_dir,
                host=host,
                port=port,
                cache_dir=cache_dir,
                telemetry=telemetry,
                interval_s=interval_s,
                ready=ready,
            )
        )
    except KeyboardInterrupt:
        pass
