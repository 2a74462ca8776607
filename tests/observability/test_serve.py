"""The ``repro-flow serve`` surface, exercised without a socket.

Every route is a pure function over a run directory: :func:`respond` for
``/``, ``/metrics``, ``/status``; :func:`iter_sse_frames` for ``/events``.
"""

import json

import pytest

from repro.faas.campaign import CampaignSpec, run_campaign
from repro.faas.grid import GridRun, LeaseQueue, run_grid_worker, shard_of
from repro.observability import (
    CONTENT_TYPE,
    MetricsRegistry,
    parse_prometheus,
    telemetry_session,
    use_registry,
)
from repro.serve import (
    aggregate_run_metrics,
    cache_hit_rate,
    cells_per_second,
    default_telemetry_dir,
    iter_sse_frames,
    respond,
    sse_frame,
    status_document,
)


def tiny_spec() -> CampaignSpec:
    return CampaignSpec(
        benchmarks=("function_chain",),
        platforms=("aws", "azure"),
        seeds=(0, 1),
        burst_size=2,
    )


@pytest.fixture(scope="module")
def executed_run(tmp_path_factory):
    """One completed 2-shard run with per-worker telemetry, shared read-only."""
    run_dir = tmp_path_factory.mktemp("serve") / "run"
    run = GridRun.create(tiny_spec(), run_dir, shard_count=2)
    with telemetry_session(default_telemetry_dir(run_dir), label="worker"):
        run_grid_worker(run, shard=0, workers=1)
        run_grid_worker(run, shard=1, workers=1)
    return run


class TestAggregateRunMetrics:
    def test_merges_writers_and_overwrites_whole_run_gauges(self, executed_run):
        view = aggregate_run_metrics(executed_run.run_dir)
        assert view.writers == 1  # one telemetry_session -> one pid file
        registry = view.registry
        assert registry.gauge("repro_grid_cells_done").value() == 4.0
        assert registry.gauge("repro_grid_cells_failed").value() == 0.0
        assert registry.gauge("repro_grid_cells_total").value() == 4.0
        assert registry.gauge("repro_grid_lease_queue_depth").value() == 0.0
        ops = registry.counter("repro_grid_backend_ops_total")
        assert ops.value(backend="file", op="claim") == 4.0
        assert ops.value(backend="file", op="mark_done") == 4.0
        # autoscale gauges recomputed under the cluster registry
        assert registry.gauge("repro_autoscale_pending").value() == 0.0
        assert view.hint.suggested_workers == 0

    def test_missing_telemetry_directory_still_reports_run_state(self, tmp_path):
        run = GridRun.create(tiny_spec(), tmp_path / "run", shard_count=1)
        view = aggregate_run_metrics(run.run_dir)
        assert view.writers == 0
        assert view.registry.gauge("repro_grid_cells_total").value() == 4.0
        assert view.registry.gauge("repro_grid_cells_done").value() == 0.0


class TestDerivedRates:
    def test_cells_per_second_from_the_latency_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_campaign_cell_seconds")
        hist.observe(0.5)
        hist.observe(1.5)
        assert cells_per_second(registry) == pytest.approx(1.0)

    def test_cells_per_second_none_without_executed_cells(self):
        assert cells_per_second(MetricsRegistry()) is None

    def test_cache_hit_rate_prefers_explicit_misses(self):
        registry = MetricsRegistry()
        registry.counter("repro_campaign_cache_hits_total").inc(3)
        registry.counter("repro_campaign_cache_misses_total").inc(1)
        assert cache_hit_rate(registry) == (0.75, 3, 1)

    def test_grid_worker_counts_hits_and_misses(self, tmp_path):
        """A grid worker counts one hit per cache-served cell and one miss
        per cell it admits; a cell leased elsewhere is neither."""
        spec = tiny_spec()
        cache = tmp_path / "cache"
        run_campaign(CampaignSpec.from_dict(dict(spec.to_dict(), seeds=[0])),
                     workers=1, cache_dir=cache)  # warms the two seed-0 cells
        run = GridRun.create(spec, tmp_path / "run")
        leased = spec.expand()[-1]
        assert leased.seed_index == 1
        assert LeaseQueue(run.backend, worker_id="other-host").claim_many(
            [leased.fingerprint()]) == [True]
        with use_registry(MetricsRegistry()) as registry:
            report = run_grid_worker(run, workers=1, cache_dir=cache)
        assert (report.cache_hits, report.executed, report.skipped_leased) == (2, 1, 1)
        rate, hits, misses = cache_hit_rate(registry)
        assert (hits, misses) == (2, 1)
        assert rate == pytest.approx(2 / 3)

    def test_cache_hit_rate_none_before_any_probe(self):
        assert cache_hit_rate(MetricsRegistry()) is None


class TestRespond:
    def test_index_lists_the_routes(self, executed_run):
        status, ctype, body = respond("GET", "/", executed_run.run_dir)
        assert status == 200
        assert ctype.startswith("text/plain")
        for route in ("/metrics", "/status", "/events"):
            assert route in body.decode()

    def test_metrics_is_prometheus_text_with_cluster_counters(self, executed_run):
        status, ctype, body = respond("GET", "/metrics", executed_run.run_dir)
        assert status == 200
        assert ctype == CONTENT_TYPE
        parsed = parse_prometheus(body.decode())
        assert parsed[
            ("repro_grid_backend_ops_total", (("backend", "file"), ("op", "claim")))
        ] == 4.0
        assert parsed[("repro_grid_cells_done", ())] == 4.0

    def test_status_is_json_with_totals_and_rates(self, executed_run):
        status, ctype, body = respond(
            "GET", "/status?refresh=1", executed_run.run_dir
        )
        assert status == 200
        assert ctype.startswith("application/json")
        document = json.loads(body.decode())
        assert document["totals"] == {
            "cells": 4, "done": 4, "failed": 0, "leased": 0, "pending": 0,
        }
        assert document["leases"] == []
        assert document["shard_count"] == 2
        assert len(document["shards"]) == 2
        assert document["cells_per_second"] > 0
        assert document["cache_hits"] == 0
        assert document["cache_misses"] == 4
        assert document["telemetry_writers"] == 1
        assert document["suggested_workers"] == 0

    def test_status_lists_live_leases_with_holder_and_expiry(self, tmp_path):
        run = GridRun.create(tiny_spec(), tmp_path / "run", shard_count=2)
        stuck = run.spec.expand()[0]
        assert LeaseQueue(run.backend, worker_id="other-host",
                          ttl_s=300.0).claim_many([stuck.fingerprint()]) == [True]
        status, _, body = respond("GET", "/status", run.run_dir)
        assert status == 200
        document = json.loads(body.decode())
        assert document["totals"]["leased"] == 1
        [lease] = document["leases"]
        assert lease["worker"] == "other-host"
        assert lease["cell"] == stuck.fingerprint()[:16]
        assert lease["shard"] == shard_of(stuck.fingerprint(), 2)
        assert 0.0 < lease["expires_in_s"] <= 300.0

    def test_status_document_matches_the_view(self, executed_run):
        view = aggregate_run_metrics(executed_run.run_dir)
        document = status_document(view)
        assert document["run_dir"] == str(executed_run.run_dir)
        assert document["autoscale"] == view.hint.describe()

    def test_unknown_path_404s_and_non_get_405s(self, executed_run):
        assert respond("GET", "/nope", executed_run.run_dir)[0] == 404
        assert respond("POST", "/metrics", executed_run.run_dir)[0] == 405

    def test_bad_run_dir_raises_for_the_cli_usage_exit(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            respond("GET", "/status", tmp_path / "nope")


class TestAsyncioServer:
    def test_serves_metrics_and_events_over_a_real_socket(self, executed_run):
        import asyncio

        from repro.serve import serve_async

        async def scenario():
            bound = {}
            server_task = asyncio.ensure_future(
                serve_async(
                    executed_run.run_dir,
                    port=0,
                    ready=lambda host, port: bound.update(host=host, port=port),
                )
            )
            while not bound:
                await asyncio.sleep(0.01)

            async def fetch(path):
                reader, writer = await asyncio.open_connection(
                    bound["host"], bound["port"]
                )
                writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
                await writer.drain()
                payload = await reader.read()
                writer.close()
                await writer.wait_closed()
                return payload.decode()

            metrics = await fetch("/metrics")
            events = await fetch("/events")
            server_task.cancel()
            try:
                await server_task
            except asyncio.CancelledError:
                pass
            return metrics, events

        metrics, events = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        assert metrics.startswith("HTTP/1.1 200 OK\r\n")
        assert "Content-Type: " + CONTENT_TYPE in metrics
        assert 'repro_grid_backend_ops_total{backend="file",op="claim"} 4' \
            in metrics
        assert "Content-Type: text/event-stream" in events
        assert '"settled": true' in events


class TestEvents:
    def test_sse_frame_format(self):
        frame = sse_frame({"done": 1, "total": 4})
        assert frame == 'data: {"done": 1, "total": 4}\n\n'
        assert frame.endswith("\n\n")

    def test_settled_run_yields_one_final_frame(self, executed_run):
        slept = []
        frames = list(
            iter_sse_frames(executed_run, interval_s=9.0, sleep=slept.append)
        )
        assert len(frames) == 1
        payload = json.loads(frames[0][len("data: "):])
        assert payload == {"done": 4, "failed": 0, "settled": True, "total": 4}
        assert slept == []  # settled immediately; never slept

    def test_unsettled_run_polls_until_max_and_sleeps_between(self, tmp_path):
        run = GridRun.create(tiny_spec(), tmp_path / "run", shard_count=1)
        slept = []
        frames = list(
            iter_sse_frames(run, interval_s=0.5, max_polls=3, sleep=slept.append)
        )
        assert len(frames) == 3
        assert slept == [0.5, 0.5]
        payload = json.loads(frames[0][len("data: "):])
        assert payload["settled"] is False
        assert payload["total"] == 4
