"""Tests for the simulated storage services (object storage, NoSQL, payload, metrics)."""

import pytest

from repro.sim.rng import RandomStreams
from repro.sim.storage.metrics_store import MeasurementRecord, MetricsStore
from repro.sim.storage.nosql import NoSQLError, NoSQLProfile, NoSQLStorage
from repro.sim.storage.object_storage import ObjectStorage, StorageError, StorageProfile
from repro.sim.storage.payload import PayloadChannel, PayloadError, PayloadProfile


def make_object_storage(aggregate_bps: float = 1e9) -> ObjectStorage:
    profile = StorageProfile(
        request_latency_s=0.01,
        per_function_bandwidth_bps=100e6,
        aggregate_bandwidth_bps=aggregate_bps,
        jitter_sigma=0.0,
    )
    return ObjectStorage(profile, RandomStreams(1), "testcloud")


class TestObjectStorage:
    def test_put_get_roundtrip(self):
        storage = make_object_storage()
        storage.put_object("bucket/key", 1000, data=b"hello")
        obj = storage.get_object("bucket/key")
        assert obj.size_bytes == 1000
        assert obj.data == b"hello"

    def test_missing_object_raises(self):
        with pytest.raises(StorageError):
            make_object_storage().get_object("nope")

    def test_overwrite_bumps_version(self):
        storage = make_object_storage()
        storage.put_object("k", 10)
        storage.put_object("k", 20)
        assert storage.get_object("k").version == 2
        assert storage.get_object("k").size_bytes == 20

    def test_list_keys_with_prefix(self):
        storage = make_object_storage()
        storage.put_object("a/1", 1)
        storage.put_object("a/2", 1)
        storage.put_object("b/1", 1)
        assert storage.list_keys("a/") == ["a/1", "a/2"]
        assert storage.total_bytes() == 3

    def test_delete_is_idempotent(self):
        storage = make_object_storage()
        storage.put_object("k", 10)
        storage.delete_object("k")
        storage.delete_object("k")
        assert not storage.exists("k")

    def test_transfer_duration_scales_with_size(self):
        storage = make_object_storage()
        small = storage.download_duration(1_000_000, concurrency=1)
        large = storage.download_duration(100_000_000, concurrency=1)
        assert large > small * 10

    def test_concurrency_shares_aggregate_bandwidth(self):
        storage = make_object_storage(aggregate_bps=200e6)
        alone = storage.download_duration(100_000_000, concurrency=1)
        crowded = storage.download_duration(100_000_000, concurrency=20)
        assert crowded > alone * 5

    def test_negative_size_rejected(self):
        with pytest.raises(StorageError):
            make_object_storage().put_object("k", -1)
        with pytest.raises(StorageError):
            make_object_storage().transfer_duration(-5, "download")

    def test_operation_counts(self):
        storage = make_object_storage()
        storage.download_duration(100)
        storage.upload_duration(100)
        storage.upload_duration(100)
        counts = storage.operation_counts()
        assert counts["download"] == 1
        assert counts["upload"] == 2


def make_nosql(billing_model: str = "dynamodb") -> NoSQLStorage:
    profile = NoSQLProfile(
        read_latency_s=0.005,
        write_latency_s=0.01,
        billing_model=billing_model,
        read_unit_price=1e-6,
        write_unit_price=2e-6,
        jitter_sigma=0.0,
    )
    return NoSQLStorage(profile, RandomStreams(2), "testcloud")


class TestNoSQL:
    def test_put_get_roundtrip_with_sort_key(self):
        nosql = make_nosql()
        nosql.put_item("trips", "trip-1", {"kind": "hotel", "price": 100}, sort_key="hotel")
        item, duration = nosql.get_item("trips", "trip-1", sort_key="hotel")
        assert item["price"] == 100
        assert duration > 0

    def test_missing_item_raises(self):
        nosql = make_nosql()
        nosql.create_table("t")
        with pytest.raises(NoSQLError):
            nosql.get_item("t", "missing")

    def test_missing_table_raises(self):
        with pytest.raises(NoSQLError):
            make_nosql().get_item("ghost-table", "pk")

    def test_query_returns_all_items_of_partition(self):
        nosql = make_nosql()
        for kind in ("hotel", "car", "flight"):
            nosql.put_item("trips", "trip-1", {"kind": kind}, sort_key=kind)
        nosql.put_item("trips", "trip-2", {"kind": "hotel"}, sort_key="hotel")
        items, _ = nosql.query("trips", "trip-1")
        assert len(items) == 3

    def test_delete_removes_item(self):
        nosql = make_nosql()
        nosql.put_item("t", "pk", {"a": 1}, sort_key="s")
        nosql.delete_item("t", "pk", sort_key="s")
        with pytest.raises(NoSQLError):
            nosql.get_item("t", "pk", sort_key="s")

    def test_dynamodb_billing_uses_size_increments(self):
        nosql = make_nosql("dynamodb")
        nosql.put_item("t", "pk", {"data": "x" * 3000})
        units = nosql.operations[-1].units
        assert units == 3  # ceil(3000+4 / 1024)

    def test_datastore_billing_is_flat_per_operation(self):
        nosql = make_nosql("datastore")
        nosql.put_item("t", "pk", {"data": "x" * 5000})
        assert nosql.operations[-1].units == 1.0

    def test_cosmosdb_billing_charges_request_units(self):
        nosql = make_nosql("cosmosdb")
        nosql.put_item("t", "pk", {"data": "x" * 2000})
        assert nosql.operations[-1].units >= 5.0

    def test_total_cost_accumulates(self):
        nosql = make_nosql()
        nosql.put_item("t", "a", {"v": 1})
        nosql.get_item("t", "a")
        assert nosql.total_cost() > 0
        assert nosql.operation_counts() == {"write": 1, "read": 1}


class TestPayloadChannel:
    def make_channel(self, spill: bool) -> PayloadChannel:
        profile = PayloadProfile(
            max_payload_bytes=262_144,
            base_latency_s=0.01,
            spill_threshold_bytes=16_384 if spill else 0,
            spill_latency_per_byte_s=1e-6 if spill else 0.0,
            jitter_sigma=0.0,
        )
        return PayloadChannel(profile, RandomStreams(3), "testcloud")

    def test_oversized_payload_rejected(self):
        channel = self.make_channel(spill=False)
        with pytest.raises(PayloadError):
            channel.transfer_duration(1_000_000)

    def test_negative_payload_rejected(self):
        with pytest.raises(PayloadError):
            self.make_channel(spill=False).transfer_duration(-1)

    def test_constant_latency_without_spill(self):
        channel = self.make_channel(spill=False)
        assert channel.transfer_duration(64) == pytest.approx(
            channel.transfer_duration(200_000), rel=0.01
        )

    def test_spill_adds_latency_beyond_threshold(self):
        channel = self.make_channel(spill=True)
        below = channel.transfer_duration(10_000)
        above = channel.transfer_duration(200_000)
        assert above > below * 5

    def test_statistics_accumulate(self):
        channel = self.make_channel(spill=False)
        channel.transfer_duration(100)
        channel.transfer_duration(200)
        assert channel.transferred_bytes == 300
        assert channel.transfer_count == 2


class TestMetricsStore:
    def make_record(self, invocation: str, container: str) -> MeasurementRecord:
        return MeasurementRecord(
            workflow="wf", invocation_id=invocation, phase="p", function="f",
            start=0.0, end=1.0, request_id="r", container_id=container,
            cold_start=False, memory_mb=256,
        )

    def test_report_and_read_back(self):
        store = MetricsStore()
        latency = store.report(self.make_record("i0", "c0"))
        assert latency < 0.01
        assert len(store.records_for("i0")) == 1
        assert store.records_for("other") == []

    def test_distinct_containers(self):
        store = MetricsStore()
        store.report(self.make_record("i0", "c0"))
        store.report(self.make_record("i0", "c1"))
        store.report(self.make_record("i1", "c1"))
        assert store.distinct_containers("i0") == 2
        assert store.distinct_containers() == 2
        assert store.invocations() == ["i0", "i1"]

    def test_clear(self):
        store = MetricsStore()
        store.report(self.make_record("i0", "c0"))
        store.clear()
        assert store.all_records() == []
