"""Simulated NoSQL key-value storage (DynamoDB / CosmosDB / Firestore).

SeBS-Flow extends SeBS with a high-level NoSQL interface supporting a
partition key and an optional sorting key (paper Section 4.3); the Trip
Booking benchmark uses it to implement the SAGA pattern.  Besides the
functional behaviour (create/read/update/delete on multiple tables), the
simulator tracks per-operation latency and the billing units each provider
charges:

* DynamoDB bills read/write units in strictly defined size increments;
* CosmosDB bills request units without a published per-item formula;
* Firestore (Datastore mode) bills per operation independent of item size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..rng import RandomStreams


class NoSQLError(Exception):
    """Raised for invalid NoSQL operations (missing tables or items)."""


@dataclass(frozen=True)
class NoSQLProfile:
    """Latency and billing characteristics of one provider's key-value store."""

    read_latency_s: float
    write_latency_s: float
    #: "dynamodb", "cosmosdb", or "datastore" -- selects the billing formula.
    billing_model: str
    read_unit_price: float
    write_unit_price: float
    jitter_sigma: float = 0.15


@dataclass
class NoSQLOperation:
    """Accounting record of one NoSQL operation."""

    table: str
    operation: str
    item_bytes: int
    units: float
    duration_s: float


ItemKey = Tuple[str, Optional[str]]


class NoSQLTable:
    """One table: items addressed by (partition_key, sort_key)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._items: Dict[ItemKey, Dict[str, object]] = {}

    def put(self, partition_key: str, sort_key: Optional[str], item: Mapping[str, object]) -> None:
        self._items[(partition_key, sort_key)] = dict(item)

    def get(self, partition_key: str, sort_key: Optional[str] = None) -> Dict[str, object]:
        key = (partition_key, sort_key)
        if key not in self._items:
            raise NoSQLError(f"item {key!r} not found in table {self.name!r}")
        return dict(self._items[key])

    def delete(self, partition_key: str, sort_key: Optional[str] = None) -> bool:
        return self._items.pop((partition_key, sort_key), None) is not None

    def query(self, partition_key: str) -> List[Dict[str, object]]:
        return [
            dict(item)
            for (pk, _), item in sorted(self._items.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            if pk == partition_key
        ]

    def scan(self) -> List[Dict[str, object]]:
        return [dict(item) for item in self._items.values()]

    def __len__(self) -> int:
        return len(self._items)


def _item_size_bytes(item: Mapping[str, object]) -> int:
    size = 0
    for key, value in item.items():
        size += len(str(key)) + len(str(value))
    return size


class NoSQLStorage:
    """A set of tables with simulated latency and billing accounting."""

    def __init__(self, profile: NoSQLProfile, streams: RandomStreams, platform: str) -> None:
        self._profile = profile
        self._streams = streams
        self._platform = platform
        self._tables: Dict[str, NoSQLTable] = {}
        self.operations: List[NoSQLOperation] = []

    # ------------------------------------------------------------------ tables
    def create_table(self, name: str) -> NoSQLTable:
        if name not in self._tables:
            self._tables[name] = NoSQLTable(name)
        return self._tables[name]

    def table(self, name: str) -> NoSQLTable:
        if name not in self._tables:
            raise NoSQLError(f"table {name!r} does not exist")
        return self._tables[name]

    # -------------------------------------------------------------- operations
    def put_item(
        self,
        table: str,
        partition_key: str,
        item: Mapping[str, object],
        sort_key: Optional[str] = None,
    ) -> float:
        """Insert/replace an item; returns the simulated operation latency."""
        self.create_table(table).put(partition_key, sort_key, item)
        return self._record(table, "write", _item_size_bytes(item))

    def get_item(
        self, table: str, partition_key: str, sort_key: Optional[str] = None
    ) -> Tuple[Dict[str, object], float]:
        item = self.table(table).get(partition_key, sort_key)
        duration = self._record(table, "read", _item_size_bytes(item))
        return item, duration

    def delete_item(
        self, table: str, partition_key: str, sort_key: Optional[str] = None
    ) -> float:
        self.table(table).delete(partition_key, sort_key)
        return self._record(table, "write", 64)

    def query(self, table: str, partition_key: str) -> Tuple[List[Dict[str, object]], float]:
        items = self.table(table).query(partition_key)
        total = sum(_item_size_bytes(item) for item in items) or 64
        duration = self._record(table, "read", total)
        return items, duration

    # ---------------------------------------------------------------- billing
    def _billing_units(self, operation: str, item_bytes: int) -> float:
        model = self._profile.billing_model
        if model == "dynamodb":
            # DynamoDB: 1 read unit per 4 KB, 1 write unit per 1 KB increment.
            increment = 4096 if operation == "read" else 1024
            return max(1.0, math.ceil(item_bytes / increment))
        if model == "cosmosdb":
            # CosmosDB request units: roughly 1 RU per point read of 1 KB,
            # ~5 RU per write of 1 KB (approximation of the undisclosed model).
            per_kb = 1.0 if operation == "read" else 5.0
            return max(1.0, per_kb * math.ceil(item_bytes / 1024))
        if model == "datastore":
            # Firestore in Datastore mode: flat price per operation.
            return 1.0
        raise NoSQLError(f"unknown billing model {model!r}")

    def _record(self, table: str, operation: str, item_bytes: int) -> float:
        base = (
            self._profile.read_latency_s if operation == "read" else self._profile.write_latency_s
        )
        duration = self._streams.lognormal_around(
            f"nosql:{self._platform}:{table}:{operation}", base, self._profile.jitter_sigma
        )
        units = self._billing_units(operation, item_bytes)
        self.operations.append(
            NoSQLOperation(
                table=table,
                operation=operation,
                item_bytes=item_bytes,
                units=units,
                duration_s=duration,
            )
        )
        return duration

    def total_cost(self) -> float:
        cost = 0.0
        for op in self.operations:
            price = (
                self._profile.read_unit_price
                if op.operation == "read"
                else self._profile.write_unit_price
            )
            cost += op.units * price
        return cost

    def operation_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self.operations:
            counts[op.operation] = counts.get(op.operation, 0) + 1
        return counts
