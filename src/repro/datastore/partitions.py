"""Partitions: the unit of storage, query, and replication.

Section VII: "the data maintained by a data store can be partitioned to
allow partial replication."  In this library one partition is one epoch
summary from one aggregator.  The catalog records every access (when,
and how many result bytes it produced) because that history is exactly
what the manager's replication predictor consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.summary import DataSummary, stores_changed
from repro.errors import PartitionNotFoundError

_partition_counter = itertools.count(1)


@dataclass(frozen=True)
class PartitionAccess:
    """One read of a partition."""

    time: float
    result_bytes: int
    remote: bool


@dataclass
class Partition:
    """One stored summary plus its access history."""

    partition_id: str
    aggregator: str
    summary: DataSummary
    created_at: float
    accesses: List[PartitionAccess] = field(default_factory=list)
    replicated_to: List[str] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        """The partition's storage footprint."""
        return self.summary.size_bytes

    def record_access(
        self, time: float, result_bytes: int, remote: bool
    ) -> None:
        """Log one read."""
        self.accesses.append(PartitionAccess(time, result_bytes, remote))

    @staticmethod
    def fresh_id(aggregator: str) -> str:
        """Generate a unique partition id."""
        return f"{aggregator}#{next(_partition_counter):06d}"


class PartitionCatalog:
    """All partitions held by one data store, in creation order."""

    def __init__(self) -> None:
        self._partitions: Dict[str, Partition] = {}
        self._order: List[str] = []
        stores_changed()

    def add(self, partition: Partition) -> None:
        """Register a new partition."""
        self._partitions[partition.partition_id] = partition
        self._order.append(partition.partition_id)
        stores_changed()

    def remove(self, partition_id: str) -> Partition:
        """Drop a partition (storage eviction or re-aggregation)."""
        partition = self.get(partition_id)
        del self._partitions[partition_id]
        self._order.remove(partition_id)
        stores_changed()
        return partition

    def get(self, partition_id: str) -> Partition:
        """Fetch one partition by id."""
        try:
            return self._partitions[partition_id]
        except KeyError as exc:
            raise PartitionNotFoundError(
                f"unknown partition {partition_id!r}"
            ) from exc

    def __contains__(self, partition_id: str) -> bool:
        return partition_id in self._partitions

    def __len__(self) -> int:
        return len(self._partitions)

    def all(self) -> List[Partition]:
        """Partitions oldest-first (by ``created_at``, then insertion).

        Compacted partitions inherit the oldest input's ``created_at``,
        so they stay at the front of the round-robin queue rather than
        being treated as fresh data.
        """
        order_index = {pid: i for i, pid in enumerate(self._order)}
        return sorted(
            self._partitions.values(),
            key=lambda p: (p.created_at, order_index[p.partition_id]),
        )

    def for_aggregator(self, aggregator: str) -> List[Partition]:
        """Partitions produced by one aggregator, oldest first."""
        return [p for p in self.all() if p.aggregator == aggregator]

    def in_interval(
        self,
        aggregator: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Partition]:
        """Partitions of one aggregator overlapping a time window."""
        selected = []
        for partition in self.for_aggregator(aggregator):
            interval = partition.summary.meta.interval
            if start is not None and interval.end <= start:
                continue
            if end is not None and interval.start >= end:
                continue
            selected.append(partition)
        return selected

    def total_bytes(self) -> int:
        """Total storage footprint."""
        return sum(p.size_bytes for p in self._partitions.values())
