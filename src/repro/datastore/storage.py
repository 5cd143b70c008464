"""The three storage strategies of Section IV.

    "(1) storage with predefined expiration, (2) storage using a
    round-robin mechanism, and (3) storage using a round-robin mechanism
    and hierarchical aggregation."

A strategy decides what happens when partitions accumulate: expire them
by age, evict oldest-first against a byte budget, or re-aggregate the
oldest partitions to a coarser granularity so long-term history survives
with a smaller footprint.  The data store is the *only* component that
persists data — an evicted partition is gone for good — so eviction
decisions are surfaced to the caller for accounting.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import List, Optional

from repro.datastore.partitions import Partition, PartitionCatalog
from repro.datastore.recombine import combine_summaries
from repro.errors import StorageError


class StorageStrategy(abc.ABC):
    """Decides retention for a data store's partition catalog."""

    @abc.abstractmethod
    def admit(
        self, partition: Partition, catalog: PartitionCatalog, now: float
    ) -> List[Partition]:
        """Add a partition, returning any partitions evicted to make room."""

    @abc.abstractmethod
    def maintain(self, catalog: PartitionCatalog, now: float) -> List[Partition]:
        """Periodic upkeep (age-based purging); returns evictions."""

    def pressure(self, catalog: PartitionCatalog) -> float:
        """Storage pressure in [0, 1] for primitive self-adaptation."""
        return 0.0


def _fit_alone(catalog: PartitionCatalog, budget_bytes: int) -> None:
    """The catalog's one partition, over the whole budget alone, kept
    compressed to fit (its kind's ``coarsen``) instead of dropped."""
    (alone,) = catalog.all()
    catalog.remove(alone.partition_id)
    shrink = budget_bytes / alone.size_bytes
    catalog.add(
        replace(alone, summary=combine_summaries([alone.summary], shrink))
    )


class ExpirationStorage(StorageStrategy):
    """Strategy 1: partitions live for a fixed time, then expire.

    Gives applications a retention guarantee; the paper notes the
    difficulty is choosing the period well in advance — storage use is
    unbounded if the data rate grows.
    """

    def __init__(self, ttl_seconds: float) -> None:
        if ttl_seconds <= 0:
            raise StorageError(f"ttl must be positive, got {ttl_seconds}")
        self.ttl_seconds = ttl_seconds

    def admit(
        self, partition: Partition, catalog: PartitionCatalog, now: float
    ) -> List[Partition]:
        catalog.add(partition)
        return self.maintain(catalog, now)

    def maintain(self, catalog: PartitionCatalog, now: float) -> List[Partition]:
        expired = [
            p for p in catalog.all() if now - p.created_at >= self.ttl_seconds
        ]
        for partition in expired:
            catalog.remove(partition.partition_id)
        return expired


class RoundRobinStorage(StorageStrategy):
    """Strategy 2: fully utilize a byte budget, evicting oldest first.

    Retention duration floats with the data rate — fast streams overwrite
    history sooner.  The newest partition always stays; when it alone
    outgrows the whole budget, it stays compressed to fit (its kind's
    ``coarsen``), so a store under sustained overload remains bounded
    without anything resizing the live aggregator.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise StorageError(f"budget must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes

    def admit(
        self, partition: Partition, catalog: PartitionCatalog, now: float
    ) -> List[Partition]:
        catalog.add(partition)
        evicted: List[Partition] = []
        while catalog.total_bytes() > self.budget_bytes:
            if len(catalog) == 1:
                _fit_alone(catalog, self.budget_bytes)
                break
            oldest = catalog.all()[0]
            catalog.remove(oldest.partition_id)
            evicted.append(oldest)
        return evicted

    def maintain(self, catalog: PartitionCatalog, now: float) -> List[Partition]:
        return []

    def pressure(self, catalog: PartitionCatalog) -> float:
        return min(1.0, catalog.total_bytes() / self.budget_bytes)


class HierarchicalStorage(StorageStrategy):
    """Strategy 3: round-robin plus hierarchical re-aggregation.

    Over budget, the oldest ``merge_group`` same-aggregator partitions
    are combined into one summary at ``shrink`` times their joint
    footprint.  History is never dropped outright until re-aggregation
    can no longer shrink it (the compacted partition is itself eligible
    for further compaction later — detail decays with age, the paper's
    "long-term storage but at the price of reduced detail").  A lone
    partition over the whole budget stays compressed to fit, as under
    :class:`RoundRobinStorage`.
    """

    def __init__(
        self,
        budget_bytes: int,
        merge_group: int = 4,
        shrink: float = 0.5,
        max_rounds: int = 32,
    ) -> None:
        if budget_bytes <= 0:
            raise StorageError(f"budget must be positive, got {budget_bytes}")
        if merge_group < 2:
            raise StorageError(f"merge group must be >= 2, got {merge_group}")
        if not 0.0 < shrink < 1.0:
            raise StorageError(f"shrink must be in (0, 1), got {shrink}")
        self.budget_bytes = budget_bytes
        self.merge_group = merge_group
        self.shrink = shrink
        self.max_rounds = max_rounds
        self.compactions = 0

    def admit(
        self, partition: Partition, catalog: PartitionCatalog, now: float
    ) -> List[Partition]:
        catalog.add(partition)
        return self._compact(catalog, now)

    def maintain(self, catalog: PartitionCatalog, now: float) -> List[Partition]:
        return self._compact(catalog, now)

    def _oldest_group(
        self, catalog: PartitionCatalog
    ) -> Optional[List[Partition]]:
        """The oldest run of >= 2 partitions sharing an aggregator."""
        for partition in catalog.all():
            group = catalog.for_aggregator(partition.aggregator)[
                : self.merge_group
            ]
            if len(group) >= 2:
                return group
        return None

    def _compact(self, catalog: PartitionCatalog, now: float) -> List[Partition]:
        evicted: List[Partition] = []
        rounds = 0
        while catalog.total_bytes() > self.budget_bytes and rounds < self.max_rounds:
            rounds += 1
            group = self._oldest_group(catalog)
            if group is None:
                # nothing left to merge: degrade to round-robin eviction
                if len(catalog) == 1:
                    _fit_alone(catalog, self.budget_bytes)
                    break
                oldest = catalog.all()[0]
                catalog.remove(oldest.partition_id)
                evicted.append(oldest)
                continue
            combined = combine_summaries(
                [p.summary for p in group], shrink=self.shrink
            )
            accesses = []
            for partition in group:
                catalog.remove(partition.partition_id)
                accesses.extend(partition.accesses)
            compacted = Partition(
                partition_id=Partition.fresh_id(group[0].aggregator),
                aggregator=group[0].aggregator,
                summary=combined,
                created_at=group[0].created_at,
                accesses=accesses,
            )
            catalog.add(compacted)
            self.compactions += 1
        return evicted

    def pressure(self, catalog: PartitionCatalog) -> float:
        return min(1.0, catalog.total_bytes() / self.budget_bytes)
