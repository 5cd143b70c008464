"""The data store (Figure 4): collect, aggregate, store, trigger, query.

One :class:`DataStore` manages one mega-dataset at one location.  It is
the only component that persists data; everything else (analytics,
applications) sees summaries or query results.

A store answers queries from its own data only and does not know its
peers.  Reading one store's data on another's behalf — shipping a
partial summary across the fabric, or answering on a bought replica —
is the federated planner's job (:mod:`repro.query.planner`).
:meth:`DataStore.replicate_partition` is the one way a replica is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.primitive import QueryRequest
from repro.core.registry import default_registry
from repro.core.summary import DataSummary, LineageLog, Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.partitions import Partition, PartitionCatalog
from repro.datastore.recombine import combine_summaries
from repro.datastore.storage import StorageStrategy
from repro.datastore.triggers import (
    RawTrigger,
    TriggerEngine,
    TriggerSink,
)
from repro.errors import StorageError
from repro.hierarchy.network import NetworkFabric

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datastore.privacy import PrivacyGuard


@dataclass
class QueryResult:
    """Outcome of a data-store query."""

    value: Any
    aggregator: str
    partitions_used: List[str] = field(default_factory=list)
    used_live: bool = False


@dataclass
class IngestStats:
    """Running ingest accounting for one store."""

    items: int = 0
    bytes: int = 0

    def observe(self, size_bytes: int) -> None:
        """Count one ingested item."""
        self.items += 1
        self.bytes += size_bytes

    def observe_many(self, size_bytes: int, count: int) -> None:
        """Count ``count`` items of ``size_bytes`` each at once."""
        self.items += count
        self.bytes += size_bytes * count


class DataStore:
    """One mega-dataset: aggregators + storage + triggers + query API."""

    def __init__(
        self,
        location: Location,
        storage: StorageStrategy,
        fabric: Optional[NetworkFabric] = None,
        lineage: Optional[LineageLog] = None,
        privacy: Optional["PrivacyGuard"] = None,
    ) -> None:
        self.location = location
        self.storage = storage
        self.fabric = fabric
        self.privacy = privacy
        self.lineage = lineage or LineageLog()
        self.catalog = PartitionCatalog()
        self.replicas = PartitionCatalog()
        self.triggers = TriggerEngine()
        self._aggregators: Dict[str, Aggregator] = {}
        self.ingest_stats = IngestStats()
        self.evictions: List[Partition] = []

    def relocate(self, location: Location, now: float = 0.0) -> Location:
        """Move this store to a new hierarchy location (reparenting).

        The store keeps every aggregator, partition, and replica — only
        its address changes.  Live primitives are re-addressed too, so
        summaries cut after the move carry the new location.  Returns
        the old location; callers re-key any path-indexed state
        (runtime store maps, pending queues).
        """
        old = self.location
        self.location = location
        for aggregator in self._aggregators.values():
            primitive = aggregator.primitive
            if getattr(primitive, "location", None) is not None:
                primitive.location = location
        self.lineage.record(
            operation="relocate",
            location=location,
            timestamp=now,
            detail=f"{old.path}->{location.path}",
        )
        return old

    # ------------------------------------------------------------------
    # aggregators

    def install_aggregator(self, aggregator: Aggregator) -> None:
        """Install a named aggregator (names are unique per store)."""
        if aggregator.name in self._aggregators:
            raise StorageError(
                f"aggregator {aggregator.name!r} already installed at "
                f"{self.location.path!r}"
            )
        self._aggregators[aggregator.name] = aggregator

    def remove_aggregator(self, name: str) -> Aggregator:
        """Uninstall an aggregator; its stored partitions remain."""
        try:
            return self._aggregators.pop(name)
        except KeyError as exc:
            raise StorageError(
                f"no aggregator {name!r} at {self.location.path!r}"
            ) from exc

    def aggregator(self, name: str) -> Aggregator:
        """Fetch one installed aggregator."""
        try:
            return self._aggregators[name]
        except KeyError as exc:
            raise StorageError(
                f"no aggregator {name!r} at {self.location.path!r}"
            ) from exc

    def aggregators(self) -> List[Aggregator]:
        """All installed aggregators."""
        return list(self._aggregators.values())

    # ------------------------------------------------------------------
    # ingest path (Figure 4, left side)

    def ingest(
        self,
        stream_id: str,
        records: Any,
        timestamp: Optional[float] = None,
        size_bytes: int = 0,
    ) -> int:
        """Push raw data through triggers and subscribed aggregators.

        One signature for both shapes:

        * ``ingest(stream, item, timestamp)`` — a single item with its
          timestamp (the historical per-item call).
        * ``ingest(stream, timed_items)`` — an iterable of
          ``(item, timestamp)`` pairs; stats and raw triggers still see
          every item, but subscribed aggregators get the whole batch at
          once, letting budgeted primitives amortize their compression
          checks.

        Either shape reaches each subscribed aggregator as one
        :meth:`~repro.datastore.aggregator.Aggregator.ingest_many` batch,
        so a single item is accepted or rejected exactly like a batch
        of one.  ``size_bytes`` is the per-item raw size either way.
        Returns the number of items ingested.
        """
        if timestamp is not None:
            timed_items: List[Tuple[Any, float]] = [(records, timestamp)]
        else:
            timed_items = list(records)
        if not timed_items:
            return 0
        if self.triggers.has_raw():
            for item, at_time in timed_items:
                self.ingest_stats.observe(size_bytes)
                self.triggers.evaluate_raw(stream_id, item, at_time)
        else:
            # no raw triggers installed: identical accounting, one call
            self.ingest_stats.observe_many(size_bytes, len(timed_items))
        for aggregator in self._aggregators.values():
            if aggregator.wants(stream_id):
                aggregator.ingest_many(timed_items)
        return len(timed_items)

    def storage_pressure(self) -> float:
        """Current storage pressure from the strategy."""
        return self.storage.pressure(self.catalog)

    def close_epoch(self, now: float) -> List[Partition]:
        """Cut summaries from every aggregator, store them, fire triggers.

        Returns the newly created partitions.  Evictions performed by
        the storage strategy are appended to :attr:`evictions`.
        """
        created: List[Partition] = []
        pressure = self.storage_pressure()
        for aggregator in self._aggregators.values():
            if aggregator.items_this_epoch == 0:
                continue
            summary = aggregator.close_epoch(now, pressure)
            record = self.lineage.record(
                operation="aggregate",
                location=self.location,
                timestamp=now,
                detail=f"{aggregator.name}:{summary.kind}",
            )
            summary.meta = type(summary.meta)(
                interval=summary.meta.interval,
                location=summary.meta.location,
                lineage_id=record.lineage_id,
            )
            partition = Partition(
                partition_id=Partition.fresh_id(aggregator.name),
                aggregator=aggregator.name,
                summary=summary,
                created_at=now,
            )
            self.evictions.extend(
                self.storage.admit(partition, self.catalog, now)
            )
            created.append(partition)
            self.triggers.evaluate_summary(aggregator.name, summary, now)
        self.evictions.extend(self.storage.maintain(self.catalog, now))
        return created

    # ------------------------------------------------------------------
    # triggers (installed by applications via the controller/manager)

    def install_raw_trigger(self, trigger: RawTrigger) -> None:
        """Install a per-item trigger."""
        self.triggers.install_raw(trigger)

    def subscribe_triggers(self, sink: TriggerSink) -> None:
        """Route trigger firings to a controller."""
        self.triggers.subscribe(sink)

    # ------------------------------------------------------------------
    # local queries

    def window_summary(
        self,
        aggregator: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        now: float = 0.0,
    ) -> Tuple[Optional[DataSummary], List[str]]:
        """Combine stored partitions overlapping a window into one summary.

        Each partition used records a local access at ``now``.  Returns
        ``(summary, partition ids used)``; summary is None when no
        partition overlaps the window.
        """
        partitions = self.catalog.in_interval(aggregator, start, end)
        if not partitions:
            return None, []
        combined = combine_summaries(
            [p.summary for p in partitions], shrink=1.0
        )
        share = combined.size_bytes // len(partitions)
        for partition in partitions:
            partition.record_access(now, share, remote=False)
        return combined, [p.partition_id for p in partitions]

    def query(
        self,
        aggregator: str,
        request: QueryRequest,
        start: Optional[float] = None,
        end: Optional[float] = None,
        now: float = 0.0,
    ) -> QueryResult:
        """Answer a query from local data (live aggregator + history).

        With a time window, stored partitions overlapping it are merged
        and rebuilt into a primitive of their kind; without one, or when
        no partition overlaps the window, the live aggregator answers.
        Every touched partition's access is recorded.
        """
        live = self._aggregators.get(aggregator)
        if start is not None or end is not None:
            summary, partitions_used = self.window_summary(
                aggregator, start, end, now=now
            )
            if summary is not None:
                kind = default_registry().class_of(summary.kind)
                value = kind.from_summary(summary).query(request)
                return QueryResult(
                    value=value,
                    aggregator=aggregator,
                    partitions_used=partitions_used,
                )
            if live is None:
                raise StorageError(
                    f"no data for aggregator {aggregator!r} in window at "
                    f"{self.location.path!r}"
                )
        elif live is None:
            raise StorageError(
                f"no live aggregator {aggregator!r} at {self.location.path!r}"
            )
        value = live.primitive.query(request)
        return QueryResult(value=value, aggregator=aggregator, used_live=True)

    # ------------------------------------------------------------------
    # replicas (bought by the replication engine, moved by migration)

    def replicate_partition(
        self, partition_id: str, to_store: "DataStore", now: float = 0.0
    ) -> float:
        """Copy one partition to another store; returns the transfer
        duration.

        The replica lands in ``to_store``'s replica catalog.  When that
        store is the planner's root-side replica store, later federated
        reads of the partition are answered there instead of shipped —
        replication "buys the ski-set".
        """
        partition = self.catalog.get(partition_id)
        outgoing = partition.summary
        if self.privacy is not None:
            # Section III.C: a replica leaves the store's trust domain,
            # so it gets the policy-degraded view; local data stays full
            # fidelity
            outgoing = self.privacy.export(partition.aggregator, outgoing)
        duration = 0.0
        if self.fabric is not None:
            transfer = self.fabric.transfer(
                self.location, to_store.location, outgoing.size_bytes, now
            )
            duration = transfer.duration
        record = self.lineage.record(
            operation="replicate",
            inputs=(
                (partition.summary.meta.lineage_id,)
                if partition.summary.meta.lineage_id
                else ()
            ),
            location=to_store.location,
            timestamp=now,
            detail=partition.partition_id,
        )
        replica_summary = DataSummary(
            kind=outgoing.kind,
            meta=type(outgoing.meta)(
                interval=outgoing.meta.interval,
                location=outgoing.meta.location,
                lineage_id=record.lineage_id,
            ),
            payload=outgoing.payload,
            size_bytes=outgoing.size_bytes,
            attrs=dict(outgoing.attrs),
        )
        replica = Partition(
            partition_id=f"{partition.partition_id}@{to_store.location.path}",
            aggregator=partition.aggregator,
            summary=replica_summary,
            created_at=now,
        )
        to_store.replicas.add(replica)
        partition.replicated_to.append(to_store.location.path)
        return duration

    # ------------------------------------------------------------------
    # export up the hierarchy (Figure 5, step 3)

    def export_summaries(
        self,
        aggregator: str,
        to_store: "DataStore",
        into_aggregator: Optional[str] = None,
        now: float = 0.0,
    ) -> Optional[float]:
        """Ship a snapshot of the aggregator's open epoch to a parent.

        The receiving store merges it on arrival
        (:meth:`receive_summary`).  Returns the transfer duration, or
        None when there was nothing to export.
        """
        source = self.aggregator(aggregator)
        if source.primitive.items_ingested == 0:
            return None
        outgoing = source.primitive.summary()
        if self.privacy is not None:
            outgoing = self.privacy.export(aggregator, outgoing)
        duration = 0.0
        if self.fabric is not None:
            transfer = self.fabric.transfer(
                self.location, to_store.location, outgoing.size_bytes, now
            )
            duration = transfer.duration
        to_store.receive_summary(
            self, into_aggregator or aggregator, outgoing,
            source.primitive.items_ingested, now,
        )
        return duration

    def receive_summary(
        self,
        origin: "DataStore",
        aggregator: str,
        summary: DataSummary,
        items: int,
        now: float,
        window: Optional[Tuple[float, float]] = None,
    ) -> None:
        """Merge on arrival: land a summary ``origin`` shipped here.

        The one landing behind every child→parent forward, redelivery
        and migration: the summary combines into this store's live
        aggregator of that name.  A store that lacks the aggregator
        grows one of the same kind from empty, so the arriving payload
        — which may be the origin's retained partition — is only ever
        read.  ``window`` re-times a summary that arrives after its own
        epoch into the epoch it joins.
        """
        kind = default_registry().class_of(summary.kind)
        incoming = kind.from_summary(summary)
        incoming.items_ingested = items
        if window is not None:
            incoming._epoch_start, incoming._epoch_end = window
        target = self._aggregators.get(aggregator)
        if target is None:
            target = Aggregator(aggregator, kind.empty_like(summary))
            self.install_aggregator(target)
        target.primitive.combine(incoming)
        target.items_this_epoch += items
        if target.epoch_opened_at is None:
            target.epoch_opened_at = now
        origin.lineage.record(
            operation="export",
            location=self.location,
            timestamp=now,
            detail=f"{aggregator}->{self.location.path}",
        )
