"""Tests for partitions, the three storage strategies, and recombination."""

import pytest

from repro.core.summary import DataSummary, Location, SummaryMeta, TimeInterval
from repro.datastore.partitions import Partition, PartitionCatalog
from repro.datastore.recombine import combine_summaries
from repro.datastore.storage import (
    ExpirationStorage,
    HierarchicalStorage,
    RoundRobinStorage,
)
from repro.errors import PartitionNotFoundError, StorageError
from repro.flows.records import Score
from repro.flows.tree import Flowtree

LOC = Location("cloud/region1/router1")


def make_partition(
    index: int,
    size: int = 1000,
    aggregator: str = "agg",
    created_at: float = None,
):
    created = created_at if created_at is not None else float(index * 60)
    summary = DataSummary(
        kind="sample",
        meta=SummaryMeta(
            TimeInterval(created, created + 60.0), LOC
        ),
        payload=[],
        size_bytes=size,
        attrs={"rate": 1.0},
    )
    return Partition(
        partition_id=f"{aggregator}-{index}",
        aggregator=aggregator,
        summary=summary,
        created_at=created,
    )


def flowtree_partition(policy, index, flows, aggregator="ft"):
    tree = Flowtree(policy, node_budget=None)
    tree.ingest(flows)
    created = float(index * 60)
    summary = DataSummary(
        kind="flowtree",
        meta=SummaryMeta(TimeInterval(created, created + 60.0), LOC),
        payload=tree,
        size_bytes=tree.estimated_size_bytes(),
        attrs={"nodes": tree.node_count},
    )
    return Partition(
        partition_id=f"{aggregator}-{index}",
        aggregator=aggregator,
        summary=summary,
        created_at=created,
    )


class TestCatalog:
    def test_add_get_remove(self):
        catalog = PartitionCatalog()
        partition = make_partition(0)
        catalog.add(partition)
        assert catalog.get(partition.partition_id) is partition
        assert partition.partition_id in catalog
        removed = catalog.remove(partition.partition_id)
        assert removed is partition
        with pytest.raises(PartitionNotFoundError):
            catalog.get(partition.partition_id)

    def test_oldest_first_by_created_at(self):
        catalog = PartitionCatalog()
        catalog.add(make_partition(5))
        catalog.add(make_partition(1))
        catalog.add(make_partition(3))
        assert [p.created_at for p in catalog.all()] == [60.0, 180.0, 300.0]

    def test_in_interval(self):
        catalog = PartitionCatalog()
        for i in range(5):
            catalog.add(make_partition(i))
        window = catalog.in_interval("agg", start=90.0, end=200.0)
        assert [p.partition_id for p in window] == ["agg-1", "agg-2", "agg-3"]

    def test_for_aggregator(self):
        catalog = PartitionCatalog()
        catalog.add(make_partition(0, aggregator="a"))
        catalog.add(make_partition(1, aggregator="b"))
        assert len(catalog.for_aggregator("a")) == 1

    def test_access_recording(self):
        partition = make_partition(0)
        partition.record_access(10.0, 500, remote=True)
        partition.record_access(20.0, 300, remote=False)
        assert partition.remote_bytes_served() == 500
        assert partition.remote_access_count() == 1


class TestExpiration:
    def test_expires_by_age(self):
        storage = ExpirationStorage(ttl_seconds=120.0)
        catalog = PartitionCatalog()
        evicted = []
        for i in range(4):
            evicted += storage.admit(make_partition(i), catalog, now=float(i * 60))
        # admits at t=120/t=180 already purge partitions aged >= 120 s
        assert {p.partition_id for p in evicted} == {"agg-0", "agg-1"}
        evicted += storage.maintain(catalog, now=300.0)
        assert {p.partition_id for p in evicted} == {
            "agg-0", "agg-1", "agg-2", "agg-3",
        }
        assert all(300.0 - p.created_at < 120.0 for p in catalog.all())

    def test_invalid_ttl(self):
        with pytest.raises(StorageError):
            ExpirationStorage(0)

    def test_no_pressure(self):
        storage = ExpirationStorage(60.0)
        assert storage.pressure(PartitionCatalog()) == 0.0


class TestRoundRobin:
    def test_evicts_oldest_over_budget(self):
        storage = RoundRobinStorage(budget_bytes=2500)
        catalog = PartitionCatalog()
        evicted = []
        for i in range(4):
            evicted += storage.admit(
                make_partition(i, size=1000), catalog, now=float(i)
            )
        assert len(catalog) == 2
        assert [p.partition_id for p in evicted] == ["agg-0", "agg-1"]

    def test_keeps_at_least_one(self):
        storage = RoundRobinStorage(budget_bytes=10)
        catalog = PartitionCatalog()
        storage.admit(make_partition(0, size=1000), catalog, now=0.0)
        assert len(catalog) == 1

    def test_pressure(self):
        storage = RoundRobinStorage(budget_bytes=2000)
        catalog = PartitionCatalog()
        storage.admit(make_partition(0, size=1000), catalog, now=0.0)
        assert storage.pressure(catalog) == 0.5


class TestHierarchical:
    def test_compacts_instead_of_dropping(self, policy, random_flows):
        storage = HierarchicalStorage(
            budget_bytes=30_000, merge_group=2, shrink=0.4
        )
        catalog = PartitionCatalog()
        for i in range(6):
            partition = flowtree_partition(
                policy, i, random_flows(60, seed=i, epoch=i)
            )
            storage.admit(partition, catalog, now=float(i * 60))
        assert storage.compactions > 0
        # either the budget is met, or everything has been folded into a
        # single partition that cannot shrink further (never dropped)
        assert catalog.total_bytes() <= 30_000 or len(catalog) == 1
        # history is never dropped outright: total mass is preserved
        total = Score.zero()
        for partition in catalog.all():
            total = total + partition.summary.payload.total()
        expected = Score.zero()
        for i in range(6):
            for record in random_flows(60, seed=i, epoch=i):
                expected = expected + record.score()
        assert total == expected

    def test_compacted_interval_spans_inputs(self, policy, random_flows):
        storage = HierarchicalStorage(
            budget_bytes=15_000, merge_group=4, shrink=0.3
        )
        catalog = PartitionCatalog()
        for i in range(8):
            storage.admit(
                flowtree_partition(policy, i, random_flows(50, seed=i, epoch=i)),
                catalog,
                now=float(i * 60),
            )
        oldest = catalog.all()[0]
        assert oldest.summary.meta.interval.duration > 60.0

    def test_validation(self):
        with pytest.raises(StorageError):
            HierarchicalStorage(0)
        with pytest.raises(StorageError):
            HierarchicalStorage(100, merge_group=1)
        with pytest.raises(StorageError):
            HierarchicalStorage(100, shrink=1.0)


class TestRecombine:
    def test_mixed_kinds_rejected(self, policy, random_flows):
        a = flowtree_partition(policy, 0, random_flows(5)).summary
        b = make_partition(1).summary
        with pytest.raises(StorageError):
            combine_summaries([a, b])

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            combine_summaries([])

    def test_flowtree_combiner_merges_and_shrinks(self, policy, random_flows):
        a = flowtree_partition(policy, 0, random_flows(80, seed=1)).summary
        b = flowtree_partition(policy, 1, random_flows(80, seed=2)).summary
        combined = combine_summaries([a, b], shrink=0.3)
        assert combined.kind == "flowtree"
        assert combined.payload.total() == (
            a.payload.total() + b.payload.total()
        )
        assert combined.payload.node_count < (
            a.payload.node_count + b.payload.node_count
        )

    def test_flowtree_combiner_no_shrink(self, policy, random_flows):
        a = flowtree_partition(policy, 0, random_flows(40, seed=1)).summary
        combined = combine_summaries([a], shrink=1.0)
        assert combined.payload.total() == a.payload.total()

    def test_unknown_kind(self):
        bad = DataSummary(
            kind="mystery",
            meta=SummaryMeta(TimeInterval(0, 1), LOC),
            payload=None,
            size_bytes=0,
        )
        with pytest.raises(StorageError):
            combine_summaries([bad])
