"""Tests for the data store: ingest, epochs, queries, federation."""

import pytest

from repro.core.flowtree import FlowtreePrimitive
from repro.core.primitive import QueryRequest
from repro.core.summary import Location, TimeInterval
from repro.core.timebin import TimeBinStatistics
from repro.datastore.aggregator import Aggregator, prefix_filter
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.datastore.triggers import RawTrigger, SummaryTrigger
from repro.errors import (
    FlowQLPlanningError,
    SchemaMismatchError,
    StorageError,
)
from repro.hierarchy.network import NetworkFabric
from repro.hierarchy.topology import network_monitoring_hierarchy
from tests.test_query_planner import loaded_runtime

LOC1 = Location("cloud/network/region1/router1")
LOC2 = Location("cloud/network/region2/router1")


@pytest.fixture()
def fabric():
    return NetworkFabric(
        network_monitoring_hierarchy(regions=2, routers_per_region=1)
    )


@pytest.fixture()
def store(fabric):
    return DataStore(LOC1, RoundRobinStorage(10**7), fabric=fabric)


@pytest.fixture()
def flow_store(store, policy):
    store.install_aggregator(
        Aggregator("ft", FlowtreePrimitive(LOC1, policy, node_budget=1024))
    )
    return store


def fill_epochs(store, random_flows, epochs=3, per_epoch=100):
    for epoch in range(epochs):
        for record in random_flows(per_epoch, seed=epoch, epoch=epoch):
            store.ingest("flows", record, record.first_seen, size_bytes=48)
        store.close_epoch((epoch + 1) * 60.0)


class TestAggregators:
    def test_install_and_duplicate(self, store, policy):
        store.install_aggregator(
            Aggregator("a", FlowtreePrimitive(LOC1, policy))
        )
        with pytest.raises(StorageError):
            store.install_aggregator(
                Aggregator("a", FlowtreePrimitive(LOC1, policy))
            )

    def test_remove(self, store, policy):
        store.install_aggregator(
            Aggregator("a", FlowtreePrimitive(LOC1, policy))
        )
        store.remove_aggregator("a")
        with pytest.raises(StorageError):
            store.aggregator("a")
        with pytest.raises(StorageError):
            store.remove_aggregator("a")

    def test_stream_routing(self, store):
        vibration = Aggregator(
            "vib",
            TimeBinStatistics(LOC1, bin_seconds=1.0),
            stream_filter=prefix_filter("machine1/vibration"),
        )
        temperature = Aggregator(
            "temp",
            TimeBinStatistics(LOC1, bin_seconds=1.0),
            stream_filter=prefix_filter("machine1/temperature"),
        )
        store.install_aggregator(vibration)
        store.install_aggregator(temperature)
        store.ingest("machine1/vibration", 2.0, 0.5)
        store.ingest("machine1/vibration", 2.1, 0.6)
        store.ingest("machine1/temperature", 45.0, 0.5)
        assert vibration.items_this_epoch == 2
        assert temperature.items_this_epoch == 1

    def test_item_projection(self, store):
        class Reading:
            value = 7.5

        aggregator = Aggregator(
            "x",
            TimeBinStatistics(LOC1),
            item_of=lambda reading: reading.value,
        )
        store.install_aggregator(aggregator)
        store.ingest("s", Reading(), 0.0)
        stats = aggregator.primitive.query(QueryRequest("stats", {}))
        assert stats.mean == 7.5


class TestRejectedIngest:
    """One item and a batch reach an aggregator the same way, so a
    refused one of either shape leaves no trace in it."""

    @pytest.mark.parametrize("shape", ["one item", "batch"])
    def test_refused_ingest_leaves_no_trace(
        self, flow_store, random_flows, shape
    ):
        aggregator = flow_store.aggregator("ft")
        primitive = aggregator.primitive
        with pytest.raises(SchemaMismatchError):
            if shape == "one item":
                flow_store.ingest("flows", "junk", 5.0)
            else:
                good = random_flows(3)[0]
                flow_store.ingest(
                    "flows", [(good, good.first_seen), ("junk", 5.0)]
                )
        assert primitive.items_ingested == 0
        assert primitive.interval() == TimeInterval(0.0, 0.0)
        assert primitive.tree.node_count == 1
        assert aggregator.items_this_epoch == 0
        assert aggregator.epoch_opened_at is None


class TestEpochs:
    def test_close_creates_partitions(self, flow_store, random_flows):
        fill_epochs(flow_store, random_flows, epochs=2)
        assert len(flow_store.catalog) == 2
        partitions = flow_store.catalog.for_aggregator("ft")
        assert partitions[0].summary.kind == "flowtree"
        assert partitions[0].summary.meta.lineage_id is not None

    def test_idle_aggregators_skip_partitions(self, flow_store):
        created = flow_store.close_epoch(60.0)
        assert created == []

    def test_lineage_recorded(self, flow_store, random_flows):
        fill_epochs(flow_store, random_flows, epochs=1)
        partition = flow_store.catalog.all()[0]
        record = flow_store.lineage.get(partition.summary.meta.lineage_id)
        assert record.operation == "aggregate"
        assert record.location == LOC1


class TestTriggers:
    def test_raw_trigger_on_ingest(self, flow_store, make_key, random_flows):
        fired = []
        flow_store.install_raw_trigger(
            RawTrigger("big-flow", predicate=lambda r: r.bytes > 10**9)
        )
        flow_store.subscribe_triggers(fired.append)
        from repro.flows.records import FlowRecord

        small = FlowRecord(
            key=make_key(), packets=1, bytes=100, first_seen=0, last_seen=1
        )
        big = FlowRecord(
            key=make_key(), packets=1, bytes=2 * 10**9, first_seen=0,
            last_seen=1,
        )
        flow_store.ingest("flows", small, 0.0)
        flow_store.ingest("flows", big, 1.0)
        assert len(fired) == 1
        assert fired[0].trigger_id == "big-flow"

    def test_summary_trigger_on_epoch(self, flow_store, random_flows):
        fired = []
        flow_store.triggers.install_summary(
            SummaryTrigger(
                "any-traffic",
                predicate=lambda s: s.payload.total().flows > 0,
                aggregator="ft",
            )
        )
        flow_store.subscribe_triggers(fired.append)
        fill_epochs(flow_store, random_flows, epochs=1)
        assert len(fired) == 1


class TestQueries:
    def test_live_query(self, flow_store, random_flows):
        for record in random_flows(50):
            flow_store.ingest("flows", record, record.first_seen)
        result = flow_store.query("ft", QueryRequest("total", {}))
        assert result.used_live
        assert result.value.flows == 50

    def test_window_query_merges_partitions(self, flow_store, random_flows):
        fill_epochs(flow_store, random_flows, epochs=3)
        result = flow_store.query(
            "ft", QueryRequest("total", {}), start=0.0, end=120.0, now=200.0
        )
        assert result.value.flows == 200
        assert len(result.partitions_used) == 2

    def test_window_query_records_accesses(self, flow_store, random_flows):
        fill_epochs(flow_store, random_flows, epochs=2)
        flow_store.query(
            "ft", QueryRequest("total", {}), start=0.0, end=120.0, now=130.0
        )
        for partition in flow_store.catalog.all():
            assert len(partition.accesses) == 1
            assert not partition.accesses[0].remote

    def test_query_unknown_aggregator(self, store):
        with pytest.raises(StorageError):
            store.query("nope", QueryRequest("total", {}))

    def test_window_without_data_falls_back_to_live(
        self, flow_store, random_flows
    ):
        for record in random_flows(10):
            flow_store.ingest("flows", record, record.first_seen)
        result = flow_store.query(
            "ft", QueryRequest("total", {}), start=0.0, end=60.0, now=60.0
        )
        assert result.used_live
        assert result.value.flows == 10


class TestFederation:
    """A store answers only from its own data; reading it on another
    store's behalf is the planner's job."""

    ROUTER1 = "network1/region1/router1"

    def test_remote_query_ships_result(self):
        runtime = loaded_runtime(epochs=1)
        runtime.planner.invalidate_cache()
        moved = runtime.total_network_bytes()
        outcome = runtime.query(
            f"SELECT TOTAL FROM TIME(0, 60) AT {self.ROUTER1}"
        )
        assert outcome.plan.shipped_bytes > 0
        assert runtime.total_network_bytes() > moved
        # the producer recorded one remote access per partition read
        partition = runtime.store_for(self.ROUTER1).catalog.all()[0]
        assert sum(a.remote for a in partition.accesses) == 1

    def test_replica_serves_locally(self):
        """An application's drilldown of a replicated partition is read
        on the replica, with no fabric traffic."""
        runtime = loaded_runtime(epochs=1)
        planner = runtime.planner
        shipped = planner.window_tree(self.ROUTER1, 0.0, 60.0)
        store = runtime.store_for(self.ROUTER1)
        for partition in store.catalog.all():
            store.replicate_partition(
                partition.partition_id, planner.replica_store, now=65.0
            )
        moved = runtime.total_network_bytes()
        local = planner.window_tree(self.ROUTER1, 0.0, 60.0)
        assert local.total() == shipped.total()
        assert runtime.total_network_bytes() == moved  # no WAN traffic

    def test_replication_lineage(self, fabric, policy, random_flows):
        s1 = DataStore(LOC1, RoundRobinStorage(10**7), fabric=fabric)
        s2 = DataStore(LOC2, RoundRobinStorage(10**7), fabric=fabric)
        s2.install_aggregator(
            Aggregator("ft2", FlowtreePrimitive(LOC2, policy))
        )
        for record in random_flows(10):
            s2.ingest("flows", record, record.first_seen)
        s2.close_epoch(60.0)
        partition = s2.catalog.all()[0]
        s2.replicate_partition(partition.partition_id, s1, now=61.0)
        assert partition.replicated_to == [LOC1.path]
        replica = s1.replicas.all()[0]
        record = s2.lineage.get(replica.summary.meta.lineage_id)
        assert record.operation == "replicate"

    def test_federated_unknown_everywhere(self):
        runtime = loaded_runtime(epochs=1)
        with pytest.raises(FlowQLPlanningError):
            runtime.query("SELECT TOTAL FROM ALL AT network1/region9")


class TestCompositeQueries:
    def test_composite_mixes_live_and_history(self, flow_store,
                                              random_flows):
        fill_epochs(flow_store, random_flows, epochs=2)
        for record in random_flows(10, seed=99, epoch=2):
            flow_store.ingest("flows", record, record.first_seen)
        result = flow_store.query(
            "ft", QueryRequest("total", {}), start=0.0, end=120.0, now=130.0
        )
        assert result.value.flows == 200


class TestExport:
    def test_export_combines_into_parent(self, fabric, policy, random_flows):
        child = DataStore(LOC1, RoundRobinStorage(10**7), fabric=fabric)
        parent_loc = Location("cloud/network/region1")
        parent = DataStore(parent_loc, RoundRobinStorage(10**7), fabric=fabric)
        child.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(LOC1, policy))
        )
        parent.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(parent_loc, policy))
        )
        for record in random_flows(30):
            child.ingest("flows", record, record.first_seen)
        duration = child.export_summaries("ft", parent, now=60.0)
        assert duration is not None and duration > 0
        total = parent.aggregator("ft").primitive.query(
            QueryRequest("total", {})
        )
        assert total.flows == 30

    def test_export_nothing_when_idle(self, fabric, policy):
        child = DataStore(LOC1, RoundRobinStorage(10**7), fabric=fabric)
        parent = DataStore(
            Location("cloud/network/region1"),
            RoundRobinStorage(10**7),
            fabric=fabric,
        )
        child.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(LOC1, policy))
        )
        assert child.export_summaries("ft", parent, now=1.0) is None
