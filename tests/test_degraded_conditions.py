"""Failure injection and degraded conditions.

The paper's Section III.C motivates lineage with "faulty or missing
data"; beyond lineage, the architecture must stay sane when streams
drop out, arrive out of order, or overload the store.  These tests pin
the behaviors down.
"""

import pytest

from repro.core.flowtree import FlowtreePrimitive
from repro.core.primitive import QueryRequest
from repro.core.sampling import RandomSamplePrimitive
from repro.core.summary import Location
from repro.core.timebin import TimeBinStatistics
from repro.datastore.aggregator import Aggregator, prefix_filter
from repro.datastore.storage import HierarchicalStorage, RoundRobinStorage
from repro.datastore.store import DataStore
from repro.flows.records import FlowRecord

LOC = Location("cloud/region1/router1")


@pytest.fixture()
def store(policy):
    store = DataStore(LOC, RoundRobinStorage(10**7))
    store.install_aggregator(
        Aggregator(
            "ft",
            FlowtreePrimitive(LOC, policy),
            stream_filter=prefix_filter("flows"),
        )
    )
    return store


class TestSensorDropout:
    def test_timebin_gaps_are_visible(self):
        """A sensor outage leaves holes in the series, not zeros —
        downstream analytics can distinguish 'no data' from 'zero'."""
        primitive = TimeBinStatistics(LOC, bin_seconds=10.0)
        for t in list(range(0, 30)) + list(range(60, 90)):
            primitive.ingest(1.0, float(t))
        series = primitive.query(QueryRequest("series", {}))
        starts = [start for start, _ in series]
        assert 30.0 not in starts and 40.0 not in starts
        assert 0.0 in starts and 60.0 in starts

    def test_idle_epoch_produces_no_partition(self, store):
        assert store.close_epoch(60.0) == []
        assert len(store.catalog) == 0

    def test_stream_resumes_after_dropout(self, store, random_flows):
        for record in random_flows(10, epoch=0):
            store.ingest("flows", record, record.first_seen)
        store.close_epoch(60.0)
        store.close_epoch(120.0)  # silent epoch
        for record in random_flows(10, seed=2, epoch=2):
            store.ingest("flows", record, record.first_seen)
        store.close_epoch(180.0)
        assert len(store.catalog) == 2
        result = store.query(
            "ft", QueryRequest("total", {}), start=0.0, end=180.0, now=190.0
        )
        assert result.value.flows == 20


class TestOutOfOrderData:
    def test_primitive_interval_tracks_min_max(self):
        sampler = RandomSamplePrimitive(LOC, rate=1.0)
        sampler.ingest(1.0, 50.0)
        sampler.ingest(1.0, 10.0)  # late arrival
        sampler.ingest(1.0, 70.0)
        interval = sampler.interval()
        assert interval.start == 10.0
        assert interval.end == 70.0

    def test_flowtree_accepts_out_of_order_records(self, policy, make_key):
        primitive = FlowtreePrimitive(LOC, policy)
        late = FlowRecord(
            key=make_key(), packets=1, bytes=100, first_seen=5.0,
            last_seen=6.0,
        )
        early = FlowRecord(
            key=make_key(src_port=2), packets=1, bytes=100, first_seen=1.0,
            last_seen=2.0,
        )
        primitive.ingest(late, late.first_seen)
        primitive.ingest(early, early.first_seen)
        assert primitive.query(QueryRequest("total", {})).flows == 2


class TestStorageOverload:
    @staticmethod
    def overload(store, policy, random_flows):
        """Ten epochs of 200 flows into one 2048-node Flowtree."""
        store.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(LOC, policy,
                                               node_budget=2048))
        )
        for epoch in range(10):
            for record in random_flows(200, seed=epoch, epoch=epoch):
                store.ingest("flows", record, record.first_seen)
            store.close_epoch((epoch + 1) * 60.0)

    def test_sustained_overload_keeps_store_bounded(self, policy,
                                                    random_flows):
        store = DataStore(LOC, RoundRobinStorage(100_000))
        self.overload(store, policy, random_flows)
        assert store.catalog.total_bytes() <= 100_000
        assert store.evictions  # old epochs were sacrificed

    def test_sustained_overload_keeps_hierarchical_store_bounded(
        self, policy, random_flows
    ):
        """One aggregator: every epoch merges into one partition, which
        alone outgrows the budget and is kept coarser."""
        store = DataStore(LOC, HierarchicalStorage(40_000))
        self.overload(store, policy, random_flows)
        assert store.catalog.total_bytes() <= 40_000
        assert len(store.catalog) < 10  # old epochs were merged

    def test_query_after_eviction_uses_what_remains(self, policy,
                                                    random_flows):
        store = DataStore(LOC, RoundRobinStorage(100_000))
        store.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(LOC, policy,
                                               node_budget=2048))
        )
        for epoch in range(10):
            for record in random_flows(200, seed=epoch, epoch=epoch):
                store.ingest("flows", record, record.first_seen)
            store.close_epoch((epoch + 1) * 60.0)
        result = store.query(
            "ft", QueryRequest("total", {}), start=0.0, end=600.0, now=610.0
        )
        # answers reflect surviving partitions only — fewer than the
        # 2000 ingested flows, but internally consistent
        surviving = sum(
            p.summary.payload.total().flows for p in store.catalog.all()
        )
        assert result.value.flows == surviving
        assert result.value.flows < 2000


class TestFederationFailures:
    def test_unsupported_operator_propagates(self, store, random_flows):
        for record in random_flows(5):
            store.ingest("flows", record, record.first_seen)
        with pytest.raises(ValueError):
            store.query("ft", QueryRequest("bogus_operator", {}))


class TestLinkOutageDuringRollup:
    """End-to-end: a link outage mid-rollup parks exports; the pending
    queue drains at the next reachable epoch close — delayed, not lost."""

    SITE = "network1/region1/router1"

    def _runtime(self):
        from repro import FaultPlan, LinkOutage, network_4level_runtime

        return network_4level_runtime(
            networks=1,
            regions_per_network=2,
            routers_per_region=1,
            retain_partitions=True,
            faults=FaultPlan(outages=[LinkOutage(self.SITE, 1, 2)]),
        )

    def _load(self, runtime, epochs):
        from repro import TrafficConfig, TrafficGenerator

        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=80), seed=23
        )
        for epoch in range(epochs):
            for site in sites:
                runtime.ingest(site, generator.epoch(site, epoch))
            runtime.close_epoch((epoch + 1) * 60.0)
        return runtime

    def test_outage_parks_export_in_pending_queue(self):
        runtime = self._load(self._runtime(), epochs=1)
        assert runtime.pending_exports() == 1
        queue = runtime.exports.queue_for(runtime.store_for(self.SITE))
        assert len(queue) == 1
        assert runtime.stats.exports_parked == 1
        assert runtime.stats.exports_recovered == 0

    def test_pending_queue_drains_next_epoch_close(self):
        runtime = self._load(self._runtime(), epochs=2)
        # the t=120 close falls outside the outage window: the parked
        # export redelivers before the fresh rollup
        assert runtime.pending_exports() == 0
        assert runtime.stats.exports_recovered == 1
        # nothing was lost: the recovered mass shows up at the root
        from repro import network_4level_runtime

        runtime.inject_faults(None)
        total = runtime.query("SELECT TOTAL FROM ALL").scalar
        clean = self._load(
            network_4level_runtime(
                networks=1,
                regions_per_network=2,
                routers_per_region=1,
                retain_partitions=True,
            ),
            epochs=2,
        )
        assert total == clean.query("SELECT TOTAL FROM ALL").scalar

    def test_degraded_query_lists_exact_missing_sites(self):
        from repro import FaultPlan, LinkOutage

        runtime = self._load(self._runtime(), epochs=2)
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage(self.SITE, 0, 10**9)])
        )
        outcome = runtime.query(
            "SELECT TOTAL FROM ALL "
            f"AT {self.SITE}, network1/region2/router1"
        )
        assert outcome.is_degraded
        assert outcome.missing_sites == [self.SITE]
        assert outcome.scalar.flows > 0  # the reachable site answered


class TestDiffRobustness:
    def test_diff_against_empty_baseline(self, policy, random_flows):
        from repro.flows.tree import Flowtree

        loaded = Flowtree(policy, node_budget=None)
        loaded.ingest(random_flows(20))
        empty = Flowtree(policy, node_budget=None)
        delta = loaded.diff(empty)
        assert delta.total() == loaded.total()
        reverse = empty.diff(loaded)
        assert reverse.total() == -loaded.total()
