"""Integration: privacy guards on the data store's export paths."""

import pytest

from repro.core.flowtree import FlowtreePrimitive
from repro.core.primitive import QueryRequest
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.privacy import (
    ExportRule,
    PrivacyGuard,
    PrivacyPolicy,
    PrivacyViolation,
)
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.flows.records import FlowRecord
from repro.hierarchy.network import NetworkFabric
from repro.hierarchy.topology import network_monitoring_hierarchy

PRODUCER_LOC = Location("cloud/network/region1/router1")
CONSUMER_LOC = Location("cloud/network/region2/router1")


@pytest.fixture()
def world(policy, make_key):
    hierarchy = network_monitoring_hierarchy(regions=2, routers_per_region=1)
    fabric = NetworkFabric(hierarchy)
    guard = PrivacyGuard(
        PrivacyPolicy(default=ExportRule(min_ip_prefix=16))
    )
    producer = DataStore(
        PRODUCER_LOC, RoundRobinStorage(10**8), fabric=fabric, privacy=guard
    )
    consumer = DataStore(
        CONSUMER_LOC, RoundRobinStorage(10**8), fabric=fabric
    )
    producer.install_aggregator(
        Aggregator("ft", FlowtreePrimitive(PRODUCER_LOC, policy))
    )
    for index in range(20):
        record = FlowRecord(
            key=make_key(src_ip=f"203.0.113.{index + 1}", src_port=5000 + index),
            packets=2,
            bytes=200,
            first_seen=float(index),
            last_seen=float(index) + 1,
        )
        producer.ingest("flows", record, record.first_seen)
    producer.close_epoch(60.0)
    return producer, consumer, guard, fabric


class TestReplicaDegradation:
    def test_replica_is_anonymized(self, world, make_key):
        producer, consumer, guard, _ = world
        partition = producer.catalog.all()[0]
        producer.replicate_partition(partition.partition_id, consumer, now=61.0)
        replica_tree = consumer.replicas.all()[0].summary.payload
        for node in replica_tree.nodes():
            key = replica_tree.key_of(node)
            assert key.feature_level("src_ip") <= 16
            assert key.feature_level("dst_ip") <= 16
        assert guard.audit_log

    def test_replica_answers_prefix_queries(self, world, make_key):
        producer, consumer, _, _ = world
        partition = producer.catalog.all()[0]
        producer.replicate_partition(partition.partition_id, consumer, now=61.0)
        replica_tree = consumer.replicas.all()[0].summary.payload
        assert replica_tree.total().flows == 20

    def test_local_data_stays_precise(self, world, make_key):
        producer, consumer, _, _ = world
        partition = producer.catalog.all()[0]
        producer.replicate_partition(partition.partition_id, consumer, now=61.0)
        specific = make_key(src_ip="203.0.113.1", src_port=5000)
        local = producer.query(
            "ft", QueryRequest("query", {"key": specific}),
            start=0.0, end=60.0, now=70.0,
        )
        assert local.value.bytes == 200  # the producer keeps full detail
        replica_tree = consumer.replicas.all()[0].summary.payload
        assert replica_tree.query(specific).bytes == 0  # consumer cannot

    def test_blocked_aggregator_cannot_replicate(self, world):
        producer, consumer, _, _ = world
        producer.privacy = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(shareable=False))
        )
        partition = producer.catalog.all()[0]
        with pytest.raises(PrivacyViolation):
            producer.replicate_partition(
                partition.partition_id, consumer, now=61.0
            )
        assert len(consumer.replicas) == 0


class TestExportDegradation:
    def test_upstream_export_is_anonymized(self, world, policy):
        producer, _, _, fabric = world
        parent_loc = Location("cloud/network/region1")
        parent = DataStore(parent_loc, RoundRobinStorage(10**8), fabric=fabric)
        parent.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(parent_loc, policy))
        )
        # refill the live aggregator (the fixture closed the epoch)
        from repro.flows.flowkey import FIVE_TUPLE

        record_key = FIVE_TUPLE.key(
            proto=6, src_ip="203.0.113.50", dst_ip="192.168.0.1",
            src_port=1234, dst_port=443,
        )
        producer.ingest(
            "flows",
            FlowRecord(key=record_key, packets=1, bytes=100,
                       first_seen=70.0, last_seen=71.0),
            70.0,
        )
        producer.export_summaries("ft", parent, now=80.0)
        parent_tree = parent.aggregator("ft").primitive.tree
        for node in parent_tree.nodes():
            assert parent_tree.key_of(node).feature_level("src_ip") <= 16
        assert parent_tree.total().bytes == 100
