"""Unit tests for the hierarchical-heavy-hitter primitive."""

import pytest

from repro.core.hhh_primitive import HierarchicalHeavyHitterPrimitive
from repro.core.primitive import AdaptationFeedback, QueryRequest
from repro.core.summary import Location
from repro.errors import SchemaMismatchError
from repro.flows.flowkey import SRC_DST, GeneralizationPolicy
from repro.flows.records import FlowRecord

LOC = Location("net/region1/router1")


def flow(make_key, src_ip, bytes=1000, dst_port=443):
    return FlowRecord(
        key=make_key(src_ip=src_ip, dst_port=dst_port),
        packets=1,
        bytes=bytes,
        first_seen=0.0,
        last_seen=1.0,
    )


@pytest.fixture()
def primitive(policy):
    return HierarchicalHeavyHitterPrimitive(
        LOC, policy, capacity_per_level=64
    )


class TestIngestAndQuery:
    def test_count_per_depth(self, primitive, policy, make_key):
        record = flow(make_key, "10.0.0.1", bytes=500)
        primitive.ingest(record, 0.0)
        # the exact key is countable
        assert primitive.query(
            QueryRequest("count", {"key": record.key})
        ) == 500
        # and so is its /8 generalization (on-chain depth 1)
        prefix = policy.key_at(record.key, 1)
        assert primitive.query(QueryRequest("count", {"key": prefix})) == 500

    def test_off_chain_count_rejected(self, primitive, make_key):
        off = make_key(levels=(8, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            primitive.query(QueryRequest("count", {"key": off}))

    def test_top_k_at_depth(self, primitive, make_key):
        primitive.ingest(flow(make_key, "10.0.0.1", bytes=900), 0.0)
        primitive.ingest(flow(make_key, "11.0.0.1", bytes=100), 0.0)
        top = primitive.query(QueryRequest("top_k", {"k": 1, "depth": 1}))
        assert len(top) == 1
        key, weight = top[0]
        assert weight == 900
        assert key.feature_level("src_ip") == 8

    def test_hhh_finds_distributed_prefix(self, primitive, make_key):
        # 30 small flows inside 10/8, each individually under threshold
        for i in range(30):
            primitive.ingest(
                flow(make_key, f"10.{i}.0.1", bytes=100), 0.0
            )
        results = primitive.query(QueryRequest("hhh", {"threshold": 2000}))
        assert results, "expected a hierarchical heavy hitter"
        key, weight = results[0]
        assert key.feature_level("src_ip") <= 8
        assert weight >= 2000

    def test_hhh_discounts(self, primitive, make_key):
        # one huge leaf: ancestors must not be re-reported
        primitive.ingest(flow(make_key, "10.0.0.1", bytes=10_000), 0.0)
        results = primitive.query(QueryRequest("hhh", {"threshold": 5000}))
        assert len(results) == 1

    def test_unknown_operator(self, primitive):
        with pytest.raises(ValueError):
            primitive.query(QueryRequest("nope", {}))


class TestLifecycle:
    def test_combine(self, policy, make_key):
        a = HierarchicalHeavyHitterPrimitive(LOC, policy, 32)
        b = HierarchicalHeavyHitterPrimitive(LOC, policy, 32)
        record = flow(make_key, "10.0.0.1", bytes=100)
        a.ingest(record, 0.0)
        b.ingest(record, 0.5)
        a.combine(b)
        assert a.query(QueryRequest("count", {"key": record.key})) == 200

    def test_combine_policy_mismatch(self, policy, make_key):
        a = HierarchicalHeavyHitterPrimitive(LOC, policy, 32)
        other_policy = GeneralizationPolicy.default_for(SRC_DST)
        b = HierarchicalHeavyHitterPrimitive(LOC, other_policy, 32)
        record = flow(make_key, "10.0.0.1")
        a.ingest(record, 0.0)
        b.items_ingested = 1  # force the meta path to reach policy check
        b._epoch_start, b._epoch_end = 0.0, 1.0
        with pytest.raises(SchemaMismatchError):
            a.combine(b)

    def test_granularity_resizes_all_levels(self, primitive):
        primitive.set_granularity(16)
        assert all(
            sketch.capacity == 16 for sketch in primitive._sketches.values()
        )

    def test_adapt(self, primitive):
        primitive.adapt(AdaptationFeedback(storage_pressure=0.9))
        assert primitive.capacity_per_level == 32

    def test_reset_epoch(self, primitive, make_key):
        primitive.ingest(flow(make_key, "10.0.0.1"), 0.0)
        summary = primitive.reset_epoch()
        assert summary.kind == "hhh"
        assert primitive.query(QueryRequest("hhh", {"threshold": 1})) == []

    def test_domain_knowledge_flag(self, primitive):
        assert primitive.uses_domain_knowledge is True

    def test_footprint(self, primitive, policy):
        assert primitive.footprint_bytes() >= 32 * (policy.depth + 1)
