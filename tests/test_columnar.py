"""Differential tests for columnar batches and the vectorized walk.

The contract under test is bit-exactness: encoding records columnar and
ingesting them through :meth:`Flowtree.ingest_columnar` must produce
*the same tree* — node for node, compression for compression — as the
scalar ``add_many`` over the same records in the same order, for any
budget and any interleaving of chunk boundaries.
"""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaMismatchError
from repro.flows.columnar import (
    HAVE_NUMPY,
    ColumnarBatch,
    ColumnarEncodeError,
)
from repro.flows.features import Feature
from repro.flows.flowkey import FIVE_TUPLE, FeatureSchema, GeneralizationPolicy
from repro.flows.records import FlowRecord, PacketRecord
from repro.flows.tree import Flowtree

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="columnar batches need numpy"
)

SCHEMA = FeatureSchema(
    "columnar_pair", (Feature("hi", bits=8), Feature("lo", bits=8))
)
POLICY = GeneralizationPolicy.default_for(SCHEMA)


def make_records(
    count: int, seed: int, alphabet: int = 40
) -> List[FlowRecord]:
    """Deterministic records over a small key alphabet (forces dups)."""
    rng = random.Random(seed)
    records = []
    for i in range(count):
        key = SCHEMA.key(
            hi=rng.randrange(min(alphabet, 256)),
            lo=rng.randrange(min(alphabet, 256)),
        )
        packets = rng.randrange(1, 50)
        records.append(
            FlowRecord(
                key=key,
                packets=packets,
                bytes=packets * rng.randrange(64, 1500),
                first_seen=float(i),
                last_seen=float(i) + rng.uniform(0, 9),
            )
        )
    return records


def tree_state(tree: Flowtree):
    return (tree.to_dict(), tree.compressions)


class TestEncodeDecode:
    @given(
        count=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, count, seed):
        records = make_records(count, seed)
        batch = ColumnarBatch.encode(records, SCHEMA)
        assert len(batch) == count
        assert batch.decode(SCHEMA) == records

    def test_five_tuple_round_trip(self, random_flows):
        records = random_flows(count=150, seed=3)
        batch = ColumnarBatch.encode(records, FIVE_TUPLE)
        assert batch.decode(FIVE_TUPLE) == records

    def test_pack_unpack_round_trip(self):
        records = make_records(90, seed=11)
        batch = ColumnarBatch.encode(records, SCHEMA)
        buf = bytearray(ColumnarBatch.packed_nbytes(128, batch.arity))
        written = batch.pack_into(buf)
        assert written <= len(buf)
        clone = ColumnarBatch.unpack_from(SCHEMA.name, buf)
        assert clone.decode(SCHEMA) == records

    def test_rejects_packet_records(self, make_key):
        packet = PacketRecord(key=make_key(), bytes=64, timestamp=0.0)
        with pytest.raises(ColumnarEncodeError):
            ColumnarBatch.encode([packet], FIVE_TUPLE)

    def test_rejects_generalized_keys(self):
        record = make_records(1, seed=0)[0]
        general = FlowRecord(
            key=record.key.generalize("hi", 4),
            packets=1,
            bytes=100,
            first_seen=0.0,
            last_seen=0.0,
        )
        with pytest.raises(ColumnarEncodeError):
            ColumnarBatch.encode([general], SCHEMA)

    def test_rejects_oversized_counters(self):
        record = make_records(1, seed=0)[0]
        huge = FlowRecord(
            key=record.key,
            packets=1,
            bytes=2**70,  # unbounded python int; int64 would wrap
            first_seen=0.0,
            last_seen=0.0,
        )
        with pytest.raises(ColumnarEncodeError):
            ColumnarBatch.encode([huge], SCHEMA)

    def test_schema_mismatch(self):
        batch = ColumnarBatch.encode(make_records(5, seed=1), SCHEMA)
        with pytest.raises(SchemaMismatchError):
            batch.decode(FIVE_TUPLE)


class TestVectorizedIngestDifferential:
    @given(
        count=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**20),
        alphabet=st.sampled_from([6, 25, 120]),
        budget=st.sampled_from([None, 24, 64, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_bit_for_bit(self, count, seed, alphabet, budget):
        records = make_records(count, seed, alphabet=alphabet)
        scalar = Flowtree(POLICY, node_budget=budget)
        scalar.add_many((r.key, r.score()) for r in records)
        vectorized = Flowtree(POLICY, node_budget=budget)
        vectorized.ingest_columnar(ColumnarBatch.encode(records, SCHEMA))
        assert tree_state(vectorized) == tree_state(scalar)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        split=st.integers(min_value=1, max_value=299),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunked_finalize_matches_one_batch(self, seed, split):
        """Slot-sized chunks of one logical batch compress identically."""
        records = make_records(300, seed, alphabet=30)
        scalar = Flowtree(POLICY, node_budget=48)
        scalar.add_many((r.key, r.score()) for r in records)
        chunked = Flowtree(POLICY, node_budget=48)
        chunked.ingest_columnar(
            ColumnarBatch.encode(records[:split], SCHEMA), finalize=False
        )
        chunked.ingest_columnar(
            ColumnarBatch.encode(records[split:], SCHEMA), finalize=True
        )
        assert tree_state(chunked) == tree_state(scalar)

    def test_five_tuple_traffic_matches_scalar(self, traffic_generator):
        policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
        records = traffic_generator.epoch("region1/router1", 0)
        for budget in (None, 512):
            scalar = Flowtree(policy, node_budget=budget)
            scalar.add_many((r.key, r.score()) for r in records)
            vectorized = Flowtree(policy, node_budget=budget)
            vectorized.ingest_columnar(
                ColumnarBatch.encode(records, FIVE_TUPLE)
            )
            assert tree_state(vectorized) == tree_state(scalar)

    def test_empty_batch_is_noop(self):
        tree = Flowtree(POLICY, node_budget=64)
        assert tree.ingest_columnar(ColumnarBatch.encode([], SCHEMA)) == 0
        assert tree.node_count == 1


class LowBitsFeature(Feature):
    """A feature with custom masking (keeps *low* bits, not high)."""

    def mask(self, value: int, level: int) -> int:
        if level == 0:
            return 0
        return value & ((1 << level) - 1)


class TestCustomMaskFallback:
    def test_falls_back_to_scalar_closures(self):
        schema = FeatureSchema(
            "custom_mask_pair",
            (LowBitsFeature("a", bits=8), Feature("b", bits=8)),
        )
        policy = GeneralizationPolicy.default_for(schema)
        assert policy.bitmask_rows() is None
        rng = random.Random(9)
        records = [
            FlowRecord(
                key=schema.key(a=rng.randrange(32), b=rng.randrange(32)),
                packets=1,
                bytes=rng.randrange(64, 1500),
                first_seen=float(i),
                last_seen=float(i),
            )
            for i in range(200)
        ]
        scalar = Flowtree(policy, node_budget=64)
        scalar.add_many((r.key, r.score()) for r in records)
        fallback = Flowtree(policy, node_budget=64)
        fallback.ingest_columnar(ColumnarBatch.encode(records, schema))
        assert tree_state(fallback) == tree_state(scalar)
