"""Hypothesis property: to_dict/from_dict is the identity on Flowtrees.

The segment log persists every sealed tree through this codec (its
columns, zlib'd by ``encode_tree``; the round trip here goes through
``encode_tree`` / ``decode_tree`` as a stored tree does), so the
round-trip must be exact for every tree shape the runtime produces:
uncompressed trees, trees past one or many compression checkpoints
(small node budgets), every popularity metric, and empty trees.
"Exact" is checked two ways — the canonical ``to_dict`` form is stable
under a round trip, and the query surface (totals, point queries with
bounds, drilldown, hierarchical heavy hitters) answers identically.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.flowtree import FlowtreePrimitive
from repro.core.summary import Location
from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.records import FlowRecord, Score
from repro.flows.tree import Flowtree
from repro.storage.codec import decode_tree, encode_tree

POLICY = GeneralizationPolicy.default_for(FIVE_TUPLE)

# a small key universe so prefixes collide and folds actually happen
def small_key(proto, s, d, sp, dp):
    return FIVE_TUPLE.key(
        proto=proto,
        src_ip=(10 << 24) | s,
        dst_ip=(192 << 24) | d,
        src_port=sp,
        dst_port=dp,
    )


key_strategy = st.builds(
    small_key,
    proto=st.sampled_from([6, 17]),
    s=st.integers(min_value=0, max_value=2**12),
    d=st.integers(min_value=0, max_value=63),
    sp=st.integers(min_value=1024, max_value=1040),
    dp=st.sampled_from([80, 443, 53]),
)

score_strategy = st.builds(
    Score,
    packets=st.integers(min_value=1, max_value=1000),
    bytes=st.integers(min_value=1, max_value=10**6),
    flows=st.integers(min_value=0, max_value=10),
)

inserts_strategy = st.lists(
    st.tuples(key_strategy, score_strategy), min_size=0, max_size=60
)

#: None = never compress; small budgets force compression checkpoints
#: (the floor is policy depth + 1 = 14, one root-to-leaf chain)
budget_strategy = st.sampled_from([None, 16, 32, 64])
metric_strategy = st.sampled_from(["bytes", "packets", "flows"])


def build_tree(inserts, budget, metric="bytes"):
    tree = Flowtree(POLICY, node_budget=budget, metric=metric)
    for key, score in inserts:
        tree.add(key, score)
    return tree


def canonical(tree):
    return json.dumps(tree.to_dict(), sort_keys=True)


def roundtrip(tree):
    return decode_tree(encode_tree(tree), POLICY)


@settings(max_examples=60, deadline=None)
@given(inserts=inserts_strategy, budget=budget_strategy,
       metric=metric_strategy)
def test_to_dict_stable_under_roundtrip(inserts, budget, metric):
    tree = build_tree(inserts, budget, metric)
    clone = roundtrip(tree)
    assert canonical(clone) == canonical(tree)
    # and idempotent: a second trip changes nothing
    assert canonical(roundtrip(clone)) == canonical(tree)


@settings(max_examples=60, deadline=None)
@given(inserts=inserts_strategy, budget=budget_strategy)
def test_query_surface_identical(inserts, budget):
    tree = build_tree(inserts, budget)
    clone = roundtrip(tree)
    assert clone.node_count == tree.node_count
    assert clone.metric == tree.metric
    assert clone.node_budget == tree.node_budget
    for key, _score in inserts[:10]:
        assert tree.query_with_bound(key) == clone.query_with_bound(key)
        assert tree.drilldown(key) == clone.drilldown(key)


@settings(max_examples=40, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(key_strategy, score_strategy),
        min_size=30,
        max_size=60,
        unique_by=lambda pair: pair[0].values,
    ),
    metric=metric_strategy,
)
def test_compressed_tree_roundtrips(inserts, metric):
    """Trees past compression checkpoints survive the codec too."""
    tree = build_tree(inserts, budget=16, metric=metric)
    assert tree.compressions >= 1  # the budget forced at least one fold
    clone = roundtrip(tree)
    assert canonical(clone) == canonical(tree)
    # hierarchical heavy hitters — the fold-sensitive query — agree
    threshold = max(1, sum(s.metric(metric) for _, s in inserts) // 4)
    assert tree.hhh(threshold) == clone.hhh(threshold)


#: thirteen unit-weight inserts whose merge ties at the fold line: a
#: tie-break that reads anything ``to_dict`` forgets (creation rank, say)
#: folds different tied leaves in the live and in the recovered merge
TIED_INSERTS = [
    (small_key(6, s, d, 1024, 80), Score(packets=1, bytes=1, flows=0))
    for s, d in [
        (2, 0), (3, 0), (512, 0), (0, 0), (0, 0), (0, 1), (256, 0),
        (0, 0), (0, 0), (0, 0), (0, 0), (0, 2), (1, 0),
    ]
]


@settings(max_examples=30, deadline=None)
@given(inserts=inserts_strategy, budget=budget_strategy)
@example(inserts=TIED_INSERTS, budget=64)
def test_merge_of_roundtripped_equals_merge_of_originals(inserts, budget):
    """Recovered trees merge exactly like the live trees they replace."""
    half = len(inserts) // 2
    left = build_tree(inserts[:half], budget)
    right = build_tree(inserts[half:], budget)

    live = Flowtree(POLICY, node_budget=budget)
    live.merge(left)
    live.merge(right)
    recovered = Flowtree(POLICY, node_budget=budget)
    recovered.merge(roundtrip(left))
    recovered.merge(roundtrip(right))
    assert canonical(recovered) == canonical(live)


def test_empty_tree_roundtrips():
    tree = Flowtree(POLICY, node_budget=64)
    clone = roundtrip(tree)
    assert canonical(clone) == canonical(tree)
    assert clone.node_count == tree.node_count
    probe = FIVE_TUPLE.key(
        proto=6, src_ip="10.0.0.1", dst_ip="192.168.0.1",
        src_port=1024, dst_port=443,
    )
    assert clone.query(probe) == tree.query(probe)


@settings(max_examples=40, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(key_strategy, score_strategy),
        min_size=30,
        max_size=60,
        unique_by=lambda pair: pair[0].values,
    ),
    metric=metric_strategy,
)
def test_sealed_tree_equals_copy_for_every_reader(inserts, metric):
    """``reset_epoch`` hands the live tree over instead of copying it;
    no reader can tell the handed-over original from a copy."""
    primitive = FlowtreePrimitive(
        Location("cloud/site"), POLICY, node_budget=16, metric=metric
    )
    primitive.ingest_many(
        [
            (
                FlowRecord(
                    key=key,
                    packets=score.packets,
                    bytes=score.bytes,
                    first_seen=float(i),
                    last_seen=float(i),
                ),
                float(i),
            )
            for i, (key, score) in enumerate(inserts)
        ]
    )
    copied = primitive.tree.copy()
    sealed = primitive.reset_epoch().payload
    assert sealed.compressions >= 1  # past compression onset
    assert sealed.compressions == copied.compressions
    assert sealed._leaf_heap is None and not sealed._heap_pending
    assert canonical(sealed) == canonical(copied)
    assert sealed.estimated_size_bytes() == copied.estimated_size_bytes()
    threshold = max(1, sealed.total().metric(metric) // 4)
    assert sealed.top_k(10) == copied.top_k(10)
    assert sealed.top_k(5, depth=3) == copied.top_k(5, depth=3)
    assert sealed.above_x(threshold // 4) == copied.above_x(threshold // 4)
    assert sealed.hhh(threshold) == copied.hhh(threshold)
    assert sealed.aggregate_by_feature(
        "src_ip", 16
    ) == copied.aggregate_by_feature("src_ip", 16)
    # and the new epoch is a fresh tree, not the one handed over
    assert primitive.tree is not sealed
    assert primitive.tree.node_count == 1
