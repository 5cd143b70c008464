"""Property-based tests (hypothesis) for Flowtree invariants.

The invariants pinned here are the ones the architecture relies on:

* **Mass conservation** — compression moves popularity, never loses it.
* **Merge linearity** — the root total of a merge is the sum of inputs,
  regardless of order.
* **Query soundness** — any single query is bounded by the total; on
  uncompressed trees exact per-key answers hold.
* **Serialization fidelity** — to_dict/from_dict is the identity on
  observable behaviour.
* **Equal content, equal future** — how a tree came to hold its nodes
  (insert order, merge order, a trip through the codec) decides
  nothing about what Compress folds next.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.records import Score
from repro.flows.tree import Flowtree

POLICY = GeneralizationPolicy.default_for(FIVE_TUPLE)

# Keys drawn from a small universe so collisions (shared prefixes and
# exact duplicates) actually happen.
key_strategy = st.builds(
    lambda proto, s, d, sp, dp: FIVE_TUPLE.key(
        proto=proto,
        src_ip=(10 << 24) | s,
        dst_ip=(192 << 24) | d,
        src_port=sp,
        dst_port=dp,
    ),
    proto=st.sampled_from([6, 17]),
    s=st.integers(min_value=0, max_value=2**16),
    d=st.integers(min_value=0, max_value=255),
    sp=st.integers(min_value=1024, max_value=1064),
    dp=st.sampled_from([80, 443, 53]),
)

score_strategy = st.builds(
    Score,
    packets=st.integers(min_value=1, max_value=1000),
    bytes=st.integers(min_value=1, max_value=10**6),
    flows=st.integers(min_value=0, max_value=10),
)

inserts_strategy = st.lists(
    st.tuples(key_strategy, score_strategy), min_size=1, max_size=60
)


def build_tree(inserts, budget=None):
    tree = Flowtree(POLICY, node_budget=budget)
    for key, score in inserts:
        tree.add(key, score)
    return tree


def total_of(inserts) -> Score:
    total = Score.zero()
    for _, score in inserts:
        total = total + score
    return total


@settings(max_examples=60, deadline=None)
@given(inserts=inserts_strategy)
def test_total_equals_inserted_mass(inserts):
    tree = build_tree(inserts)
    assert tree.total() == total_of(inserts)


@settings(max_examples=60, deadline=None)
@given(inserts=inserts_strategy)
def test_compression_preserves_total(inserts):
    tree = build_tree(inserts, budget=POLICY.depth + 2)
    assert tree.total() == total_of(inserts)
    assert tree.node_count <= POLICY.depth + 2


@settings(max_examples=60, deadline=None)
@given(inserts=inserts_strategy)
def test_root_total_bounds_every_query(inserts):
    tree = build_tree(inserts)
    total = tree.total()
    for key, _ in inserts[:10]:
        result = tree.query(key)
        assert result.bytes <= total.bytes
        assert result.packets <= total.packets


@settings(max_examples=60, deadline=None)
@given(inserts=inserts_strategy)
def test_uncompressed_queries_are_exact(inserts):
    tree = build_tree(inserts)
    expected = {}
    for key, score in inserts:
        expected[key] = expected.get(key, Score.zero()) + score
    for key, score in expected.items():
        assert tree.query(key) == score


@settings(max_examples=40, deadline=None)
@given(a=inserts_strategy, b=inserts_strategy)
def test_merge_totals_commute(a, b):
    early, late = (0.0, "r1"), (60.0, "r1")
    left = Flowtree.union([(early, build_tree(a)), (late, build_tree(b))])
    right = Flowtree.union([(late, build_tree(b)), (early, build_tree(a))])
    assert left.to_dict() == right.to_dict()
    assert left.total() == total_of(a) + total_of(b)


@settings(max_examples=40, deadline=None)
@given(a=inserts_strategy, b=inserts_strategy)
def test_merge_pointwise_adds(a, b):
    ta, tb = build_tree(a), build_tree(b)
    merged = Flowtree.union([((0.0, "r1"), ta), ((0.0, "r2"), tb)])
    for key, _ in (a + b)[:10]:
        assert merged.query(key) == ta.query(key) + tb.query(key)


@settings(max_examples=40, deadline=None)
@given(inserts=inserts_strategy)
def test_diff_with_self_is_zero_everywhere(inserts):
    tree = build_tree(inserts)
    delta = tree.diff(tree)
    assert delta.total().is_zero()
    for key, _ in inserts[:10]:
        assert delta.query(key).is_zero()


@settings(max_examples=40, deadline=None)
@given(inserts=inserts_strategy)
def test_serialization_roundtrip(inserts):
    tree = build_tree(inserts, budget=64)
    clone = Flowtree.from_dict(tree.to_dict(), POLICY)
    assert clone.total() == tree.total()
    assert clone.node_count == tree.node_count
    for key, _ in inserts[:10]:
        assert clone.query(key) == tree.query(key)


@settings(max_examples=40, deadline=None)
@given(inserts=inserts_strategy, k=st.integers(min_value=1, max_value=10))
def test_top_k_is_sorted_and_bounded(inserts, k):
    tree = build_tree(inserts)
    top = tree.top_k(k)
    assert len(top) <= k
    values = [score.bytes for _, score in top]
    assert values == sorted(values, reverse=True)


@settings(max_examples=40, deadline=None)
@given(inserts=inserts_strategy, x=st.integers(min_value=0, max_value=10**6))
def test_above_x_respects_threshold(inserts, x):
    tree = build_tree(inserts)
    for _, score in tree.above_x(x):
        assert score.bytes > x


@settings(max_examples=40, deadline=None)
@given(inserts=inserts_strategy)
def test_hhh_residuals_meet_threshold(inserts):
    tree = build_tree(inserts)
    threshold = max(1, tree.total().bytes // 4)
    for result in tree.hhh(threshold):
        assert result.residual.bytes >= threshold


@settings(max_examples=40, deadline=None)
@given(
    inserts=inserts_strategy,
    budget=st.integers(min_value=POLICY.depth + 1, max_value=64),
)
def test_query_bounds_bracket_truth(inserts, budget):
    """For every inserted key: lower <= exact <= upper on the compressed
    tree, and bounds coincide exactly when the node survived."""
    exact = build_tree(inserts)
    compressed = build_tree(inserts, budget=budget)
    for key, _ in inserts[:15]:
        truth = exact.query(key)
        lower, upper = compressed.query_with_bound(key)
        assert lower.bytes <= truth.bytes <= upper.bytes
        assert lower.packets <= truth.packets <= upper.packets
        assert lower.flows <= truth.flows <= upper.flows


@settings(max_examples=40, deadline=None)
@given(inserts=inserts_strategy)
def test_group_by_partitions_total(inserts):
    """Grouping by any feature at level 0-ish covers the whole mass."""
    tree = build_tree(inserts)
    groups = tree.aggregate_by_feature("proto", 8)
    assert sum(score.bytes for _, score in groups) == tree.total().bytes


tied_inserts_strategy = st.lists(
    st.tuples(key_strategy, st.sampled_from([Score(1, 1, 1), Score(2, 2, 1)])),
    min_size=4,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    inserts=tied_inserts_strategy,
    shuffled=st.randoms(use_true_random=False),
    keep=st.floats(min_value=0.2, max_value=0.9),
)
def test_equal_content_compresses_to_equal_trees(inserts, shuffled, keep):
    """Weights from {1, 2} tie almost every leaf, so the fold line is
    drawn by the tie-break — which must read content, not history."""
    in_order = build_tree(inserts)

    reordered = list(inserts)
    shuffled.shuffle(reordered)
    out_of_order = build_tree(reordered)

    half = len(inserts) // 2
    recovered = Flowtree.from_dict(
        json.loads(json.dumps(build_tree(inserts[:half]).to_dict())), POLICY
    )
    halves = Flowtree(POLICY, node_budget=None)
    halves.merge(build_tree(inserts[half:]))
    halves.merge(recovered)

    target = max(POLICY.depth + 1, int(in_order.node_count * keep))
    for tree in (in_order, out_of_order, halves):
        tree.compress(target_nodes=target)
    assert out_of_order.to_dict() == in_order.to_dict()
    assert halves.to_dict() == in_order.to_dict()
