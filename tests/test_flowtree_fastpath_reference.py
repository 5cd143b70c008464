"""Differential tests: the hot-path Flowtree vs. a naive reference.

The Flowtree ingest/merge/compress path is heavily optimized (single
projected chain walk, in-place integer counters, a persistent lazy
compression heap, bounded-overshoot batching).  None of that may change
*what* the tree computes.  This module pins the semantics with a
:class:`ReferenceFlowtree` — a deliberately slow implementation that
allocates frozen :class:`Score` objects per update, re-projects every
level on every operation, and recomputes the least-popular leaf from
scratch on every fold — and hypothesis-driven interleavings of
``add``/``add_many``/``merge``/``compress`` asserting the two stay
node-for-node, counter-for-counter identical.

The canonical semantics both implement:

* nodes are created in first-touch order (``seq``); merge walks the
  other tree root-down, LIFO over child dicts in insertion order;
* compression folds leaves in ``(metric, seq)`` order until the target
  is reached;
* batched ingest compresses mid-batch only past
  ``budget + max(64, budget // 8)`` nodes, and re-establishes
  ``node_count <= budget`` before returning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.features import Feature
from repro.flows.flowkey import FeatureSchema, FlowKey, GeneralizationPolicy
from repro.flows.records import Score
from repro.flows.tree import Flowtree

SCHEMA = FeatureSchema(
    "fastpath_pair",
    (Feature("hi", bits=8), Feature("lo", bits=8)),
)

#: depth 4 chain: root -> hi/4 -> hi/8 -> +lo/4 -> +lo/8
POLICY = GeneralizationPolicy.build(
    SCHEMA,
    [("hi", 4), ("hi", 8), ("lo", 4), ("lo", 8)],
)


def key_of(hi: int, lo: int) -> FlowKey:
    return SCHEMA.key(hi=hi, lo=lo)


class ReferenceFlowtree:
    """The naive, pre-optimization Flowtree semantics.

    Same canonical behavior as :class:`Flowtree`, implemented the slow
    way on purpose: per-level :meth:`GeneralizationPolicy.project`
    calls, frozen :class:`Score` arithmetic, and an O(nodes) scan per
    compression fold.
    """

    class Node:
        def __init__(self, depth: int, values: Tuple[int, ...], seq: int):
            self.depth = depth
            self.values = values
            self.seq = seq
            self.own = Score.zero()
            self.folded = Score.zero()
            self.subtree = Score.zero()
            self.children: Dict[Tuple[int, ...], "ReferenceFlowtree.Node"] = {}

    def __init__(
        self,
        policy: GeneralizationPolicy,
        node_budget: Optional[int] = None,
        compress_ratio: float = 0.8,
        metric: str = "bytes",
    ) -> None:
        self.policy = policy
        self.node_budget = node_budget
        self.compress_ratio = compress_ratio
        self.metric = metric
        self._next_seq = 1
        root = self.Node(0, policy.project((0,) * len(policy.schema), 0), 0)
        self.root = root
        self.nodes: Dict[Tuple[int, Tuple[int, ...]], ReferenceFlowtree.Node] = {
            (0, root.values): root
        }

    def _node_at(self, values, depth: int) -> "ReferenceFlowtree.Node":
        parent = self.root
        for d in range(1, depth + 1):
            projected = self.policy.project(values, d)
            node = self.nodes.get((d, projected))
            if node is None:
                node = self.Node(d, projected, self._next_seq)
                self._next_seq += 1
                self.nodes[(d, projected)] = node
                parent.children[projected] = node
            parent = node
        return parent

    def add(self, key: FlowKey, score: Score) -> None:
        depth = self.policy.depth_of(key.levels)
        node = self._node_at(key.values, depth)
        node.own = node.own + score
        self._bubble(key.values, depth, score)
        self._maybe_compress()

    def _bubble(self, values, depth: int, score: Score) -> None:
        self.root.subtree = self.root.subtree + score
        for d in range(1, depth + 1):
            node = self.nodes[(d, self.policy.project(values, d))]
            node.subtree = node.subtree + score

    def add_many(self, items: List[Tuple[FlowKey, Score]]) -> None:
        budget = self.node_budget
        if budget is None:
            for key, score in items:
                depth = self.policy.depth_of(key.levels)
                node = self._node_at(key.values, depth)
                node.own = node.own + score
                self._bubble(key.values, depth, score)
            return
        overshoot = budget + max(64, budget // 8)
        for key, score in items:
            depth = self.policy.depth_of(key.levels)
            node = self._node_at(key.values, depth)
            node.own = node.own + score
            self._bubble(key.values, depth, score)
            if len(self.nodes) > overshoot:
                self.compress(int(budget * self.compress_ratio))
        self._maybe_compress()

    def _maybe_compress(self) -> None:
        if self.node_budget is not None and len(self.nodes) > self.node_budget:
            self.compress(int(self.node_budget * self.compress_ratio))

    def compress(self, target_nodes: int) -> None:
        while len(self.nodes) > target_nodes:
            leaves = [
                node
                for node in self.nodes.values()
                if node.depth > 0 and not node.children
            ]
            if not leaves:
                break
            victim = min(
                leaves, key=lambda n: (n.subtree.metric(self.metric), n.seq)
            )
            parent = self.nodes[
                (
                    victim.depth - 1,
                    self.policy.project(victim.values, victim.depth - 1),
                )
            ]
            parent.folded = parent.folded + victim.own + victim.folded
            del parent.children[victim.values]
            del self.nodes[(victim.depth, victim.values)]

    def merge(self, other: "ReferenceFlowtree") -> None:
        stack = [(self.root, other.root)]
        while stack:
            mine, theirs = stack.pop()
            mine.own = mine.own + theirs.own
            mine.folded = mine.folded + theirs.folded
            mine.subtree = mine.subtree + theirs.subtree
            for values, their_child in theirs.children.items():
                my_child = mine.children.get(values)
                if my_child is None:
                    my_child = self.Node(
                        their_child.depth, values, self._next_seq
                    )
                    self._next_seq += 1
                    self.nodes[(their_child.depth, values)] = my_child
                    mine.children[values] = my_child
                stack.append((my_child, their_child))
        self._maybe_compress()


def assert_identical(fast: Flowtree, reference: ReferenceFlowtree) -> None:
    """Node-for-node, counter-for-counter equality."""
    fast_ids = {node.node_id for node in fast.nodes()}
    ref_ids = set(reference.nodes.keys())
    assert fast_ids == ref_ids
    for node_id in ref_ids:
        ref_node = reference.nodes[node_id]
        fast_node = fast._nodes[node_id]
        assert fast_node.own == ref_node.own, node_id
        assert fast_node.folded == ref_node.folded, node_id
        assert fast_node.subtree == ref_node.subtree, node_id


# -- strategies ---------------------------------------------------------

scores = st.builds(
    Score,
    packets=st.integers(min_value=1, max_value=100),
    bytes=st.integers(min_value=1, max_value=10_000),
    flows=st.just(1),
)
keys = st.builds(
    key_of,
    hi=st.integers(min_value=0, max_value=255),
    lo=st.integers(min_value=0, max_value=255),
)
inserts = st.tuples(keys, scores)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), inserts),
        st.tuples(st.just("add_many"), st.lists(inserts, max_size=30)),
        st.tuples(st.just("merge"), st.lists(inserts, max_size=15)),
        st.tuples(
            st.just("compress"),
            st.integers(min_value=1, max_value=40),
        ),
    ),
    min_size=1,
    max_size=20,
)


class TestFastPathMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(ops=operations, budget=st.sampled_from([None, 12, 24, 64]))
    def test_interleaved_operations_identical(self, ops, budget):
        if budget is not None and budget < POLICY.depth + 1:
            budget = POLICY.depth + 1
        fast = Flowtree(POLICY, node_budget=budget, metric="bytes")
        reference = ReferenceFlowtree(POLICY, node_budget=budget)
        for op, payload in ops:
            if op == "add":
                key, score = payload
                fast.add(key, score)
                reference.add(key, score)
            elif op == "add_many":
                fast.add_many(list(payload))
                reference.add_many(list(payload))
            elif op == "merge":
                other_fast = Flowtree(POLICY, node_budget=None)
                other_ref = ReferenceFlowtree(POLICY)
                for key, score in payload:
                    other_fast.add(key, score)
                    other_ref.add(key, score)
                fast.merge(other_fast)
                reference.merge(other_ref)
            elif op == "compress":
                target = max(payload, 1)
                fast.compress(target_nodes=target)
                reference.compress(target)
            assert_identical(fast, reference)

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.lists(inserts, max_size=40), max_size=5))
    def test_batched_ingest_identical(self, batches):
        fast = Flowtree(POLICY, node_budget=16, metric="bytes")
        reference = ReferenceFlowtree(POLICY, node_budget=16)
        for batch in batches:
            fast.add_many(list(batch))
            reference.add_many(list(batch))
        assert_identical(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(inserts, min_size=1, max_size=120))
    def test_root_mass_invariant_under_deferred_compression(self, batch):
        """Batched (overshooting) compression never loses mass, and the
        budget holds again once the batch returns."""
        tree = Flowtree(POLICY, node_budget=POLICY.depth + 1, metric="bytes")
        tree.add_many(list(batch))
        expected = Score.zero()
        for _, score in batch:
            expected = expected + score
        assert tree.total() == expected
        assert tree.node_count <= tree.node_budget

    @settings(max_examples=30, deadline=None)
    @given(batch=st.lists(inserts, min_size=1, max_size=60))
    def test_incremental_heap_matches_full_rebuild(self, batch):
        """Repeated compress() calls on a live heap fold exactly the
        leaves a from-scratch scan would pick."""
        fast = Flowtree(POLICY, node_budget=None, metric="bytes")
        reference = ReferenceFlowtree(POLICY)
        for key, score in batch:
            fast.add(key, score)
            reference.add(key, score)
        while fast.node_count > 1:
            target = max(1, fast.node_count - 3)
            fast.compress(target_nodes=target)
            reference.compress(target)
            assert_identical(fast, reference)
            if fast.node_count <= POLICY.depth + 1:
                break


# -- the merge/copy walk, pinned to its pre-fast-path form ---------------


def reference_absorb(self: Flowtree, other: Flowtree, sign: int) -> None:
    """``Flowtree._absorb`` as it was before fresh pairs were special-
    cased: every pair does the child lookup and nine ``+=``."""
    stack = [(self._root, other._root)]
    while stack:
        mine, theirs = stack.pop()
        mine.own_packets += sign * theirs.own_packets
        mine.own_bytes += sign * theirs.own_bytes
        mine.own_flows += sign * theirs.own_flows
        mine.folded_packets += sign * theirs.folded_packets
        mine.folded_bytes += sign * theirs.folded_bytes
        mine.folded_flows += sign * theirs.folded_flows
        mine.subtree_packets += sign * theirs.subtree_packets
        mine.subtree_bytes += sign * theirs.subtree_bytes
        mine.subtree_flows += sign * theirs.subtree_flows
        children = mine.children
        for values, their_child in theirs.children.items():
            my_child = children.get(values)
            if my_child is None:
                my_child = self._new_node(their_child.depth, values, mine)
            stack.append((my_child, their_child))


def exact_state(tree: Flowtree):
    """Everything the identity gates rest on: per-node seq and counters
    (``snapshot_state``), ``next_seq``, child-dict order, subtree
    totals, and what the compression heap has registered."""
    return (
        tree.snapshot_state(),
        [
            (node.node_id, list(node.children), node.subtree)
            for node in sorted(tree.nodes(), key=lambda n: n.seq)
        ],
        [node.node_id for node in tree._heap_pending],
    )


def grown(inserts, budget=None) -> Flowtree:
    tree = Flowtree(POLICY, node_budget=budget, metric="bytes")
    tree.add_many(list(inserts))
    return tree


tree_inserts = st.lists(inserts, max_size=40)


class TestAbsorbMatchesReference:
    """Two identically built trees, one walked by the shipped
    ``_absorb`` and one by the verbatim old walk, stay exactly equal."""

    @staticmethod
    def both(op, *builders):
        fast = op(*[build() for build in builders])
        original = Flowtree._absorb
        Flowtree._absorb = reference_absorb
        try:
            slow = op(*[build() for build in builders])
        finally:
            Flowtree._absorb = original
        return fast, slow

    @settings(max_examples=60, deadline=None)
    @given(
        left=tree_inserts,
        right=tree_inserts,
        budget=st.sampled_from([None, 12, 24]),
    )
    def test_merge_and_copy(self, left, right, budget):
        def merge_then_copy(target, source):
            target.merge(source)
            return target, target.copy()

        (fast, fast_copy), (slow, slow_copy) = self.both(
            merge_then_copy,
            lambda: grown(left, budget),
            lambda: grown(right),
        )
        assert exact_state(fast) == exact_state(slow)
        assert exact_state(fast_copy) == exact_state(slow_copy)

    @settings(max_examples=60, deadline=None)
    @given(left=tree_inserts, right=tree_inserts)
    def test_diff_both_signs(self, left, right):
        def diff(a, b):
            return a.diff(b), b.diff(a)

        fast, slow = self.both(
            diff, lambda: grown(left), lambda: grown(right)
        )
        for fast_tree, slow_tree in zip(fast, slow):
            assert exact_state(fast_tree) == exact_state(slow_tree)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(
            inserts,
            min_size=20,
            max_size=60,
            unique_by=lambda pair: pair[0].values,
        ),
        right=tree_inserts,
        target=st.integers(min_value=5, max_value=30),
    )
    def test_merge_into_live_heap_then_compress(self, left, right, target):
        def merge_on_live_heap(tree, source):
            tree.compress(target_nodes=max(5, tree.node_count - 3))
            assert tree._leaf_heap is not None
            tree.merge(source)
            pending = [node.node_id for node in tree._heap_pending]
            tree.compress(target_nodes=target)
            return tree, pending

        (fast, fast_pending), (slow, slow_pending) = self.both(
            merge_on_live_heap, lambda: grown(left), lambda: grown(right)
        )
        assert fast_pending == slow_pending
        assert exact_state(fast) == exact_state(slow)
