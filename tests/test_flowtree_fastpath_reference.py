"""Differential tests: the hot-path Flowtree vs. a naive reference.

The Flowtree ingest/merge/compress path is heavily optimized (a
deepest-first ingest walk that climbs parent pointers, in-place integer
counters, a persistent lazy compression heap, bounded-overshoot
batching).  None of that may change
*what* the tree computes.  This module pins the semantics with a
:class:`ReferenceFlowtree` — a deliberately slow implementation that
allocates frozen :class:`Score` objects per update, re-projects every
level on every operation, and recomputes the least-popular leaf from
scratch on every fold — and hypothesis-driven interleavings of
``add``/``add_many``/``merge``/``diff``/``compress`` asserting the two
stay node-for-node, counter-for-counter identical.

The canonical semantics both implement:

* a node of the other tree merges onto the node of ours with the same
  ``(depth, values)``, created if absent;
* compression folds leaves in ascending ``(metric, depth, values)``
  order until the target is reached;
* batched ingest compresses mid-batch only past
  ``budget + max(64, budget // 8)`` nodes, and re-establishes
  ``node_count <= budget`` before returning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.features import Feature
from repro.flows.flowkey import (
    FIVE_TUPLE,
    FeatureSchema,
    FlowKey,
    GeneralizationPolicy,
)
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
        def __init__(self, depth: int, values: Tuple[int, ...]):
            self.depth = depth
            self.values = values
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
        root = self.Node(0, policy.project((0,) * len(policy.schema), 0))
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
                node = self.Node(d, projected)
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
        overshoot = (
            float("inf") if budget is None else budget + max(64, budget // 8)
        )
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
                leaves,
                key=lambda n: (
                    n.subtree.metric(self.metric), n.depth, n.values
                ),
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

    def _absorb(self, other: "ReferenceFlowtree", negate: bool) -> None:
        for (depth, values), theirs in other.nodes.items():
            mine = self._node_at(values, depth)
            for field in ("own", "folded", "subtree"):
                score = getattr(theirs, field)
                if negate:
                    score = -score
                setattr(mine, field, getattr(mine, field) + score)

    def merge(self, other: "ReferenceFlowtree") -> None:
        self._absorb(other, negate=False)
        self._maybe_compress()

    def diff(self, other: "ReferenceFlowtree") -> "ReferenceFlowtree":
        result = ReferenceFlowtree(self.policy, metric=self.metric)
        result._absorb(self, negate=False)
        result._absorb(other, negate=True)
        return result


def counted(
    items: List[Tuple[FlowKey, Score]]
) -> List[Tuple[FlowKey, int, int, int]]:
    """The tests' ``(key, Score)`` payloads in the shape the fast
    tree's ``add_many`` takes: ``(key, packets, bytes, flows)``."""
    return [
        (key, score.packets, score.bytes, score.flows) for key, score in items
    ]


def assert_identical(fast: Flowtree, reference: ReferenceFlowtree) -> None:
    """Node-for-node, counter-for-counter equality."""
    fast_nodes = {node.node_id: node for node in fast.nodes()}
    assert fast.node_count == len(fast_nodes)
    assert set(fast_nodes) == set(reference.nodes)
    for node_id, ref_node in reference.nodes.items():
        fast_node = fast_nodes[node_id]
        assert fast_node.own == ref_node.own, node_id
        assert fast_node.folded == ref_node.folded, node_id
        assert fast_node.subtree == ref_node.subtree, node_id
        assert (not fast_node.nchildren) == (not ref_node.children), node_id


def assert_drilldown_identical(
    fast: Flowtree, reference: ReferenceFlowtree
) -> None:
    """``drilldown`` at every live node against the reference's child
    map: the fast tree keeps none and selects the next depth's nodes by
    parent pointer."""
    for node in reference.nodes.values():
        expected = [
            (fast.key_of(child), child.subtree)
            for child in node.children.values()
        ]
        expected.sort(
            key=lambda pair: (-pair[1].metric(fast.metric), pair[0].values)
        )
        assert fast.drilldown(fast.key_of(node)) == expected, node.values


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

#: the library's depth-13 chain: addresses in /8 steps, proto, ports
DEEP_POLICY = GeneralizationPolicy.default_for(FIVE_TUPLE)
#: a few /8 and /16 prefixes and host parts that differ at /24 and /32,
#: so a record's deepest live ancestor can sit at any address depth
PREFIXES = (10 << 24, (10 << 24) | (1 << 16), (192 << 24) | (168 << 16))
HOSTS = (0x0000, 0x0001, 0x0100, 0x0101)
#: ports that differ in the high byte, the low byte, or both
PORTS = (80, 81, 443, 8080)

addresses = st.builds(
    lambda prefix, host: prefix | host,
    st.sampled_from(PREFIXES),
    st.sampled_from(HOSTS),
)
deep_keys = st.builds(
    lambda proto, src, dst, sport, dport: FIVE_TUPLE.key(
        proto=proto, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport
    ),
    st.sampled_from((6, 17)),
    addresses,
    addresses,
    st.sampled_from(PORTS),
    st.sampled_from(PORTS),
)
#: fully-specific keys, and the same keys lifted to an on-chain depth
deep_inserts = st.tuples(
    st.one_of(
        deep_keys,
        st.builds(
            DEEP_POLICY.key_at,
            deep_keys,
            st.integers(min_value=0, max_value=DEEP_POLICY.depth),
        ),
    ),
    scores,
)
deep_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), deep_inserts),
        st.tuples(st.just("add_many"), st.lists(deep_inserts, max_size=40)),
    ),
    min_size=1,
    max_size=12,
)


class TestFastPathMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=operations,
        budget=st.sampled_from([None, 12, 24, 64]),
    )
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
                fast.add_many(counted(payload))
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
        assert_drilldown_identical(fast, reference)
        # and on a diff, which absorbs a negated copy of its right side
        lone_fast = Flowtree(POLICY, node_budget=None)
        lone_ref = ReferenceFlowtree(POLICY)
        lone_fast.add(key_of(7, 7), Score(1, 1, 1))
        lone_ref.add(key_of(7, 7), Score(1, 1, 1))
        assert_drilldown_identical(
            fast.diff(lone_fast), reference.diff(lone_ref)
        )

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.lists(inserts, max_size=40), max_size=5))
    def test_batched_ingest_identical(self, batches):
        fast = Flowtree(POLICY, node_budget=16, metric="bytes")
        reference = ReferenceFlowtree(POLICY, node_budget=16)
        for batch in batches:
            fast.add_many(counted(batch))
            reference.add_many(list(batch))
        assert_identical(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(inserts, min_size=1, max_size=120))
    def test_root_mass_invariant_under_deferred_compression(self, batch):
        """Batched (overshooting) compression never loses mass, and the
        budget holds again once the batch returns."""
        tree = Flowtree(POLICY, node_budget=POLICY.depth + 1, metric="bytes")
        tree.add_many(counted(batch))
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

    @settings(max_examples=40, deadline=None)
    @given(
        ops=deep_operations,
        budget=st.sampled_from([DEEP_POLICY.depth + 1, 20, 32]),
    )
    def test_deep_chain_identical(self, ops, budget):
        """On the depth-13 5-tuple chain, with keys that share prefixes
        down to every depth and a budget that keeps folding them, the
        walk that probes upward from each record's own depth builds the
        reference's tree."""
        fast = Flowtree(DEEP_POLICY, node_budget=budget, metric="bytes")
        reference = ReferenceFlowtree(DEEP_POLICY, node_budget=budget)
        for op, payload in ops:
            if op == "add":
                fast.add(*payload)
                reference.add(*payload)
            else:
                fast.add_many(counted(payload))
                reference.add_many(list(payload))
            assert_identical(fast, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(inserts, max_size=40),
        right=st.lists(inserts, max_size=40),
        budget=st.sampled_from([None, 12, 24]),
    )
    def test_diff_both_signs_identical(self, left, right, budget):
        """``a.diff(b)`` and ``b.diff(a)`` — fresh subtrees assigned with
        either sign — match the reference, also from compressed inputs."""
        fast_left = Flowtree(POLICY, node_budget=budget, metric="bytes")
        ref_left = ReferenceFlowtree(POLICY, node_budget=budget)
        fast_right = Flowtree(POLICY, node_budget=None, metric="bytes")
        ref_right = ReferenceFlowtree(POLICY)
        fast_left.add_many(counted(left))
        ref_left.add_many(list(left))
        fast_right.add_many(counted(right))
        ref_right.add_many(list(right))
        assert_identical(fast_left.diff(fast_right), ref_left.diff(ref_right))
        assert_identical(fast_right.diff(fast_left), ref_right.diff(ref_left))



# -- the fold-at-once shortcut's boundaries -----------------------------

#: on-chain keys of the depth-13 chain (fully specific or lifted), each
#: with popularity that is often zero, so a childless parent can re-enter
#: the heap at exactly the value of an entry it left there earlier
zero_inserts = st.tuples(
    deep_inserts.map(lambda pair: pair[0]),
    st.builds(
        Score,
        packets=st.integers(min_value=0, max_value=2),
        bytes=st.integers(min_value=0, max_value=2),
        flows=st.integers(min_value=0, max_value=1),
    ),
)


class TestChainFoldBoundaries:
    """``Flowtree.compress`` folds a parent that a fold left childless at
    once when its entry is strictly below the heap's head and the target
    is not yet reached; a tie with the head, or the target reached
    mid-chain, pushes the entry as the lazy heap always did.  Each
    boundary against the reference, node for node."""

    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                deep_keys, min_size=1, max_size=30,
                unique_by=lambda key: key.values,
            ),
            min_size=1,
            max_size=4,
        ),
        budget=st.sampled_from([DEEP_POLICY.depth + 1, 20, 32]),
    )
    def test_ties_fold_in_reference_order(self, batches, budget):
        """Equal-weight, fully specific, unique flows: every fold is
        decided by the ``(depth, values)`` tie-break."""
        fast = Flowtree(DEEP_POLICY, node_budget=budget, metric="bytes")
        reference = ReferenceFlowtree(DEEP_POLICY, node_budget=budget)
        for batch in batches:
            items = [(key, Score(1, 1, 1)) for key in batch]
            fast.add_many(counted(items))
            reference.add_many(items)
            assert_identical(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("add_many"), st.lists(zero_inserts, max_size=30)
                ),
                st.tuples(
                    st.just("compress"),
                    st.integers(min_value=1, max_value=40),
                ),
            ),
            min_size=1,
            max_size=10,
        ),
        budget=st.sampled_from([DEEP_POLICY.depth + 1, 20, 32]),
    )
    def test_zero_score_inserts_identical(self, ops, budget):
        fast = Flowtree(DEEP_POLICY, node_budget=budget, metric="bytes")
        reference = ReferenceFlowtree(DEEP_POLICY, node_budget=budget)
        for op, payload in ops:
            if op == "add_many":
                fast.add_many(counted(payload))
                reference.add_many(list(payload))
            else:
                fast.compress(target_nodes=payload)
                reference.compress(payload)
            assert_identical(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.lists(deep_inserts, min_size=1, max_size=12),
        cuts=st.lists(
            st.integers(min_value=1, max_value=DEEP_POLICY.depth),
            min_size=1,
            max_size=8,
        ),
    )
    def test_target_reached_mid_chain_identical(self, batch, cuts):
        """Passes that stop 1 to 13 folds short of the last: the target
        is met partway up a chain and the rest of it waits for a later
        pass."""
        fast = Flowtree(DEEP_POLICY, node_budget=None, metric="bytes")
        reference = ReferenceFlowtree(DEEP_POLICY)
        fast.add_many(counted(batch))
        reference.add_many(list(batch))
        for cut in cuts:
            target = max(1, fast.node_count - cut)
            fast.compress(target_nodes=target)
            reference.compress(target)
            assert_identical(fast, reference)


# -- union births: merge, copy and from_dict ----------------------------


def fed_pair(
    batches: List[List[Tuple[FlowKey, Score]]], budget: Optional[int]
) -> Tuple[Flowtree, ReferenceFlowtree]:
    """A fast tree and its reference under one budget, fed the same
    batches: both compress wherever a batch overshoots the budget."""
    fast = Flowtree(POLICY, node_budget=budget, metric="bytes")
    reference = ReferenceFlowtree(POLICY, node_budget=budget)
    for batch in batches:
        fast.add_many(counted(batch))
        reference.add_many(list(batch))
    return fast, reference


def compress_by(
    fast: Flowtree, reference: ReferenceFlowtree, cut: int
) -> None:
    """Compress both ``cut`` nodes below the fast tree's count."""
    target = max(1, fast.node_count - cut)
    fast.compress(target_nodes=target)
    reference.compress(target)
    assert_identical(fast, reference)


def settle(
    fast: Flowtree,
    reference: ReferenceFlowtree,
    cut: int,
    extra: List[Tuple[FlowKey, Score]],
) -> None:
    """After a union built ``fast``: compress (the heap goes live), take
    a merge of fresh nodes into that live heap, compress again, and
    round-trip the result; node for node at every step."""
    assert_identical(fast, reference)
    compress_by(fast, reference, cut)
    more_fast, more_reference = fed_pair([extra], None)
    fast.merge(more_fast)
    reference.merge(more_reference)
    assert_identical(fast, reference)
    compress_by(fast, reference, cut)
    assert_identical(Flowtree.from_dict(fast.to_dict(), POLICY), reference)


union_batches = st.lists(
    st.lists(inserts, max_size=40), min_size=1, max_size=3
)
union_budgets = st.sampled_from([POLICY.depth + 1, 12, 24])
cuts = st.integers(min_value=1, max_value=12)
extras = st.lists(inserts, min_size=1, max_size=15)


class TestUnionBirths:
    """Merge, copy and ``from_dict`` create each node they add inline:
    every slot written once, the parent's ``nchildren`` bumped, and the
    node queued for the compression heap while that heap is live.  Each
    runs on budgeted, already compressed trees (folded mass, interior
    nodes the target lacks), is checked against the reference, and is
    then compressed, merged into and round-tripped (:func:`settle`)."""

    @settings(max_examples=50, deadline=None)
    @given(
        ours=union_batches,
        theirs=st.lists(union_batches, min_size=1, max_size=3),
        budget=union_budgets,
        cut=cuts,
        extra=extras,
    )
    def test_merge_of_compressed_trees_identical(
        self, ours, theirs, budget, cut, extra
    ):
        fast, reference = fed_pair(ours, budget)
        # the target's heap is live before the first merge
        compress_by(fast, reference, cut)
        for batches in theirs:
            other_fast, other_reference = fed_pair(batches, budget)
            fast.merge(other_fast)
            reference.merge(other_reference)
            assert_identical(fast, reference)
        settle(fast, reference, cut, extra)

    @settings(max_examples=50, deadline=None)
    @given(batches=union_batches, budget=union_budgets, cut=cuts, extra=extras)
    def test_copy_of_compressed_tree_identical(
        self, batches, budget, cut, extra
    ):
        source, reference = fed_pair(batches, budget)
        clone = source.copy()
        assert clone.compressions == source.compressions
        settle(clone, reference, cut, extra)

    @settings(max_examples=50, deadline=None)
    @given(batches=union_batches, budget=union_budgets, cut=cuts, extra=extras)
    def test_rebuild_of_compressed_tree_identical(
        self, batches, budget, cut, extra
    ):
        source, reference = fed_pair(batches, budget)
        rebuilt = Flowtree.from_dict(source.to_dict(), POLICY)
        assert rebuilt.node_budget == source.node_budget
        settle(rebuilt, reference, cut, extra)
