"""Unit tests for the Flowtree data structure (Table II operators)."""

import gc
import heapq
import types

import pytest

from repro.errors import (
    GranularityError,
    MalformedSummaryError,
    SchemaMismatchError,
)
from repro.flows.flowkey import SRC_DST, GeneralizationPolicy
from repro.flows.records import FlowRecord, PacketRecord, Score
from repro.flows import tree as tree_module
from repro.flows.tree import Flowtree, FlowtreeNode
from repro.runtime.presets import network_4level_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator


def make_tree(policy, budget=None):
    return Flowtree(policy, node_budget=budget)


class TestInsertAndQuery:
    def test_single_insert_query(self, policy, make_key):
        tree = make_tree(policy)
        key = make_key()
        tree.add(key, Score(5, 500, 1))
        assert tree.query(key) == Score(5, 500, 1)
        assert tree.total() == Score(5, 500, 1)

    def test_absent_key_scores_zero(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(), Score(1, 1, 1))
        other = make_key(src_ip="99.99.99.99")
        assert tree.query(other) == Score.zero()

    def test_ancestor_chain_created(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(), Score(1, 100, 1))
        assert tree.node_count == policy.depth + 1

    def test_generalized_query_sums_descendants(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(src_ip="10.1.2.3"), Score(1, 100, 1))
        tree.add(make_key(src_ip="10.1.9.9"), Score(1, 50, 1))
        prefix = make_key(src_ip="10.0.0.0", levels=(0, 8, 0, 0, 0))
        # (0,8,0,0,0) is on-chain (depth 1)
        assert policy.depth_of(prefix.levels) is not None
        assert tree.query(prefix).bytes == 150

    def test_off_chain_query(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(dst_port=443), Score(1, 100, 1))
        tree.add(make_key(dst_port=80, src_ip="1.1.1.1"), Score(1, 70, 1))
        pattern = make_key(dst_port=443, levels=(0, 0, 0, 0, 16))
        assert policy.depth_of(pattern.levels) is None
        assert tree.query(pattern).bytes == 100

    def test_add_generalized_key_mass(self, policy, make_key):
        tree = make_tree(policy)
        mid = policy.key_at(make_key(), 4)
        tree.add(mid, Score(1, 10, 0))
        assert tree.total().bytes == 10
        assert tree.query(mid).bytes == 10
        assert tree.node_count == 5  # root + 4 ancestors

    def test_off_chain_add_rejected(self, policy, make_key):
        tree = make_tree(policy)
        off = make_key(levels=(8, 0, 0, 0, 0))
        with pytest.raises(GranularityError):
            tree.add(off, Score(1, 1, 1))

    def test_schema_mismatch_rejected(self, policy):
        tree = make_tree(policy)
        other = SRC_DST.key(src_ip="1.2.3.4", dst_ip="5.6.7.8")
        with pytest.raises(SchemaMismatchError):
            tree.add(other, Score(1, 1, 1))
        with pytest.raises(SchemaMismatchError):
            tree.query(other)

    def test_flow_and_packet_ingest(self, policy, make_key):
        tree = make_tree(policy)
        records = [
            FlowRecord(
                key=make_key(), packets=3, bytes=300, first_seen=0,
                last_seen=1,
            ),
            PacketRecord(
                key=make_key(), bytes=100, timestamp=0.5, sampled_1_in=2
            ),
        ]
        assert tree.ingest(records) == 2
        assert tree.total() == Score(5, 500, 1)

    def test_ingest_many(self, policy, random_flows):
        tree = make_tree(policy)
        records = random_flows(50)
        assert tree.ingest(records) == 50
        assert tree.total().flows == 50


class TestIngestWalkCost:
    """The ingest walk probes from the record's own depth upward and
    climbs parent pointers, so it projects only the depths it probes."""

    @staticmethod
    def _count_projections(tree):
        calls = [0]

        def counting(project):
            def wrapped(values):
                calls[0] += 1
                return project(values)

            return wrapped

        tree._projectors = tuple(counting(p) for p in tree._projectors)
        return calls

    # every depth 0..13 of the 5-tuple chain; at 13 the leaf itself is
    # live and the record costs exactly one projection
    @pytest.mark.parametrize("ancestor", range(14))
    def test_cost_is_the_depths_below_the_deepest_live_ancestor(
        self, policy, make_key, ancestor
    ):
        depth = policy.depth
        tree = make_tree(policy)
        tree.add(policy.key_at(make_key(), ancestor), Score(1, 10, 0))
        calls = self._count_projections(tree)
        tree.add(make_key(), Score(1, 100, 1))
        assert calls[0] == (depth - ancestor + 1 if ancestor else depth)
        assert tree.node_count == depth + 1
        assert tree.total() == Score(2, 110, 1)


class TestChainFold:
    """A fold that leaves its parent a leaf lighter than every queued
    entry folds that parent at once, instead of pushing it onto the
    compression heap and popping it straight back."""

    @staticmethod
    def _count_heap_calls(monkeypatch):
        calls = {"heappush": 0, "heappop": 0}

        def counting(name):
            real = getattr(heapq, name)

            def wrapped(*args):
                calls[name] += 1
                return real(*args)

            return wrapped

        shim = types.SimpleNamespace(
            heapify=heapq.heapify,
            heappush=counting("heappush"),
            heappop=counting("heappop"),
        )
        monkeypatch.setattr(tree_module, "heapq", shim)
        return calls

    # a 13-node chain under the root: down to the root in one pop, or
    # stopped 4 nodes short, where the parent's entry is pushed as ever
    @pytest.mark.parametrize("target, pushes", [(1, 0), (5, 1)])
    def test_chain_folds_without_a_heap_round_trip(
        self, policy, make_key, monkeypatch, target, pushes
    ):
        tree = make_tree(policy, budget=policy.depth + 1)
        tree.add(make_key(), Score(3, 300, 1))
        assert tree.node_count == policy.depth + 1
        calls = self._count_heap_calls(monkeypatch)
        assert tree.compress(target_nodes=target) == policy.depth + 1 - target
        assert calls == {"heappush": pushes, "heappop": 1}
        assert tree.node_count == target
        assert tree.total() == Score(3, 300, 1)
        if target == 1:
            assert tree.root.folded == Score(3, 300, 1)


class TestCompress:
    def test_budget_enforced(self, policy, random_flows):
        tree = make_tree(policy, budget=200)
        tree.ingest(random_flows(500))
        assert tree.node_count <= 200
        assert tree.compressions > 0

    def test_mass_conserved_under_compression(self, policy, random_flows):
        records = random_flows(300)
        expected = Score.zero()
        for record in records:
            expected = expected + record.score()
        tree = make_tree(policy, budget=150)
        tree.ingest(records)
        assert tree.total() == expected

    def test_explicit_compress_to_target(self, policy, random_flows):
        tree = make_tree(policy)
        tree.ingest(random_flows(200))
        before = tree.total()
        removed = tree.compress(target_nodes=50)
        assert removed > 0
        assert tree.node_count <= 50
        assert tree.total() == before

    def test_compress_by_ratio(self, policy, random_flows):
        tree = make_tree(policy)
        tree.ingest(random_flows(200))
        count = tree.node_count
        tree.compress(ratio=0.5)
        assert tree.node_count <= max(1, int(count * 0.5))

    def test_compress_arg_validation(self, policy):
        tree = make_tree(policy)
        with pytest.raises(GranularityError):
            tree.compress(target_nodes=5, ratio=0.5)
        with pytest.raises(GranularityError):
            tree.compress(ratio=1.5)

    def test_compress_keeps_heavy_keys_queryable(self, policy, make_key,
                                                 random_flows):
        tree = make_tree(policy, budget=300)
        heavy = make_key(src_ip="8.8.8.8")
        tree.add(heavy, Score(1000, 10_000_000, 100))
        tree.ingest(random_flows(400))
        # the heavy flow dominates everything and must survive compression
        assert tree.query(heavy).bytes >= 10_000_000

    def test_budget_below_chain_length_rejected(self, policy):
        with pytest.raises(GranularityError):
            Flowtree(policy, node_budget=policy.depth)

    def test_root_never_removed(self, policy, random_flows):
        tree = make_tree(policy)
        tree.ingest(random_flows(100))
        tree.compress(target_nodes=1)
        assert tree.root is not None
        assert tree.node_count >= 1


class TestMergeDiff:
    def test_merge_totals_add(self, policy, random_flows):
        a = make_tree(policy)
        b = make_tree(policy)
        a.ingest(random_flows(100, seed=1))
        b.ingest(random_flows(100, seed=2))
        total = a.total() + b.total()
        a.merge(b)
        assert a.total() == total

    def test_merged_classmethod(self, policy, random_flows):
        a = make_tree(policy)
        b = make_tree(policy)
        a.ingest(random_flows(80, seed=3))
        b.ingest(random_flows(80, seed=4))
        merged = Flowtree.union(
            [((0.0, "r1"), a), ((60.0, "r1"), b)], a.node_budget
        )
        assert merged.total() == a.total() + b.total()
        # sources untouched
        assert a.total().flows == 80

    def test_merge_same_keys_sums(self, policy, make_key):
        a = make_tree(policy)
        b = make_tree(policy)
        key = make_key()
        a.add(key, Score(1, 100, 1))
        b.add(key, Score(2, 200, 1))
        a.merge(b)
        assert a.query(key) == Score(3, 300, 2)

    def test_merge_self(self, policy, make_key):
        tree = make_tree(policy)
        key = make_key()
        tree.add(key, Score(1, 100, 1))
        tree.merge(tree)
        assert tree.query(key) == Score(2, 200, 2)

    def test_merge_incompatible_policy(self, policy, random_flows):
        tree = make_tree(policy)
        other = Flowtree(GeneralizationPolicy.default_for(SRC_DST))
        with pytest.raises(SchemaMismatchError):
            tree.merge(other)

    def test_diff_self_is_zero(self, policy, random_flows):
        tree = make_tree(policy)
        tree.ingest(random_flows(60))
        delta = tree.diff(tree)
        assert delta.total().is_zero()

    def test_diff_detects_growth(self, policy, make_key):
        before = make_tree(policy)
        after = make_tree(policy)
        key = make_key()
        before.add(key, Score(1, 100, 1))
        after.add(key, Score(5, 900, 3))
        delta = after.diff(before)
        assert delta.query(key) == Score(4, 800, 2)

    def test_diff_allows_negative(self, policy, make_key):
        a = make_tree(policy)
        b = make_tree(policy)
        key = make_key()
        b.add(key, Score(2, 200, 1))
        delta = a.diff(b)
        assert delta.query(key) == Score(-2, -200, -1)


class TestRankingOperators:
    def test_top_k_orders_by_metric(self, policy, make_key):
        tree = make_tree(policy)
        keys = [make_key(src_port=1000 + i) for i in range(5)]
        for i, key in enumerate(keys):
            tree.add(key, Score(1, (i + 1) * 100, 1))
        top = tree.top_k(3)
        assert [score.bytes for _, score in top] == [500, 400, 300]

    def test_top_k_zero_or_negative(self, policy):
        tree = make_tree(policy)
        assert tree.top_k(0) == []
        assert tree.top_k(-5) == []

    def test_top_k_at_depth(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(src_ip="10.0.0.1"), Score(1, 100, 1))
        tree.add(make_key(src_ip="10.0.0.2"), Score(1, 200, 1))
        top = tree.top_k(1, depth=1)
        assert len(top) == 1
        key, score = top[0]
        assert score.bytes == 300  # aggregated under the shared /8

    def test_above_x(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(src_port=1), Score(1, 50, 1))
        tree.add(make_key(src_port=2), Score(1, 500, 1))
        hits = tree.above_x(100, depth=policy.depth)
        assert len(hits) == 1
        assert hits[0][1].bytes == 500

    def test_above_x_excludes_root_by_default(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(), Score(1, 500, 1))
        keys = [key for key, _ in tree.above_x(1)]
        assert all(any(k.levels) for k in keys)
        with_root = tree.above_x(1, include_root=True)
        assert any(not any(k.levels) for k, _ in with_root)

    def test_drilldown(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(src_ip="10.1.0.1"), Score(1, 100, 1))
        tree.add(make_key(src_ip="11.1.0.1"), Score(1, 200, 1))
        children = tree.drilldown(tree.key_of(tree.root))
        assert len(children) == 2
        assert children[0][1].bytes == 200  # sorted by metric desc

    def test_drilldown_missing_node(self, policy, make_key):
        tree = make_tree(policy)
        assert tree.drilldown(make_key()) == []


class TestHHH:
    def test_hhh_finds_heavy_prefix(self, policy, make_key):
        tree = make_tree(policy)
        # many small flows inside one /8, none individually heavy
        for i in range(20):
            tree.add(
                make_key(src_ip=f"10.0.{i}.1", src_port=1000 + i),
                Score(1, 100, 1),
            )
        results = tree.hhh(1500)
        prefixes = [r.key for r in results]
        # some generalized node covering 10/8 must be reported
        assert any(
            k.feature_level("src_ip") in (8, 16) and any(k.levels)
            for k in prefixes
        )

    def test_hhh_discounts_descendants(self, policy, make_key):
        tree = make_tree(policy)
        heavy = make_key(src_ip="10.0.0.1")
        tree.add(heavy, Score(1, 10_000, 1))
        results = tree.hhh(5_000)
        # the leaf itself qualifies; its ancestors carry no residual mass
        reported_levels = {r.key.levels for r in results}
        assert heavy.levels in reported_levels
        assert len(results) == 1

    def test_hhh_threshold_filters_all(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(), Score(1, 10, 1))
        assert tree.hhh(1_000_000) == []


class TestQueryWithBound:
    def test_uncompressed_is_exact(self, policy, make_key):
        tree = make_tree(policy)
        key = make_key()
        tree.add(key, Score(3, 300, 1))
        lower, upper = tree.query_with_bound(key)
        assert lower == upper == Score(3, 300, 1)

    def test_missing_key_bracketed_by_zero_and_ancestor_fold(
        self, policy, random_flows
    ):
        records = random_flows(300, seed=5)
        exact = make_tree(policy)
        exact.ingest(records)
        compressed = make_tree(policy, budget=policy.depth + 2)
        compressed.ingest(records)
        checked = 0
        for record in records:
            truth = exact.query(record.key)
            lower, upper = compressed.query_with_bound(record.key)
            assert lower.bytes <= truth.bytes <= upper.bytes
            assert lower.packets <= truth.packets <= upper.packets
            checked += 1
        assert checked == 300

    def test_absent_everywhere_is_zero_to_fold(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(), Score(1, 100, 1))
        other = make_key(src_ip="99.99.99.99", dst_ip="88.88.88.88")
        lower, upper = tree.query_with_bound(other)
        assert lower.is_zero()
        assert upper.is_zero()  # nothing folded on that path

    def test_off_chain_key_rejected(self, policy, make_key):
        tree = make_tree(policy)
        off = make_key(levels=(8, 0, 0, 0, 0))
        with pytest.raises(GranularityError):
            tree.query_with_bound(off)

    def test_heavy_keys_stay_exact_under_compression(
        self, policy, make_key, random_flows
    ):
        tree = make_tree(policy, budget=300)
        heavy = make_key(src_ip="8.8.8.8")
        tree.add(heavy, Score(1000, 10**7, 100))
        tree.ingest(random_flows(400, seed=6))
        lower, upper = tree.query_with_bound(heavy)
        assert lower.bytes >= 10**7
        assert upper.bytes >= lower.bytes


class TestGroupBy:
    def test_group_by_port(self, policy, make_key):
        tree = make_tree(policy)
        tree.add(make_key(dst_port=443, src_port=1), Score(1, 100, 1))
        tree.add(make_key(dst_port=443, src_port=2), Score(1, 50, 1))
        tree.add(make_key(dst_port=80, src_port=3), Score(1, 60, 1))
        groups = tree.aggregate_by_feature("dst_port", 16)
        assert groups[0][0].feature_value("dst_port") == 443
        assert groups[0][1].bytes == 150

    def test_group_by_within(self, policy, make_key):
        tree = make_tree(policy)
        victim = "10.0.0.5"
        tree.add(make_key(src_ip="1.0.0.1", dst_ip=victim), Score(1, 100, 1))
        tree.add(make_key(src_ip="2.0.0.1", dst_ip=victim), Score(1, 90, 1))
        tree.add(
            make_key(src_ip="1.0.0.1", dst_ip="10.0.0.9"), Score(1, 500, 1)
        )
        pattern = make_key(dst_ip=victim, levels=(0, 0, 32, 0, 0))
        groups = tree.aggregate_by_feature("src_ip", 8, within=pattern)
        total = sum(score.bytes for _, score in groups)
        assert total == 190


# -- corrupt column payloads ------------------------------------------
# Each corruption edits the ``to_dict`` of one root-to-leaf chain, so
# the node at depth ``d`` is the ``d``-th node of every column and the
# leaf (the only node with ``own`` mass) is the last.


def _width(p):
    return len(p["values"]) // sum(p["counts"])


def _node(p, depth):
    """The chain node at ``depth``: its values and its six counters."""
    width = _width(p)
    return (
        p["values"][depth * width:(depth + 1) * width],
        p["counters"][depth * 6:(depth + 1) * 6],
    )


def _add(p, depth, node):
    """Append ``node`` to ``depth``'s block, past the chain if asked."""
    values, counters = node
    width = _width(p)
    while len(p["counts"]) <= depth:
        p["counts"].append(0)
    at = sum(p["counts"][:depth + 1])
    p["values"][at * width:at * width] = values
    p["counters"][at * 6:at * 6] = counters
    p["counts"][depth] += 1


def _drop(p, depth):
    """Remove the chain node at ``depth`` from every column."""
    width = _width(p)
    del p["values"][depth * width:(depth + 1) * width]
    del p["counters"][depth * 6:(depth + 1) * 6]
    p["counts"][depth] -= 1


def _leaf(p):
    return len(p["counts"]) - 1


def _move_leaf_to_root_depth(p):
    leaf = _node(p, _leaf(p))
    _drop(p, _leaf(p))
    _add(p, 0, leaf)


def _set(column, at, value):
    def corrupt(p):
        p[column][at] = value

    return corrupt


def _delete(column, at):
    def corrupt(p):
        del p[column][at]

    return corrupt


def _root_slot_holds_leaf(p):
    width = _width(p)
    p["values"][:width] = _node(p, _leaf(p))[0]


CORRUPTIONS = {
    # a node whose parent is absent from the payload
    "orphan": lambda p: _drop(p, 1),
    # the same (depth, values) twice
    "duplicate": lambda p: _add(p, _leaf(p), _node(p, _leaf(p))),
    # the root twice
    "second-root": lambda p: _add(p, 0, _node(p, 0)),
    # a non-root at depth 0
    "stray-root": _move_leaf_to_root_depth,
    # a node below the chain's last depth
    "too-deep": lambda p: _add(p, _leaf(p) + 1, _node(p, _leaf(p))),
    # a count that would slice the columns backwards (the counts still
    # sum to the columns' node count)
    "negative-count": _set("counts", slice(1, 3), [-1, 3]),
    # a node without its own or folded triple, a payload without
    # values, a node with short values
    "no-own": _delete("counters", slice(-6, -3)),
    "no-folded": _delete("counters", slice(-3, None)),
    "no-values": lambda p: p.pop("values"),
    "short-values": _delete("values", slice(-2, None)),
    # a depth-1 node with bits its depth's mask drops: a sibling of the
    # real one that no query key could reach
    "non-canonical-values": lambda p: _add(
        p, 1, ([v | 1 for v in _node(p, 1)[0]], _node(p, 1)[1])
    ),
    "short-own": _delete("counters", -4),
    # counters a stored tree never holds: not a number, a fraction, a
    # bool, a negative (privacy only coarsens; diffs are never stored)
    "non-numeric-counter": _set("counters", -6, "1"),
    "float-counter": _set("counters", -5, 100.5),
    "bool-counter": _set("counters", -6, True),
    "negative-counter": _set("counters", -2, -1),
    "no-nodes": lambda p: p.pop("counts"),
    "non-int-budget": lambda p: p.update(node_budget="many"),
    # a count or budget of the wrong type that would be kept and
    # re-serialized as given (a bool is not an int here)
    "bool-count": _set("counts", 1, True),
    "fractional-budget": lambda p: p.update(node_budget=100.7),
    "bool-budget": lambda p: p.update(node_budget=True),
    # what only columns can get wrong: no root, a root slot holding
    # another node, columns whose lengths disagree with the counts, a
    # value that is not an integer
    "no-root": lambda p: _drop(p, 0),
    "wrong-root": _root_slot_holds_leaf,
    "long-values": lambda p: p["values"].append(0),
    "long-counters": lambda p: p["counters"].extend([0] * 6),
    "no-counters": lambda p: p.pop("counters"),
    "float-value": _set("values", -1, 1.0),
}


class TestSerialization:
    def test_roundtrip(self, policy, random_flows):
        tree = make_tree(policy, budget=300)
        tree.ingest(random_flows(200))
        clone = Flowtree.from_dict(tree.to_dict(), policy)
        assert clone.total() == tree.total()
        assert clone.node_count == tree.node_count
        assert clone.top_k(5) == tree.top_k(5)

    def test_roundtrip_wrong_policy(self, policy, random_flows):
        tree = make_tree(policy)
        tree.ingest(random_flows(10))
        other = GeneralizationPolicy.default_for(SRC_DST)
        with pytest.raises(SchemaMismatchError):
            Flowtree.from_dict(tree.to_dict(), other)

    @pytest.mark.parametrize(
        "corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS)
    )
    def test_payload_that_is_not_a_tree_rejected(
        self, policy, make_key, corrupt
    ):
        tree = make_tree(policy)
        tree.add(make_key(), Score(1, 100, 1))
        payload = tree.to_dict()
        assert payload["counts"] == [1] * (policy.depth + 1)
        corrupt(payload)
        with pytest.raises(MalformedSummaryError):
            Flowtree.from_dict(payload, policy)

    def test_copy_is_independent(self, policy, make_key):
        tree = make_tree(policy)
        key = make_key()
        tree.add(key, Score(1, 100, 1))
        clone = tree.copy()
        tree.add(key, Score(1, 100, 1))
        assert clone.query(key).bytes == 100
        assert tree.query(key).bytes == 200

    def test_estimated_size_grows_with_nodes(self, policy, random_flows):
        tree = make_tree(policy)
        empty = tree.estimated_size_bytes()
        tree.ingest(random_flows(50))
        assert tree.estimated_size_bytes() > empty


class TestOneRegistryNoCycles:
    """What keeping a tree's nodes in one per-depth index buys, as counts.

    Nodes point up (``parent``) and the index points at nodes; nothing
    points down.  So a tree holds no reference cycle, and a node is the
    only collector-tracked object it costs.
    """

    @staticmethod
    def _tracked(kind) -> int:
        # slotted nodes take no weakref, so count them where the
        # collector sees them
        return sum(type(obj) is kind for obj in gc.get_objects())

    def test_dropped_trees_are_freed_by_reference_count(
        self, policy, random_flows
    ):
        gc.collect()
        gc.disable()
        try:
            baseline = self._tracked(FlowtreeNode)
            first = make_tree(policy, budget=300)
            first.ingest(random_flows(400, seed=1))
            second = make_tree(policy, budget=300)
            second.ingest(random_flows(400, seed=2))
            assert first.compressions and second.compressions
            first.merge(second)
            delta = first.diff(second)
            clone = first.copy()
            assert self._tracked(FlowtreeNode) - baseline == (
                first.node_count + second.node_count
                + delta.node_count + clone.node_count
            )
            del first, second, delta, clone
            # no collection has run: a cycle would still be holding nodes
            assert self._tracked(FlowtreeNode) == baseline
        finally:
            gc.enable()

    def test_a_node_is_the_only_tracked_object_it_costs(self):
        sites = [f"region{r}/router{t}" for r in (1, 2) for t in (1, 2)]
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=500), seed=7
        )
        # a close freezes what survives it, and ``gc.get_objects()`` does
        # not list frozen objects: count with nothing frozen on both sides
        gc.unfreeze()
        gc.collect()
        nodes_before = self._tracked(FlowtreeNode)
        dicts_before = self._tracked(dict)
        runtime = network_4level_runtime(1, 2, 2, retain_partitions=True)
        for epoch in range(2):
            for site in sites:
                runtime.ingest(
                    f"network1/{site}", generator.epoch(site, epoch)
                )
            runtime.close_epoch((epoch + 1) * 60.0)
        runtime.shutdown()
        gc.collect()
        nodes_gained = self._tracked(FlowtreeNode) - nodes_before
        dicts_gained = self._tracked(dict) - dicts_before
        assert nodes_gained > 10_000
        # dicts grow with trees x depth, not with nodes: a child dict per
        # node would read ~0.8 here
        assert dicts_gained < 0.05 * nodes_gained, (dicts_gained, nodes_gained)
