"""The sum rule: an exact union is a sum, so a window is read in place.

Merge and Diff are exact until Compress runs, so each Table II read
operator takes a window's trees as ``(sign, tree)`` operands and sums
their counters (``repro.flows.tree``); a window fold materializes
their union only when it could compress or a kept fold advances
(``repro.query.fold``).  Pinned here:

* every FlowQL operator over 1-4 budgeted trees, with and without
  ``VS``, answers what it answers on the materialized
  ``Flowtree.union`` / ``Flowtree.diff``, and writes no operand; HHH
  skips light keys only where no mass is negative;
* a window whose node counts exceed the budget still materializes,
  and compresses;
* incompatible operands raise the ``SchemaMismatchError`` Merge raises;
* a cold multi-entry cloud window and a cloud ``VS`` build no tree and
  create no node;
* a standing query registered over several stored entries, then
  advanced, answers what a cold read answers at every close.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaMismatchError
from repro.flowql.executor import apply_operator
from repro.flowql.parser import parse
from repro.flows.features import Feature
from repro.flows.flowkey import (
    FIVE_TUPLE,
    SRC_DST,
    FeatureSchema,
    GeneralizationPolicy,
)
from repro.flows.records import Score
from repro.flows.tree import Flowtree
from repro.query import ROUTE_CLOUD
from repro.query.fold import WindowFold, _window
from repro.query.subscriptions import MODE_DELTA
from repro.runtime.presets import flat_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from tests.flowql_reference import FlowQLExecutor
from tests.test_flowtree_properties import inserts_strategy
from tests.test_window_fold import (
    EPOCH,
    build_runtime,
    cold,
    count_tree_work,
    drive,
    stored_objects,
)

POLICY = GeneralizationPolicy.default_for(FIVE_TUPLE)

#: every FlowQL operator, with and without WHERE: (head, tail); the
#: metric goes between them
QUERIES = (
    ("SELECT TOTAL FROM ALL", ""),
    ("SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8", ""),
    ("SELECT QUERY FROM ALL WHERE dst_port = 443", ""),
    ("SELECT DRILLDOWN FROM ALL WHERE src_ip = 10.0.0.0/8", ""),
    ("SELECT DRILLDOWN FROM ALL WHERE proto = 6", ""),
    ("SELECT TOPK(3) FROM ALL", ""),
    ("SELECT TOPK(40) FROM ALL WHERE dst_port = 443", ""),
    ("SELECT ABOVE(500) FROM ALL", ""),
    ("SELECT ABOVE(0) FROM ALL WHERE proto = 6", " LIMIT 7"),
    ("SELECT HHH(0.1) FROM ALL", ""),
    ("SELECT HHH(0.02) FROM ALL WHERE src_ip = 10.0.0.0/16", ""),
    ("SELECT HHH(5) FROM ALL", ""),
    ("SELECT GROUPBY(dst_port, 16) FROM ALL", ""),
    ("SELECT GROUPBY(src_ip, 24) FROM ALL WHERE proto = 17", " LIMIT 3"),
)


def build_tree(inserts, budget):
    tree = Flowtree(POLICY, node_budget=budget)
    for key, score in inserts:
        tree.add(key, score)
    return tree


def union(trees):
    """The unbudgeted union: it never compresses."""
    return Flowtree.union(
        [((index, ""), tree) for index, tree in enumerate(trees)]
    )


@settings(max_examples=120, deadline=None)
@given(
    added=st.lists(inserts_strategy, min_size=1, max_size=4),
    subtracted=st.one_of(
        st.none(), st.lists(inserts_strategy, min_size=1, max_size=2)
    ),
    budget=st.sampled_from([None, 16, 40, 200]),
    query=st.sampled_from(QUERIES),
    metric=st.sampled_from(["packets", "bytes", "flows"]),
)
def test_operand_sum_answers_as_the_materialized_union(
    added, subtracted, budget, query, metric
):
    head, tail = query
    parsed = parse(f"{head} BY {metric}{tail}")
    trees = [build_tree(inserts, budget) for inserts in added]
    operands = [(1, tree) for tree in trees]
    materialized = union(trees)
    if subtracted is not None:
        vs = [build_tree(inserts, budget) for inserts in subtracted]
        operands += [(-1, tree) for tree in vs]
        materialized = materialized.diff(union(vs))
    before = [tree.to_dict() for _, tree in operands]
    summed = apply_operator(operands, parsed)
    assert summed.to_wire() == (
        apply_operator([(1, materialized)], parsed).to_wire()
    )
    assert [tree.to_dict() for _, tree in operands] == before


#: one byte, generalized to its high nibble: root -> x/4 -> x/8
ONE_BYTE = FeatureSchema("one_byte", (Feature("x", bits=8),))
NIBBLES = GeneralizationPolicy.build(ONE_BYTE, [("x", 4), ("x", 8)])


def test_a_vs_hhh_walks_every_key():
    """Skipping the keys below the threshold is sound only without
    negative mass.  Under a ``VS``, 0x1_/4 nets to zero yet passes up
    the discount of its HHH child 0x11, which keeps the root (80 flows,
    spread over four nibbles) from being reported."""

    def tree(flows_at):
        built = Flowtree(NIBBLES, node_budget=None, metric="flows")
        for x, flows in flows_at.items():
            built.add(ONE_BYTE.key(x=x), Score(0, 0, flows))
        return built

    added = tree({0x11: 100, 0x21: 20, 0x31: 20, 0x41: 20, 0x51: 20})
    subtracted = tree({0x12: 100})
    query = parse("SELECT HHH(50) FROM ALL BY flows")
    expected = [(str(ONE_BYTE.key(x=0x11)), 0, 0, 100)]
    assert apply_operator([(1, added), (-1, subtracted)], query).rows == (
        expected
    )
    assert apply_operator([(1, added.diff(subtracted))], query).rows == (
        expected
    )


def disjoint_trees(count, flows):
    """``count`` trees of ``flows`` flows each, no key shared below the
    root's first generalization: their union holds every node."""
    trees = []
    for index in range(count):
        tree = Flowtree(POLICY, node_budget=None)
        for flow in range(flows):
            key = FIVE_TUPLE.key(
                proto=6,
                src_ip=((index + 1) << 24) | flow,
                dst_ip=(192 << 24) | flow,
                src_port=1024 + flow,
                dst_port=443,
            )
            tree.add(key, Score(1, 100 + flow, 1))
        trees.append(tree)
    return trees


class TestMaterializeRule:
    def test_a_window_that_could_compress_is_unioned_and_compresses(self):
        trees = disjoint_trees(3, 4)
        nodes = sum(tree.node_count for tree in trees) - 2
        inputs = [((float(i), ""), tree) for i, tree in enumerate(trees)]
        # at the budget: the trees themselves, read in place
        assert _window(inputs, nodes, kept=False) == trees
        assert _window(inputs, None, kept=False) == trees
        [tree] = _window(inputs, nodes - 1, kept=False)
        assert all(tree is not stored for stored in trees)
        assert tree.compressions == 1 and tree.node_count < nodes
        assert tree.total() == union(trees).total()

    def test_a_kept_fold_owns_its_union(self):
        trees = disjoint_trees(2, 3)
        inputs = [((float(i), ""), tree) for i, tree in enumerate(trees)]
        [tree] = _window(inputs, None, kept=True)
        assert all(tree is not stored for stored in trees)
        assert tree.to_dict() == union(trees).to_dict()

    def test_a_runtime_window_over_the_merge_budget(self):
        """A cold cloud read whose entries exceed the root's merge
        budget folds one compressed union — the answer FlowDB's
        ``merged_tree`` gives."""
        site = "r1/a"
        runtime = flat_runtime([site], node_budget=256, merge_node_budget=300)
        generator = TrafficGenerator(
            TrafficConfig(sites=(site,), flows_per_epoch=300), seed=7
        )
        for epoch in range(3):
            runtime.ingest(site, generator.epoch(site, epoch))
            runtime.close_epoch((epoch + 1) * EPOCH)
        text = "SELECT TOPK(5) FROM ALL BY bytes"
        query = parse(text)
        planner = runtime.planner
        plan = planner.plan(query)
        assert plan.route == ROUTE_CLOUD
        entries = runtime.db.entries()
        assert sum(e.tree.node_count for e in entries) - 2 > 300
        fold = WindowFold(planner, plan, query, query.time)
        fold.advance(planner.clock)
        [tree] = fold.trees
        assert tree.compressions > 0 and tree.node_count <= 300
        expected = FlowQLExecutor(runtime.db).execute(text)
        assert runtime.query(text).result.to_wire() == expected.to_wire()
        runtime.shutdown()


@pytest.mark.parametrize("head, tail", QUERIES)
@pytest.mark.parametrize("sign", [1, -1])
def test_incompatible_operands_raise_what_merge_raises(head, tail, sign):
    ours = Flowtree(POLICY)
    theirs = Flowtree(GeneralizationPolicy.default_for(SRC_DST))
    with pytest.raises(SchemaMismatchError) as merged:
        ours.merge(theirs)
    with pytest.raises(SchemaMismatchError) as summed:
        apply_operator([(1, ours), (sign, theirs)], parse(head + tail))
    assert str(summed.value) == str(merged.value)


class TestColdReadsBuildNothing:
    @pytest.mark.parametrize(
        "text, held",
        [
            ("SELECT TOPK(5) FROM TIME(0, 180) BY bytes", [3]),
            ("SELECT HHH(0.02) FROM ALL BY packets", [3]),
            ("SELECT TOTAL FROM TIME(120, 180) VS TIME(60, 120)", [1, 1]),
            ("SELECT TOPK(3) FROM ALL VS TIME(0, 120)", [3, 2]),
        ],
    )
    def test_a_cold_cloud_window_is_read_in_place(
        self, monkeypatch, text, held
    ):
        runtime = build_runtime()
        drive(runtime, 3)
        planner = runtime.planner
        query = parse(text)
        plan = planner.plan(query)
        assert plan.route == ROUTE_CLOUD
        counts = count_tree_work(monkeypatch)
        folds = planner.window_folds(plan, query)
        for fold in folds:
            fold.advance(planner.clock)
        stored = stored_objects(runtime)
        assert [len(fold.trees) for fold in folds] == held
        assert all(
            stored.get(id(tree)) is tree
            for fold in folds
            for tree in fold.trees
        )
        cold(runtime, text)
        assert counts == {"trees": 0, "copies": 0, "nodes": 0}


class TestStandingOverSeveralEntries:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT TOPK(5) FROM ALL BY bytes",
            "SELECT HHH(0.05) FROM ALL BY packets",
            "SELECT GROUPBY(dst_port, 16) FROM ALL VS TIME(0, 60) LIMIT 4",
        ],
    )
    def test_advanced_equals_cold_at_every_close(self, text):
        runtime = build_runtime()
        drive(runtime, 2)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        stored = stored_objects(runtime)
        # registered on the stored entries themselves
        assert len(subscription.views[0].trees) == 2
        assert all(
            stored.get(id(tree)) is tree
            for view in subscription.views
            for tree in view.trees
        )
        for epoch in range(2, 6):
            drive(runtime, 1, start=epoch)
            update = subscription.latest()
            assert update.mode == MODE_DELTA
            assert update.result.to_wire() == (
                cold(runtime, text).result.to_wire()
            )
            # from its first advance on, the fold owns its union
            [tree] = subscription.views[0].trees
            assert id(tree) not in stored_objects(runtime)
        assert subscription.rebuilds == 0
