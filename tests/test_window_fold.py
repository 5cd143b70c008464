"""The window fold: one resumable assembler behind cold queries,
``SUBSCRIBE`` and drilldowns.

Three contracts are pinned here.  A fold advanced once per close is
tree-for-tree equal to a fresh fold advanced once (so delta == cold has
no second code path to drift from); every sequence breaker names its
reason on ``repro_subscribe_rebuilds_total`` and still answers exactly
what a cold execution answers; and a fold's trees — which may be
stored entries, partitions or replica payloads — are never written
through: a window is answered on its inputs in place, and a kept fold
unions what it held in place afresh only when it first extends it.
"""

from __future__ import annotations

import pytest

from repro.datastore.privacy import ExportRule, PrivacyGuard, PrivacyPolicy
from repro.faults import FaultPlan, LinkOutage, RestartDrill
from repro.flowql.parser import parse
from repro.flows.tree import Flowtree
from repro.obs import parse_prometheus, render_prometheus
from repro.obs.observability import Observability
from repro.query import ROUTE_CLOUD, ROUTE_FEDERATED
from repro.query.fold import WindowFold, answer
from repro.query.subscriptions import MODE_DELTA, MODE_REBUILD
from repro.replication.engine import AdaptiveReplicationEngine
from repro.replication.ski_rental import BreakEvenPolicy
from repro.runtime.presets import network_4level_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

EPOCH = 60.0
ROUTER1 = "network1/region1/router1"
AT_ROUTER1 = f"SELECT TOPK(5) FROM ALL AT {ROUTER1} BY bytes"
CLOUD_TOTAL = "SELECT TOTAL FROM ALL"
CLOUD_TOPK = "SELECT TOPK(5) FROM ALL BY bytes"


def build_runtime(faults=None):
    return network_4level_runtime(
        networks=1,
        regions_per_network=1,
        routers_per_region=2,
        retain_partitions=True,
        faults=faults,
        observability=Observability(),
    )


def drive(runtime, epochs, start=0, flows=100, seed=7):
    for epoch in range(start, start + epochs):
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=flows),
            seed=seed + epoch,
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * EPOCH)


def cold(runtime, text):
    """Re-execute ``text`` from scratch: drop the result cache first."""
    planner = runtime.planner
    planner.invalidate_cache()
    return planner.execute(text)


def window_tree(fold):
    """The fold's window as one tree: the union its operand sum stands
    for (its one tree when it holds one)."""
    return Flowtree.union(
        [((index, ""), tree) for index, tree in enumerate(fold.trees)],
        fold.planner.runtime.db.merge_node_budget,
    )


def stored_objects(runtime):
    """Every FlowDB entry's and retained partition's tree, by id."""
    trees = [e.tree for e in runtime.db.entries()]
    for level in runtime.store_levels():
        for store in runtime.stores_at_level(level).values():
            trees += [p.summary.payload for p in store.catalog.all()]
    return {id(tree): tree for tree in trees}


def rebuild_reasons(runtime):
    """``repro_subscribe_rebuilds_total`` as ``{reason: count}``."""
    exposition = parse_prometheus(render_prometheus(runtime.obs.registry))
    return {
        dict(labels)["reason"]: value
        for (name, labels), value in exposition.items()
        if name == "repro_subscribe_rebuilds_total"
    }


# ---------------------------------------------------------------------------
# kept == fresh


class TestKeptEqualsFresh:
    @pytest.mark.parametrize(
        "text, route, flows, warmup, closes",
        [
            (CLOUD_TOTAL, ROUTE_CLOUD, 100, 2, 4),
            (
                "SELECT TOTAL FROM TIME(60, 600) VS TIME(0, 60)",
                ROUTE_CLOUD, 100, 2, 4,
            ),
            # one site, past per-site compression onset
            (AT_ROUTER1, ROUTE_FEDERATED, 150, 2, 11),
            # two sites: the top merge is a real merge, not a lone partial
            (
                "SELECT TOTAL FROM ALL AT network1/region1",
                ROUTE_FEDERATED, 100, 2, 4,
            ),
            # first advanced after one close: the kept fold starts on the
            # stored entry / partition, unioned afresh when first extended
            (CLOUD_TOPK, ROUTE_CLOUD, 100, 1, 4),
            (AT_ROUTER1, ROUTE_FEDERATED, 150, 1, 10),
        ],
    )
    def test_advanced_per_close_equals_advanced_once(
        self, text, route, flows, warmup, closes
    ):
        runtime = build_runtime()
        planner = runtime.planner
        query = parse(text)
        drive(runtime, warmup, flows=flows)
        kept = planner.window_folds(planner.plan(query), query)
        for fold in kept:
            fold.advance(planner.clock)
        if warmup == 1:
            [held] = kept[0].trees
            assert stored_objects(runtime).get(id(held)) is held
        for epoch in range(warmup, warmup + closes):
            drive(runtime, 1, start=epoch, flows=flows)
            plan = planner.plan(query)
            assert plan.route == route
            fresh = planner.window_folds(plan, query)
            for old, new in zip(kept, fresh):
                assert old.resumable
                old.advance(planner.clock)
                new.advance(planner.clock)
                assert (
                    window_tree(old).to_dict() == window_tree(new).to_dict()
                )
            assert (
                answer(kept, query).to_wire()
                == answer(fresh, query).to_wire()
            )
        if text == AT_ROUTER1:
            # the horizon crossed the onset, or this pins nothing
            [(_, partial)] = kept[0].site_trees[ROUTER1]
            assert partial.compressions > 0

    def test_one_advance_folds_two_new_partitions_of_a_store(self):
        """Two closes between advances: the kept advance extends the
        site partial by both new partitions, in union order, and
        ships their union, as a fresh fold ships the whole window's."""
        runtime = build_runtime()
        planner = runtime.planner
        query = parse(AT_ROUTER1)
        drive(runtime, 2)
        kept = WindowFold(planner, planner.plan(query), query, query.time)
        first = kept.advance(planner.clock)
        drive(runtime, 2, start=2)
        tail = kept.advance(planner.clock)
        fresh = WindowFold(planner, planner.plan(query), query, query.time)
        cold_reads = fresh.advance(planner.clock)
        assert kept.resumable and fresh.resumable
        assert [len(read.partitions) for read in tail] == [2]
        assert window_tree(kept).to_dict() == window_tree(fresh).to_dict()
        assert kept.consumed == fresh.consumed == fresh.inputs()
        assert [read.shipped_bytes for read in first + tail] == [
            94_824, 93_960,
        ]
        assert [read.shipped_bytes for read in cold_reads] == [187_992]


# ---------------------------------------------------------------------------
# every breaker: its reason, and an answer equal to cold


class TestBreakers:
    def subscribe(self, runtime, text):
        drive(runtime, 2)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        assert subscription.views is not None
        return subscription

    def close_and_check(self, runtime, subscription, text, reason):
        drive(runtime, 1, start=2)
        update = subscription.latest()
        assert update.mode == MODE_REBUILD
        assert rebuild_reasons(runtime).get(reason) == 1, (
            rebuild_reasons(runtime)
        )
        expected = cold(runtime, text)
        assert update.result.to_wire() == expected.result.to_wire()
        assert update.degraded == expected.is_degraded
        return update

    def test_generation(self):
        runtime = build_runtime()
        subscription = self.subscribe(runtime, CLOUD_TOTAL)
        runtime.site_join("network1/region1/router9")
        self.close_and_check(runtime, subscription, CLOUD_TOTAL, "generation")

    def test_route_changed(self):
        """The root FlowDB starts covering a site the standing query
        read from its router: the plan moves federated -> cloud."""
        runtime = build_runtime()
        subscription = self.subscribe(runtime, AT_ROUTER1)
        assert subscription.views[0].plan.route == ROUTE_FEDERATED
        store = runtime.store_for(ROUTER1)
        for partition in store.catalog.all():
            runtime.db.insert(
                ROUTER1,
                partition.summary.meta.interval,
                partition.summary.payload,
            )
        update = self.close_and_check(
            runtime, subscription, AT_ROUTER1, "route-changed"
        )
        assert update.route == ROUTE_CLOUD

    def test_entry_prefix(self):
        """A whole-runtime restart re-ids the FlowDB entries."""
        runtime = build_runtime(
            faults=FaultPlan(restarts=[RestartDrill("cloud", 2)])
        )
        subscription = self.subscribe(runtime, CLOUD_TOTAL)
        drive(runtime, 1, start=2)
        assert runtime._restarts == 1
        assert rebuild_reasons(runtime) == {"entry-prefix": 1}
        assert subscription.latest().result.to_wire() == (
            cold(runtime, CLOUD_TOTAL).result.to_wire()
        )

    def test_partition_prefix(self):
        """A consumed partition expires out of the site's catalog."""
        runtime = build_runtime()
        subscription = self.subscribe(runtime, AT_ROUTER1)
        catalog = runtime.store_for(ROUTER1).catalog
        catalog.remove(catalog.all()[0].partition_id)
        self.close_and_check(
            runtime, subscription, AT_ROUTER1, "partition-prefix"
        )

    def test_replica_served(self):
        """Ad-hoc traffic buys a root replica of a consumed partition;
        a fresh read now serves it outside the site fold."""
        runtime = build_runtime()
        runtime.manager.enable_adaptive_replication(
            AdaptiveReplicationEngine(BreakEvenPolicy())
        )
        subscription = self.subscribe(runtime, AT_ROUTER1)
        for _ in range(6):
            if cold(runtime, AT_ROUTER1).plan.reads[0].replica_partitions:
                break
        else:
            pytest.fail("ski-rental never bought a replica")
        self.close_and_check(
            runtime, subscription, AT_ROUTER1, "replica-served"
        )
        # a replica-served window is answered, but not kept
        assert subscription.views is None

    def test_privacy_guard(self):
        runtime = build_runtime()
        subscription = self.subscribe(runtime, AT_ROUTER1)
        runtime.store_for(ROUTER1).privacy = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=16))
        )
        self.close_and_check(
            runtime, subscription, AT_ROUTER1, "privacy-guard"
        )
        assert subscription.views is None

    def test_degraded(self):
        """The site's link dies mid-advance: the torn folds are dropped
        and the boundary is answered by an honest degraded rebuild."""
        runtime = build_runtime()
        subscription = self.subscribe(runtime, AT_ROUTER1)
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 0, 10**9)])
        )
        drive(runtime, 1, start=2)
        update = subscription.latest()
        assert update.mode == MODE_REBUILD and update.degraded
        # once for the failed advance, once for the degraded snapshot
        assert rebuild_reasons(runtime) == {"degraded": 2}
        expected = cold(runtime, AT_ROUTER1)
        assert expected.is_degraded
        assert update.result.to_wire() == expected.result.to_wire()
        assert subscription.views is None

    def test_ordinary_closes_never_break(self):
        runtime = build_runtime()
        subscription = self.subscribe(runtime, AT_ROUTER1)
        drive(runtime, 3, start=2)
        assert subscription.latest().mode == MODE_DELTA
        assert rebuild_reasons(runtime) == {}
        assert subscription.delta_refreshes == 3


# ---------------------------------------------------------------------------
# fold trees are read-only


class TestReadOnlyTrees:
    def test_replica_payload_survives_being_served_directly(self):
        """A single-site window served from a root replica hands the
        replica's own tree to the operator tail (the lone-partial
        rule); answering — Diff included — must not write through."""
        runtime = build_runtime()
        runtime.manager.enable_adaptive_replication(
            AdaptiveReplicationEngine(BreakEvenPolicy())
        )
        drive(runtime, 1)
        text = f"SELECT TOTAL FROM ALL AT {ROUTER1}"
        for _ in range(6):
            if cold(runtime, text).plan.reads[0].served_locally:
                break
        replicas = runtime.planner.replica_store.replicas.all()
        assert len(replicas) == 1
        payload = replicas[0].summary.payload
        before = payload.to_dict()

        planner = runtime.planner
        query = parse(text)
        fold = WindowFold(planner, planner.plan(query), query, query.time)
        fold.advance(planner.clock)
        [held] = fold.trees
        assert held is payload  # aliased, not copied
        assert not fold.resumable

        for tail in (
            f"SELECT TOPK(5) FROM ALL AT {ROUTER1} BY bytes",
            f"SELECT HHH(0.05) FROM ALL AT {ROUTER1}",
            f"SELECT GROUPBY(dst_port, 8) FROM ALL AT {ROUTER1} LIMIT 3",
            f"SELECT ABOVE(10) FROM ALL AT {ROUTER1} WHERE proto = 6",
            f"SELECT TOTAL FROM TIME(0, 60) VS TIME(0, 60) AT {ROUTER1}",
        ):
            assert cold(runtime, tail).plan.reads[0].served_locally
        assert payload.to_dict() == before

    def test_drilldown_tree_serves_the_lone_partial(self):
        runtime = build_runtime()
        drive(runtime, 1)
        store = runtime.store_for(ROUTER1)
        stored = [p.summary.payload.to_dict() for p in store.catalog.all()]
        tree = runtime.planner.window_tree(ROUTER1, 0.0, EPOCH, now=EPOCH)
        assert tree.total() == cold(
            runtime, f"SELECT TOTAL FROM ALL AT {ROUTER1}"
        ).scalar
        assert [
            p.summary.payload.to_dict() for p in store.catalog.all()
        ] == stored


def count_tree_work(monkeypatch):
    """From now on: trees built, trees copied and nodes created.

    A union (merge, copy, diff) creates every node it adds inline, so
    nodes are counted as the ``node_count`` growth each
    ``Flowtree._absorb`` call causes.  Any other node a query path
    could create (ingest, ``subtree``, ``from_dict``) lands in a tree
    it built, which ``trees`` counts.
    """
    counts = {"trees": 0, "copies": 0, "nodes": 0}
    for attr, key in (("__init__", "trees"), ("copy", "copies")):
        def counted(
            *args, _original=getattr(Flowtree, attr), _key=key, **kwargs
        ):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Flowtree, attr, counted)

    def absorbed(tree, other, _original=Flowtree._absorb):
        before = tree.node_count
        _original(tree, other)
        counts["nodes"] += tree.node_count - before

    monkeypatch.setattr(Flowtree, "_absorb", absorbed)
    return counts


def stored_trees(runtime):
    """``to_dict()`` of every FlowDB entry and retained partition."""
    trees = {("flowdb", e.entry_id): e.tree for e in runtime.db.entries()}
    for level in runtime.store_levels():
        for label, store in runtime.stores_at_level(level).items():
            for partition in store.catalog.all():
                key = (label, partition.partition_id)
                trees[key] = partition.summary.payload
    return {key: tree.to_dict() for key, tree in trees.items()}


class TestBorrowedInputs:
    @pytest.mark.parametrize(
        "text, route",
        [
            ("SELECT TOPK(5) FROM TIME(0, 60) BY bytes", ROUTE_CLOUD),
            (
                f"SELECT TOPK(5) FROM TIME(0, 60) AT {ROUTER1} BY bytes",
                ROUTE_FEDERATED,
            ),
        ],
    )
    def test_one_input_window_is_answered_on_the_stored_tree(
        self, monkeypatch, text, route
    ):
        runtime = build_runtime()
        drive(runtime, 2)
        planner = runtime.planner
        query = parse(text)
        plan = planner.plan(query)
        assert plan.route == route
        if route == ROUTE_CLOUD:
            [entry] = runtime.db.entries(None, 0.0, EPOCH)
            stored = entry.tree
        else:
            [partition] = planner._window_partitions(
                plan.level, runtime.store_for(ROUTER1), 0.0, EPOCH
            )
            stored = partition.summary.payload
        counts = count_tree_work(monkeypatch)
        fold = WindowFold(planner, plan, query, query.time)
        fold.advance(planner.clock)
        [held] = fold.trees
        assert held is stored
        outcome = cold(runtime, text)
        assert counts == {"trees": 0, "copies": 0, "nodes": 0}
        if route == ROUTE_FEDERATED:
            # accounted as the combined copy was: the tree's own size
            assert outcome.plan.shipped_bytes == (
                stored.estimated_size_bytes()
            )

    def test_the_counter_sees_every_node_a_copy_creates(self, monkeypatch):
        """The ``nodes`` count above is not vacuous: copying a stored
        tree, as a fold that wrote through a borrowed input would have
        to, shows up as one tree, one copy and all of its nodes."""
        runtime = build_runtime()
        drive(runtime, 1)
        [entry] = runtime.db.entries(None, 0.0, EPOCH)
        counts = count_tree_work(monkeypatch)
        entry.tree.copy()
        assert entry.tree.node_count > 1
        assert counts == {
            "trees": 1, "copies": 1, "nodes": entry.tree.node_count - 1
        }


class TestRootOnlyFolds:
    """``TOTAL`` reads only the root, which Compress never changes: its
    kept folds hold their inputs, never a union, at every horizon."""

    TEXTS = (
        CLOUD_TOTAL,
        f"SELECT TOTAL FROM ALL AT {ROUTER1}",
        "SELECT TOTAL FROM TIME(60, 600) VS TIME(0, 60)",
    )

    def test_standing_totals_build_nothing_and_equal_cold(self, monkeypatch):
        runtime = build_runtime()
        planner = runtime.planner
        drive(runtime, 2, flows=150)
        kept = {}
        for text in self.TEXTS:
            query = parse(text)
            kept[text] = (
                query, planner.window_folds(planner.plan(query), query)
            )
            for fold in kept[text][1]:
                fold.advance(planner.clock)
        standing = {
            text: runtime.subscribe("SUBSCRIBE " + text)
            for text in self.TEXTS
        }
        counts = count_tree_work(monkeypatch)
        for epoch in range(2, 13):
            drive(runtime, 1, start=epoch, flows=150)
            counts.update(trees=0, copies=0, nodes=0)
            answers = {}
            for text, (query, folds) in kept.items():
                for fold in folds:
                    assert fold.resumable
                    fold.advance(planner.clock)
                answers[text] = answer(folds, query).to_wire()
            assert counts == {"trees": 0, "copies": 0, "nodes": 0}
            stored = stored_objects(runtime)
            for text, (query, folds) in kept.items():
                assert all(
                    stored.get(id(tree)) is tree
                    for fold in folds
                    for tree in fold.trees
                ), text
                expected = cold(runtime, text).result.to_wire()
                assert answers[text] == expected, (epoch, text)
                update = standing[text].latest()
                assert update.mode == MODE_DELTA
                assert update.result.to_wire() == expected
        [site_fold] = kept[self.TEXTS[1]][1]
        assert site_fold.plan.route == ROUTE_FEDERATED
        assert len(site_fold.site_trees[ROUTER1]) == 13
        # the horizon crossed per-site compression onset: the union a
        # cold read ships compresses, the partitions it sums do not
        inputs = site_fold.site_trees[ROUTER1]
        shipped = Flowtree.union(inputs, inputs[0][1].node_budget)
        assert shipped.compressions > 0


class TestStoredTreesNeverWritten:
    COLD = (
        ("SELECT TOPK(5) FROM TIME(0, 60) BY bytes", ROUTE_CLOUD),
        ("SELECT HHH(0.05) FROM ALL", ROUTE_CLOUD),
        ("SELECT TOTAL FROM TIME(60, 120) VS TIME(0, 60)", ROUTE_CLOUD),
        ("SELECT TOPK(3) FROM ALL VS TIME(0, 60)", ROUTE_CLOUD),
        (
            f"SELECT TOPK(5) FROM TIME(0, 60) AT {ROUTER1} BY bytes",
            ROUTE_FEDERATED,
        ),
        (
            f"SELECT GROUPBY(dst_port, 8) FROM ALL AT {ROUTER1} LIMIT 3",
            ROUTE_FEDERATED,
        ),
        (
            f"SELECT TOTAL FROM TIME(60, 120) VS TIME(0, 60) AT {ROUTER1}",
            ROUTE_FEDERATED,
        ),
        (
            "SELECT ABOVE(10) FROM TIME(0, 60) AT network1/region1",
            ROUTE_FEDERATED,
        ),
    )

    def test_no_query_path_writes_a_stored_tree(self):
        runtime = build_runtime()
        planner = runtime.planner
        snapshot = {}

        def close(epochs, start):
            drive(runtime, epochs, start=start)
            for key, tree in stored_trees(runtime).items():
                snapshot.setdefault(key, tree)

        close(1, 0)
        # both standing queries start on the stored trees, and union
        # them afresh at the next close, when they first extend them
        standing = {
            text: runtime.subscribe("SUBSCRIBE " + text)
            for text in (CLOUD_TOPK, AT_ROUTER1)
        }
        stored = stored_objects(runtime)
        assert all(
            stored.get(id(tree)) is tree
            for sub in standing.values()
            for tree in sub.views[0].trees
        )
        close(1, 1)
        for text, route in self.COLD:
            outcome = cold(runtime, text)
            assert outcome.plan.route == route, text
        assert planner.window_tree(ROUTER1, 0.0, EPOCH) is not None
        assert planner.window_tree(ROUTER1, 0.0, 2 * EPOCH) is not None
        close(2, 2)
        now = stored_trees(runtime)
        assert set(snapshot) <= set(now)
        assert {key: now[key] for key in snapshot} == snapshot
        for text, subscription in standing.items():
            update = subscription.latest()
            assert update.mode == MODE_DELTA and update.seq == 4
            assert update.result.to_wire() == (
                cold(runtime, text).result.to_wire()
            )
