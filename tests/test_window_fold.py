"""The window fold: one resumable assembler behind cold queries,
``SUBSCRIBE`` and drilldowns.

Three contracts are pinned here.  A fold advanced once per close is
tree-for-tree equal to a fresh fold advanced once (so delta == cold has
no second code path to drift from); every sequence breaker names its
reason on ``repro_subscribe_rebuilds_total`` and still answers exactly
what a cold execution answers; and a fold's tree — which may alias a
replica's payload — is never written through.
"""

from __future__ import annotations

import pytest

from repro.datastore.privacy import ExportRule, PrivacyGuard, PrivacyPolicy
from repro.faults import FaultPlan, LinkOutage, RestartDrill
from repro.flowql.parser import parse
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
    """Re-execute ``text`` from scratch, bypassing the result cache."""
    planner = runtime.planner
    saved, planner.cache = planner.cache, None
    try:
        return planner.execute(text)
    finally:
        planner.cache = saved


def rebuild_reasons(runtime):
    """``repro_subscribe_rebuilds_total`` as ``{reason: count}``."""
    family = runtime.planner.subscriptions.metrics.rebuilds
    return {labels[0]: child.value for labels, child in family.series()}


# ---------------------------------------------------------------------------
# kept == fresh


class TestKeptEqualsFresh:
    @pytest.mark.parametrize(
        "text, route, flows, closes",
        [
            (CLOUD_TOTAL, ROUTE_CLOUD, 100, 4),
            (
                "SELECT TOTAL FROM TIME(60, 600) VS TIME(0, 60)",
                ROUTE_CLOUD, 100, 4,
            ),
            # one site, past per-site compression onset
            (AT_ROUTER1, ROUTE_FEDERATED, 150, 11),
            # two sites: the top merge is a real merge, not a lone partial
            (
                "SELECT TOTAL FROM ALL AT network1/region1",
                ROUTE_FEDERATED, 100, 4,
            ),
        ],
    )
    def test_advanced_per_close_equals_advanced_once(
        self, text, route, flows, closes
    ):
        runtime = build_runtime()
        planner = runtime.planner
        query = parse(text)
        drive(runtime, 2, flows=flows)
        kept = planner.window_folds(planner.plan(query), query)
        for fold in kept:
            fold.advance(planner.clock)
        for epoch in range(2, 2 + closes):
            drive(runtime, 1, start=epoch, flows=flows)
            plan = planner.plan(query)
            assert plan.route == route
            fresh = planner.window_folds(plan, query)
            for old, new in zip(kept, fresh):
                assert old.resumable
                old.advance(planner.clock)
                new.advance(planner.clock)
                assert old.tree.to_dict() == new.tree.to_dict()
            assert (
                answer(kept, query).to_wire()
                == answer(fresh, query).to_wire()
            )
        if text == AT_ROUTER1:
            # the horizon crossed the onset, or this pins nothing
            partials = kept[0].site_trees[ROUTER1].values()
            assert any(tree.compressions > 0 for tree in partials)


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
        assert subscription.route == ROUTE_FEDERATED
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
        assert fold.tree is payload  # aliased, not copied
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
