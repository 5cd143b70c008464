"""Tests for the federated FlowQL query planner.

The planner is the PR's contract point: ``HierarchyRuntime.query``
answers must be indistinguishable from the pre-refactor cloud-only
executor whenever the root FlowDB holds the full rollup (the hypothesis
differential below), and must fan out to the shallowest covering level
— with caching and the replication feed — when it does not.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowtree import FlowtreePrimitive
from repro.datastore.aggregator import Aggregator
from repro.errors import FlowQLPlanningError
from repro.flowql.parser import parse
from tests.flowql_reference import FlowQLExecutor
from repro.query import ROUTE_CLOUD, ROUTE_FEDERATED
from repro.replication.engine import AdaptiveReplicationEngine
from repro.replication.ski_rental import BreakEvenPolicy
from repro.runtime.presets import network_4level_runtime
from repro.scenarios.network import NetworkScenario
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

EPOCH = 60.0


def loaded_runtime(
    networks=1,
    regions=1,
    routers=2,
    epochs=2,
    flows_per_epoch=150,
    seed=11,
    retain_partitions=True,
):
    runtime = network_4level_runtime(
        networks=networks,
        regions_per_network=regions,
        routers_per_region=routers,
        retain_partitions=retain_partitions,
    )
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows_per_epoch),
        seed=seed,
    )
    for epoch in range(epochs):
        for site in sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * EPOCH)
    return runtime


# ---------------------------------------------------------------------------
# the differential property: planner == cloud-only executor on rollups


@pytest.fixture(scope="module")
def rollup_runtime():
    """Two networks fully rolled up into FlowDB (cloud covers all)."""
    return loaded_runtime(
        networks=2, regions=1, routers=1, flows_per_epoch=120, seed=3,
        retain_partitions=False,
    )


OPERATORS = st.sampled_from(
    [
        "TOTAL",
        "TOPK(5)",
        "TOPK(2)",
        "ABOVE(1000)",
        "HHH(0.1)",
        "GROUPBY(dst_port, 16)",
        "GROUPBY(proto, 8)",
    ]
)
WINDOWS = st.sampled_from(
    ["ALL", "TIME(0, 60)", "TIME(60, 120)", "TIME(0, 120)", "TIME(30, 90)"]
)
SITES = st.sampled_from(
    [None, ("network1",), ("network2",), ("network1", "network2")]
)
WHERES = st.sampled_from([None, "dst_port = 443", "proto = 6"])
METRICS = st.sampled_from([None, "bytes", "packets"])
LIMITS = st.sampled_from([None, 1, 3])


def flowql_text(op, window, sites, where, metric, limit):
    text = f"SELECT {op} FROM {window}"
    if sites:
        text += " AT " + ", ".join(sites)
    if where:
        text += f" WHERE {where}"
    if metric:
        text += f" BY {metric}"
    if limit is not None:
        text += f" LIMIT {limit}"
    return text


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        op=OPERATORS,
        window=WINDOWS,
        sites=SITES,
        where=WHERES,
        metric=METRICS,
        limit=LIMITS,
    )
    def test_planner_matches_cloud_executor_on_full_rollup(
        self, rollup_runtime, op, window, sites, where, metric, limit
    ):
        """When the root FlowDB covers the query, routing through the
        planner must be answer-identical to the pre-refactor cloud-only
        executor — same scalar, same rows, node for node."""
        text = flowql_text(op, window, sites, where, metric, limit)
        expected = FlowQLExecutor(rollup_runtime.db).execute(text)
        got = rollup_runtime.query(text)
        plan = rollup_runtime.planner.last_plan
        assert plan.route == ROUTE_CLOUD
        assert got.operator == expected.operator
        assert got.scalar == expected.scalar
        assert got.rows == expected.rows

    @settings(max_examples=20, deadline=None)
    @given(op=OPERATORS, window=WINDOWS)
    def test_cached_repeat_is_answer_identical(
        self, rollup_runtime, op, window
    ):
        text = flowql_text(op, window, None, None, None, None)
        first = rollup_runtime.query(text)
        again = rollup_runtime.query(text)
        assert again.scalar == first.scalar
        assert again.rows == first.rows


# ---------------------------------------------------------------------------
# routing decisions


class TestRouting:
    def test_rolled_up_window_routes_to_cloud(self):
        runtime = loaded_runtime()
        result = runtime.query("SELECT TOTAL FROM ALL")
        plan = runtime.planner.last_plan
        assert plan.route == ROUTE_CLOUD
        assert plan.describe().startswith("cloud FlowDB")
        assert result.scalar.bytes > 0
        assert runtime.stats.queries_cloud == 1

    def test_edge_site_routes_to_shallowest_covering_level(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        result = runtime.query(f"SELECT TOTAL FROM ALL AT {site}")
        plan = runtime.planner.last_plan
        assert plan.route == ROUTE_FEDERATED
        assert plan.level == "router"
        assert plan.sites == [site]
        assert plan.shipped_bytes > 0
        assert result.scalar.bytes > 0
        assert runtime.stats.queries_federated == 1
        assert site in plan.describe()

    def test_repeated_site_counts_once(self):
        """``AT x, x`` ≡ ``AT x`` on both routes."""
        runtime = loaded_runtime()
        for site, route in (
            ("network1", ROUTE_CLOUD),
            (runtime.ingest_sites()[0], ROUTE_FEDERATED),
        ):
            once = runtime.query(f"SELECT TOTAL FROM ALL AT {site}")
            twice = runtime.query(f"SELECT TOTAL FROM ALL AT {site}, {site}")
            assert once.plan.route == twice.plan.route == route
            assert not twice.cache.hit
            assert twice.scalar == once.scalar

    def test_federated_drilldowns_sum_to_cloud_total(self):
        """Merge is mass-preserving: per-router partials recombined by
        the planner add up to exactly the root rollup's answer."""
        runtime = loaded_runtime(routers=3, flows_per_epoch=200)
        total = runtime.query("SELECT TOTAL FROM ALL").scalar
        per_site = [
            runtime.query(f"SELECT TOTAL FROM ALL AT {site}").scalar
            for site in runtime.ingest_sites()
        ]
        assert sum(s.bytes for s in per_site) == total.bytes
        assert sum(s.packets for s in per_site) == total.packets

    def test_vs_window_diffs_federated_partials(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        result = runtime.query(
            f"SELECT TOTAL FROM TIME(60, 120) VS TIME(0, 60) AT {site}"
        )
        plan = runtime.planner.last_plan
        assert plan.route == ROUTE_FEDERATED
        assert result.scalar is not None
        # both windows were read at the router
        assert len(plan.reads) == 2

    def test_uncovered_site_raises_planning_error(self):
        """Without retained interior partitions an ancestor store must
        NOT answer for a deeper site (it would fold in siblings)."""
        runtime = loaded_runtime(retain_partitions=False)
        site = runtime.ingest_sites()[0]
        with pytest.raises(FlowQLPlanningError):
            runtime.query(f"SELECT TOTAL FROM ALL AT {site}")

    def test_empty_window_raises_planning_error(self):
        runtime = loaded_runtime()
        with pytest.raises(FlowQLPlanningError):
            runtime.query("SELECT TOTAL FROM TIME(5000, 6000)")

    def test_plan_is_side_effect_free(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        from repro.flowql.parser import parse

        before = runtime.total_network_bytes()
        plan = runtime.planner.plan(parse(f"SELECT TOTAL FROM ALL AT {site}"))
        assert plan.route == ROUTE_FEDERATED
        assert runtime.total_network_bytes() == before
        assert plan.reads == []


# ---------------------------------------------------------------------------
# caching through the planner


KEYED = (
    "SELECT TOPK(3) FROM TIME(0, 60) VS TIME(60, 120) "
    "AT network1/region1/router1 WHERE src_ip = 10.0.0.0/8 "
    "BY bytes LIMIT 5"
)


def _respelled(old, new):
    """A key input change: one edit to :data:`KEYED`'s text."""
    return lambda runtime, query, plan: (
        parse(KEYED.replace(old, new)), plan
    )


def _replanned(**changes):
    """A key input change: the same query under another plan."""
    return lambda runtime, query, plan: (query, replace(plan, **changes))


def _replica_bought(runtime, query, plan):
    store = runtime.store_for("network1/region1/router1")
    partition = store.catalog.all()[0]
    store.replicate_partition(
        partition.partition_id, runtime.planner.replica_store
    )
    return query, plan


def _site_joined(runtime, query, plan):
    runtime.site_join("network1/region1/router9")
    return query, plan


class TestPlannerCache:
    def test_repeat_is_cache_hit_with_no_new_traffic(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        text = f"SELECT TOPK(3) FROM ALL AT {site} BY bytes"
        first = runtime.query(text)
        moved = runtime.total_network_bytes()
        again = runtime.query(text)
        plan = runtime.planner.last_plan
        assert plan.cache_hit is True
        assert plan.describe().startswith("cache (federated)")
        assert runtime.stats.queries_cached == 1
        assert runtime.total_network_bytes() == moved
        assert again.rows == first.rows

    def test_cached_result_is_a_defensive_copy(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        text = f"SELECT TOPK(3) FROM ALL AT {site} BY bytes"
        first = runtime.query(text)
        first.rows.clear()  # a caller mutating its copy...
        again = runtime.query(text)
        assert again.rows  # ...must not poison the cache

    def test_invalidated_cache_reads_again(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        text = f"SELECT TOTAL FROM ALL AT {site}"
        for _ in range(2):
            runtime.planner.invalidate_cache()
            runtime.query(text)
        assert runtime.stats.queries_cached == 0
        assert runtime.stats.queries_federated == 2

    def test_different_sites_never_conflated(self):
        runtime = loaded_runtime()
        sites = runtime.ingest_sites()
        a = runtime.query(f"SELECT TOTAL FROM ALL AT {sites[0]}")
        b = runtime.query(f"SELECT TOTAL FROM ALL AT {sites[1]}")
        assert runtime.stats.queries_cached == 0
        assert (a.scalar.bytes, a.scalar.packets) != (
            b.scalar.bytes,
            b.scalar.packets,
        )

    @pytest.mark.parametrize(
        "change",
        [
            _respelled("TOPK(3)", "HHH(3)"),
            _respelled("TOPK(3)", "TOPK(4)"),
            _respelled("TIME(0, 60)", "TIME(0, 30)"),
            _respelled("TIME(60, 120)", "TIME(60, 90)"),
            _respelled("router1", "router2"),
            _respelled("10.0.0.0/8", "11.0.0.0/8"),
            _respelled("10.0.0.0/8", "10.0.0.0/16"),
            _respelled("BY bytes", "BY packets"),
            _respelled("LIMIT 5", "LIMIT 6"),
            _replanned(route=ROUTE_CLOUD),
            _replanned(level="region"),
            _replica_bought,
            _site_joined,
        ],
        ids=[
            "operator", "arg", "from", "vs", "sites", "where-value",
            "where-mask", "metric", "limit", "route", "level",
            "replica-count", "topology-generation",
        ],
    )
    def test_every_key_input_changes_the_key(self, change):
        runtime = loaded_runtime()
        planner = runtime.planner
        query = parse(KEYED)
        plan = planner.plan(query)
        key = planner.cache_key(query, plan)
        assert planner.cache_key(*change(runtime, query, plan)) != key

    def test_spellings_of_one_query_share_a_key(self):
        runtime = loaded_runtime()
        planner = runtime.planner
        spellings = [
            KEYED,
            KEYED.replace(" BY bytes", ""),  # bytes is the default
            KEYED.lower(),
            KEYED.replace("TIME(0, 60)", "TIME(0.0, 60.0)").replace(
                "TOPK(3)", "TOPK(3.0)"
            ),
            "  ".join(KEYED.split(" ")),
        ]
        keys = set()
        for text in spellings:
            query = parse(text)
            keys.add(planner.cache_key(query, planner.plan(query)))
        assert len(keys) == 1


# ---------------------------------------------------------------------------
# the replication feedback loop driven by FlowQL traffic


class TestReplicationFeed:
    def test_repeated_queries_turn_reads_local(self):
        runtime = loaded_runtime()
        engine = AdaptiveReplicationEngine(BreakEvenPolicy())
        runtime.manager.enable_adaptive_replication(engine)
        site = runtime.ingest_sites()[0]
        text = f"SELECT TOTAL FROM ALL AT {site}"
        for _ in range(6):
            # isolate replication from caching
            runtime.planner.invalidate_cache()
            runtime.query(text)
            if runtime.planner.last_plan.reads[0].served_locally:
                break
        assert engine.outcomes  # ski-rental bought at least one replica
        moved = runtime.total_network_bytes()
        runtime.planner.invalidate_cache()
        runtime.query(text)
        read = runtime.planner.last_plan.reads[0]
        assert read.served_locally
        assert read.shipped_bytes == 0
        assert runtime.total_network_bytes() == moved

    def test_per_level_query_stats_accumulate(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        runtime.query(f"SELECT TOTAL FROM ALL AT {site}")
        volume = runtime.stats.level("router")
        assert volume.queries_served == 1
        assert volume.query_bytes_out > 0


# ---------------------------------------------------------------------------
# the drilldown API applications use


class TestWindowTree:
    def test_window_tree_matches_store_contents(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        tree = runtime.planner.window_tree(site, 0.0, EPOCH, now=2 * EPOCH)
        assert tree is not None
        assert tree.total().bytes > 0

    def test_window_tree_empty_window_is_none(self):
        runtime = loaded_runtime()
        site = runtime.ingest_sites()[0]
        assert (
            runtime.planner.window_tree(site, 900.0, 960.0, now=2 * EPOCH)
            is None
        )


# ---------------------------------------------------------------------------
# one aggregator per store: a read counts each flow once


class TestOneAggregatorPerStore:
    """A bare level's store holds the Flowtree aggregators applications
    installed; a federated read takes one of them."""

    AT_ROUTER = "SELECT TOTAL FROM ALL AT network/region1/router1"

    def scenario(self, **apps):
        scenario = NetworkScenario(
            regions=1, routers_per_region=1, flows_per_epoch=300, seed=3,
            **apps,
        )
        scenario.run(epochs=1)
        return scenario

    def test_aggregators_alike_count_each_flow_once(self):
        """Trends and matrix summarize one stream alike; the read takes
        one of them (summing both would count 600 flows)."""
        scenario = self.scenario(with_ddos=False)
        store = scenario.runtime.store_at(scenario.sites[0])
        assert len(store.aggregators()) == 2
        outcome = scenario.runtime.query(self.AT_ROUTER)
        assert outcome.scalar.flows == 300
        assert outcome.plan.reads[0].partitions == [
            p.partition_id
            for p in store.catalog.all()
            if p.aggregator.startswith("matrix/")
        ]

    def test_aggregators_that_differ_are_a_planning_error(self):
        """Trends and DDoS cut the flows under different policies: a
        typed refusal naming both, not a ``SchemaMismatchError`` from
        inside the merge."""
        scenario = self.scenario(with_matrix=False)
        with pytest.raises(FlowQLPlanningError) as info:
            scenario.runtime.query(self.AT_ROUTER)
        message = str(info.value)
        assert "ddos/cloud/network/region1/router1" in message
        assert "trends/cloud/network/region1/router1" in message

    def test_drilldown_reads_its_own_aggregator(self):
        scenario = self.scenario(with_matrix=False)
        site = scenario.sites[0]
        tree = scenario.runtime.planner.window_tree(
            site, 0.0, EPOCH,
            aggregator=scenario.ddos_app.aggregator_name(site),
        )
        assert tree.total().flows == 300

    def test_installed_level_reads_only_its_aggregator(self):
        """A second Flowtree aggregator installed beside a level's own
        is not read by FlowQL."""
        runtime = network_4level_runtime(
            networks=1, regions_per_network=1, routers_per_region=1,
            retain_partitions=True,
        )
        [site] = runtime.ingest_sites()
        store = runtime.store_for(site)
        store.install_aggregator(
            Aggregator(
                "extra",
                FlowtreePrimitive(store.location, runtime.policy),
            )
        )
        generator = TrafficGenerator(
            TrafficConfig(sites=(site,), flows_per_epoch=150), seed=11
        )
        runtime.ingest(site, generator.epoch(site, 0))
        runtime.close_epoch(EPOCH)
        assert {p.aggregator for p in store.catalog.all()} >= {"extra"}
        outcome = runtime.query(f"SELECT TOTAL FROM ALL AT {site}")
        assert outcome.plan.route == ROUTE_FEDERATED
        assert outcome.scalar.flows == 150
