"""Elastic topology: live reconfiguration with mass conservation.

The paper's Sec. V.A self-adaptation, as a testable contract.  The
hierarchy is a mutable, generation-versioned :class:`TopologyModel`;
``site_join``/``site_leave``/``level_split``/``level_merge``/
``migrate_store`` reshape it live between epoch closes, migrating
stranded summary state over the (possibly faulty) fabric.  The
anchor property: **root mass is conserved across arbitrary
reconfiguration sequences with a nonzero-drop fault plan running** —
migrations that cannot be delivered park as pending forwards and
redeliver on later closes, delayed but never lost.  A run that issues
zero reconfig ops never bumps the generation and stays bit-identical
to the pre-elastic runtime (pinned by the golden trace's exact WAN,
mass and digest in ``tests/test_golden_trace.py``, and spot-checked
here).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.requirements import ApplicationRequirement
from repro.errors import PlacementError
from repro.faults import FaultPlan, ReconfigDrill
from repro.runtime.config import LevelConfig
from repro.runtime.presets import network_4level_runtime, tiered_runtime
from repro.runtime.runtime import _MAX_BUDGET, _resized
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

SITES = ["east/r1", "east/r2", "west/r3"]


def make_runtime(**kwargs):
    return tiered_runtime(sites=list(SITES), **kwargs)


def traffic(sites=None, flows=120, seed=11):
    return TrafficGenerator(
        TrafficConfig(sites=tuple(sites or SITES), flows_per_epoch=flows),
        seed=seed,
    )


def ingest_epoch(runtime, generator, epoch, origin=None):
    """Feed one epoch into every current ingest site.

    ``origin`` maps a renamed site back to its trace label so the
    record count stays a pure function of (sites, epoch).
    """
    for site in runtime.ingest_sites():
        label = (origin or {}).get(site, site)
        runtime.ingest(site, generator.epoch(label, epoch))


def drain(runtime, start_close=10):
    """Close empty epochs until every parked export is delivered."""
    closes = 0
    while runtime.pending_exports() and closes < 12:
        closes += 1
        runtime.close_epoch((start_close + closes) * 60.0)
    assert runtime.pending_exports() == 0
    return closes


def root_flows(runtime):
    runtime.inject_faults(None)
    return runtime.query("SELECT TOTAL FROM ALL").scalar.flows


class TestGenerationVersioning:
    def test_static_run_stays_generation_zero(self):
        runtime = make_runtime()
        generator = traffic()
        for epoch in range(2):
            ingest_epoch(runtime, generator, epoch)
            runtime.close_epoch((epoch + 1) * 60.0)
        assert runtime.model.generation == 0
        assert runtime.model.ledger.op_counts == {}

    def test_each_op_bumps_generation(self):
        runtime = make_runtime()
        assert runtime.site_join("east/r9").location.path == "cloud/east/r9"
        assert runtime.model.generation == 1
        runtime.site_leave("east/r9")
        assert runtime.model.generation == 2
        runtime.migrate_store("east/r1", "west")
        assert runtime.model.generation == 3
        counts = runtime.model.ledger.op_counts
        assert counts == {
            "site_join": 1, "site_leave": 1, "migrate_store": 1
        }

    def test_generation_bump_notifies_subscribers(self):
        runtime = make_runtime()
        seen = []
        runtime.model.subscribe(lambda model, op: seen.append(op))
        runtime.site_join("west/r4")
        assert seen == ["site_join"]

    def test_query_cache_invalidated_by_reconfig(self):
        runtime = make_runtime()
        generator = traffic()
        ingest_epoch(runtime, generator, 0)
        runtime.close_epoch(60.0)
        runtime.query("SELECT TOTAL FROM ALL")
        hits_before = runtime.planner.cache.hits
        runtime.query("SELECT TOTAL FROM ALL")
        assert runtime.planner.cache.hits == hits_before + 1
        runtime.site_join("east/r9")
        # same text, new topology: must miss, not serve the stale entry
        runtime.query("SELECT TOTAL FROM ALL")
        assert runtime.planner.cache.hits == hits_before + 1


class TestSiteJoin:
    def test_joined_site_is_provisioned_and_ingestible(self):
        runtime = make_runtime()
        node = runtime.site_join("east/r9")
        assert node.level.name == "router"
        assert "east/r9" in runtime.ingest_sites()
        generator = traffic(sites=SITES + ["east/r9"])
        ingest_epoch(runtime, generator, 0)
        runtime.close_epoch(60.0)
        assert root_flows(runtime) == 120 * 4

    def test_join_under_unknown_parent_rejected(self):
        runtime = make_runtime()
        with pytest.raises(PlacementError):
            runtime.site_join("nowhere/r9")

    def test_duplicate_join_rejected(self):
        runtime = make_runtime()
        with pytest.raises(PlacementError):
            runtime.site_join("east/r1")


class TestSiteLeave:
    def test_live_mass_migrates_to_sibling(self):
        runtime = make_runtime()
        generator = traffic()
        ingest_epoch(runtime, generator, 0)
        moved = runtime.site_leave("east/r2", now=30.0)
        assert moved > 0
        assert runtime.model.ledger.migrated_summaries >= 1
        assert "east/r2" not in runtime.ingest_sites()
        runtime.close_epoch(60.0)
        assert root_flows(runtime) == 120 * 3

    def test_closed_epoch_history_survives_via_replicas(self):
        runtime = make_runtime()
        generator = traffic()
        ingest_epoch(runtime, generator, 0)
        runtime.close_epoch(60.0)
        before = root_flows(runtime)
        runtime.site_leave("east/r2")
        assert root_flows(runtime) == before

    def test_root_cannot_leave(self):
        runtime = make_runtime()
        with pytest.raises(PlacementError):
            runtime.site_leave("")

    def test_outage_parks_migration_then_redelivers(self):
        plan = FaultPlan.from_spec("outage=east:0-2")
        runtime = make_runtime(faults=plan)
        generator = traffic()
        ingest_epoch(runtime, generator, 0)
        moved = runtime.site_leave("east/r2", now=30.0)
        assert moved == 0
        assert len(runtime.model.ledger.pending) == 1
        runtime.close_epoch(60.0)
        drain(runtime)
        assert runtime.model.ledger.pending == []
        assert root_flows(runtime) == 120 * 3


class TestLevelSplitMerge:
    def test_split_rekeys_sites_and_conserves_mass(self):
        runtime = make_runtime()
        generator = traffic()
        ingest_epoch(runtime, generator, 0)
        runtime.close_epoch(60.0)
        created = runtime.level_split(
            "router", "pod", {"pod1": ["east/r1", "east/r2"]},
            config=LevelConfig(aggregator="flowtree", node_budget=2048),
        )
        assert [node.location.path for node in created] == [
            "cloud/east/pod1"
        ]
        assert sorted(runtime.ingest_sites()) == [
            "east/pod1/r1", "east/pod1/r2", "west/r3"
        ]
        assert root_flows(runtime) == 120 * 3
        # the re-keyed sites keep ingesting; the new tier exports too
        origin = {"east/pod1/r1": "east/r1", "east/pod1/r2": "east/r2"}
        ingest_epoch(runtime, generator, 1, origin=origin)
        runtime.close_epoch(120.0)
        assert root_flows(runtime) == 120 * 6

    def test_merge_restores_shape_and_conserves_mass(self):
        runtime = make_runtime()
        generator = traffic()
        runtime.level_split(
            "router", "pod", {"pod1": ["east/r1", "east/r2"]},
            config=LevelConfig(aggregator="flowtree", node_budget=2048),
        )
        origin = {"east/pod1/r1": "east/r1", "east/pod1/r2": "east/r2"}
        ingest_epoch(runtime, generator, 0, origin=origin)
        runtime.close_epoch(60.0)
        runtime.level_merge("pod", now=60.0)
        assert sorted(runtime.ingest_sites()) == sorted(SITES)
        assert "pod" not in [
            spec.name for spec in runtime.hierarchy.levels()
        ]
        assert root_flows(runtime) == 120 * 3
        ingest_epoch(runtime, generator, 1)
        runtime.close_epoch(120.0)
        assert root_flows(runtime) == 120 * 6

    def test_split_validates_groups(self):
        runtime = make_runtime()
        with pytest.raises(PlacementError):
            runtime.level_split("router", "pod", {})
        with pytest.raises(PlacementError):
            runtime.level_split(
                "router", "pod", {"p": ["east/r1", "west/r3"]}
            )
        with pytest.raises(PlacementError):
            runtime.level_split("router", "router", {"p": ["east/r1"]})


class TestMigrateStore:
    def test_rekeys_stores_and_pending_queues(self):
        plan = FaultPlan.from_spec("outage=east/r1:0-2")
        runtime = make_runtime(faults=plan)
        generator = traffic()
        ingest_epoch(runtime, generator, 0)
        runtime.close_epoch(60.0)  # r1's export parks under the outage
        assert runtime.pending_exports() == 1
        renames = runtime.migrate_store("east/r1", "west", now=70.0)
        assert renames == {"cloud/east/r1": "cloud/west/r1"}
        assert "west/r1" in runtime.ingest_sites()
        # the parked export re-delivers toward the *new* parent
        drain(runtime)
        assert root_flows(runtime) == 120 * 3

    def test_collision_rejected_before_any_mutation(self):
        runtime = make_runtime()
        runtime.site_join("west/r1")
        nodes_before = len(runtime.hierarchy.nodes())
        with pytest.raises(PlacementError):
            runtime.migrate_store("east/r1", "west")
        assert len(runtime.hierarchy.nodes()) == nodes_before
        assert "east/r1" in runtime.ingest_sites()


class TestAdaptiveBudgets:
    """The adaptive cycle: one budget decision per level per close, from
    the trees the level sealed, and the only automatic budget writer."""

    def test_pressure_grows_budget_within_clamps(self):
        runtime = tiered_runtime(
            sites=list(SITES), router_node_budget=64, region_node_budget=64
        )
        runtime.enable_adaptive_budgets()
        generator = traffic(flows=2000)
        for epoch in range(2):
            ingest_epoch(runtime, generator, epoch)
            runtime.close_epoch((epoch + 1) * 60.0)
        assert 64 < runtime.levels["router"].node_budget <= _MAX_BUDGET
        assert runtime.model.ledger.op_counts.get("budget_resize", 0) >= 1
        assert runtime.model.generation == 0  # resizes don't bump
        last = runtime.model.census()["resizes"]["router"]
        assert last["new"] == runtime.levels["router"].node_budget
        assert last["old"] < last["new"] and last["pressure"] >= 2.0

    def test_idle_level_shrinks_but_respects_min(self):
        # one router per region: two-flow epochs of sibling routers
        # share neither time nor location
        runtime = tiered_runtime(sites=["east/r1"], router_node_budget=256)
        runtime.enable_adaptive_budgets()
        generator = traffic(sites=["east/r1"], flows=2)
        for epoch in range(4):
            ingest_epoch(runtime, generator, epoch)
            runtime.close_epoch((epoch + 1) * 60.0)
        floor = max(64, runtime.policy.depth + 1)
        assert runtime.levels["router"].node_budget == floor
        for store in runtime.stores_at_level("router").values():
            assert store.aggregator("flowtree").primitive.node_budget == floor

    def test_budget_floor_never_violates_chain_depth(self):
        # an idle, empty level halves, but never below the global floor
        # of 64 nor below the tree's chain
        assert _resized(256, 0.0, 0.0, floor=14) == 128
        assert _resized(100, 0.0, 0.0, floor=14) == 64
        assert _resized(64, 0.0, 0.0, floor=14) is None
        assert _resized(256, 0.0, 0.0, floor=200) == 200
        assert _resized(8, 0.0, 0.0, floor=200) == 200
        # busy levels grow up to the ceiling, half-full ones hold
        assert _resized(256, 2.0, 1.0, floor=14) == 512
        assert _resized(_MAX_BUDGET, 5.0, 1.0, floor=14) is None
        assert _resized(256, 1.0, 0.1, floor=14) is None
        assert _resized(256, 0.0, 0.5, floor=14) is None

    def test_interior_level_never_shrinks_while_full(self):
        """The decision reads what each level sealed: a region tree is
        filled by its routers' forwards during the rollup, so it must
        not read as empty."""
        runtime = tiered_runtime(
            sites=list(SITES), router_node_budget=256, region_node_budget=256
        )
        runtime.enable_adaptive_budgets()
        regions = runtime.stores_at_level("region").values()
        generator = traffic(flows=3000)
        full_closes = 0
        for epoch in range(4):
            before = runtime.levels["region"].node_budget
            now = (epoch + 1) * 60.0
            ingest_epoch(runtime, generator, epoch)
            runtime.close_epoch(now)
            sealed = [
                partition.summary.attrs
                for store in regions
                for partition in store.catalog.all()
                if partition.created_at == now
            ]
            fullness = sum(
                attrs["nodes"] / attrs["node_budget"] for attrs in sealed
            ) / len(sealed)
            if fullness > 0.25:
                full_closes += 1
                assert runtime.levels["region"].node_budget >= before
        assert full_closes == 4

    def test_tuner_off_budgets_have_one_writer(self):
        """Storage pressure above 0.5 resizes no Flowtree: with the
        adaptive cycle off, every budget stays as configured."""
        runtime = tiered_runtime(
            sites=list(SITES), router_node_budget=512,
            region_node_budget=512, store_budget_bytes=48 * 1024,
        )
        generator = traffic(flows=600)
        for epoch in range(5):
            ingest_epoch(runtime, generator, epoch)
            runtime.close_epoch((epoch + 1) * 60.0)
        regions = runtime.stores_at_level("region").values()
        assert max(store.storage_pressure() for store in regions) > 0.5
        for level, config in runtime.levels.items():
            for store in runtime.stores_at_level(level).values():
                primitive = store.aggregator("flowtree").primitive
                assert primitive.node_budget == config.node_budget == 512
                assert primitive.tree.node_budget == 512
        assert "budget_resize" not in runtime.model.ledger.op_counts


class TestReconfigDrills:
    def test_drill_fires_once_after_named_epoch(self):
        plan = FaultPlan.from_spec("reconfig=leave:east/r2:0")
        runtime = make_runtime(faults=plan)
        generator = traffic()
        ingest_epoch(runtime, generator, 0)
        runtime.close_epoch(60.0)
        assert runtime.model.generation == 1
        assert "east/r2" not in runtime.ingest_sites()
        ingest_epoch(runtime, generator, 1)
        runtime.close_epoch(120.0)
        assert runtime.model.generation == 1  # not re-applied
        assert root_flows(runtime) == 120 * 3 + 120 * 2

    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "reconfig=migrate:east/r1>west:2,reconfig=join:east/r9:0"
        )
        assert plan.reconfigs == [
            ReconfigDrill("migrate", "east/r1", 2, "west"),
            ReconfigDrill("join", "east/r9", 0),
        ]
        assert "reconfig[east/r1>west]=migrate@2" in plan.describe()

    @pytest.mark.parametrize(
        "spec",
        [
            "reconfig=explode:east/r1:0",
            "reconfig=leave:east/r1",
            "reconfig=migrate:east/r1:2",
            "reconfig=leave:east/r1:-1",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(PlacementError):
            FaultPlan.from_spec(spec)


def deploy_probe_app(runtime):
    """An application with one aggregator at every store, fed no flow
    (its stream prefix matches none), so root mass is untouched."""
    return [
        runtime.manager.submit_requirement(
            ApplicationRequirement(
                app_name="probe",
                aggregator_name="probe/temps",
                kind="timebin",
                location=store.location,
                stream_prefix="telemetry/",
            )
        )
        for store in runtime.stores()
    ]


def assert_withdrawn(runtime, created):
    """Withdrawing the probe app removes every aggregator it created,
    wherever reconfiguration moved its store, and no level's own."""
    assert runtime.manager.withdraw_application("probe") == len(created)
    for store in runtime.stores():
        installed = store.aggregators()
        assert not any(
            aggregator is mine for aggregator in installed for mine in created
        )
        level = runtime.hierarchy.node(store.location).level.name
        name = runtime.levels[level].resolved_aggregator_name
        assert name in {aggregator.name for aggregator in installed}


OPS = st.lists(
    st.sampled_from(["join", "leave", "split", "merge", "migrate", "close"]),
    min_size=1,
    max_size=7,
)


class TestMassConservationProperty:
    @given(ops=OPS, drop=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_root_mass_conserved_across_reconfig_sequences(
        self, ops, drop, seed
    ):
        """The anchor property: arbitrary reconfig sequences under a
        nonzero-drop fault plan never lose mass — migrations and
        exports may park, but recovery closes deliver everything.  An
        application deployed before the sequence still withdraws
        completely after it."""
        plan = FaultPlan(seed=seed, drop_probability=drop)
        runtime = make_runtime(faults=plan)
        created = deploy_probe_app(runtime)
        generator = traffic()
        joined = 0
        ingested = 0
        clock = 0.0
        ingest_epoch(runtime, generator, 0)
        ingested += 120 * len(runtime.ingest_sites())
        for op in ops:
            sites = runtime.ingest_sites()
            level_names = [spec.name for spec in runtime.hierarchy.levels()]
            if op == "join":
                joined += 1
                runtime.site_join(f"west/grown{joined}")
            elif op == "leave":
                leavable = [
                    site for site in sites if site.startswith("west/grown")
                ]
                if leavable:
                    runtime.site_leave(leavable[0], now=clock)
            elif op == "split":
                members = [
                    site for site in sites
                    if site in ("east/r1", "east/r2")
                ]
                if "pod" not in level_names and members:
                    runtime.level_split(
                        "router", "pod", {"pod1": members},
                        config=LevelConfig(
                            aggregator="flowtree", node_budget=2048
                        ),
                    )
            elif op == "merge":
                if "pod" in level_names:
                    runtime.level_merge("pod", now=clock)
            elif op == "migrate":
                if "east/r2" in sites:
                    runtime.migrate_store("east/r2", "west", now=clock)
                elif "west/r2" in sites:
                    runtime.migrate_store("west/r2", "east", now=clock)
            else:
                clock += 60.0
                runtime.close_epoch(clock)
        clock += 60.0
        runtime.close_epoch(clock)
        runtime.inject_faults(None)
        closes = 0
        while runtime.pending_exports() and closes < 12:
            closes += 1
            clock += 60.0
            runtime.close_epoch(clock)
        assert runtime.pending_exports() == 0
        assert runtime.model.ledger.pending == []
        assert root_flows(runtime) == ingested
        assert_withdrawn(runtime, created)


class TestZeroReconfigIdentity:
    def test_four_level_preset_unchanged_by_elastic_seam(self):
        """Same preset, same trace: mass, WAN bytes, and volume stats
        must not depend on the elastic machinery existing."""
        outcomes = []
        for _ in range(2):
            runtime = network_4level_runtime(
                networks=1, regions_per_network=2, routers_per_region=2
            )
            generator = TrafficGenerator(
                TrafficConfig(
                    sites=tuple(runtime.ingest_sites()), flows_per_epoch=150
                ),
                seed=7,
            )
            for epoch in range(2):
                for site in runtime.ingest_sites():
                    runtime.ingest(site, generator.epoch(site, epoch))
                runtime.close_epoch((epoch + 1) * 60.0)
            outcomes.append(
                (
                    runtime.query("SELECT TOTAL FROM ALL").scalar,
                    runtime.wan_bytes(),
                    runtime.stats.epochs_closed,
                    runtime.model.generation,
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3] == 0
