"""Tests for the generic arbitrary-depth :class:`HierarchyRuntime`.

Covers the unification contract: the 4-level presets run end-to-end
(ingest → per-level rollup → FlowQL → fabric accounting), a 4-level
runtime with an unbounded extra tier is *answer-identical* to the
3-level tiered preset, and root mass is conserved across any rollup
depth.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError, SchemaMismatchError
from repro.flows.flowkey import FIVE_TUPLE, SRC_DST
from repro.flows.records import PacketRecord, Score
from repro.hierarchy.topology import Hierarchy
from repro.runtime import (
    EXPORT_NONE,
    HierarchyRuntime,
    LevelConfig,
    factory_4level_runtime,
    flat_runtime,
    network_4level_runtime,
    tiered_runtime,
)
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

TIERED_SITES = [
    "region1/router1",
    "region1/router2",
    "region2/router1",
    "region2/router2",
]


@pytest.fixture(scope="module")
def generator():
    return TrafficGenerator(
        TrafficConfig(sites=tuple(TIERED_SITES), flows_per_epoch=500),
        seed=23,
    )


class TestConstruction:
    def test_unknown_level_rejected(self):
        hierarchy = Hierarchy.from_site_paths(["a/b"])
        with pytest.raises(PlacementError):
            HierarchyRuntime(hierarchy, {"warehouse": LevelConfig()})

    def test_needs_some_level(self):
        hierarchy = Hierarchy.from_site_paths(["a/b"])
        with pytest.raises(PlacementError):
            HierarchyRuntime(hierarchy, {})

    def test_flat_preset_rejects_ragged_depths(self):
        # the tiered preset also needs every site exactly region/router
        for preset, sites, named in (
            (flat_runtime, ["region1/router1", "lonesite"], "depths"),
            (tiered_runtime, ["a/b", "c"], "'c'"),
            (tiered_runtime, ["lonesite"], "'lonesite'"),
            (tiered_runtime, ["a/b/c"], "'a/b/c'"),
        ):
            with pytest.raises(PlacementError, match=named):
                preset(sites)

    def test_network_4level_store_census(self):
        runtime = network_4level_runtime(
            networks=2, regions_per_network=2, routers_per_region=2
        )
        assert len(runtime.stores_at_level("router")) == 8
        assert len(runtime.stores_at_level("region")) == 4
        assert len(runtime.stores_at_level("network")) == 2
        # raw data enters only at the routers
        assert sorted(runtime.ingest_sites()) == sorted(
            runtime.stores_at_level("router")
        )

    def test_ingest_rejects_interior_sites(self):
        runtime = network_4level_runtime()
        with pytest.raises(PlacementError):
            runtime.ingest("network1/region1", [])
        with pytest.raises(PlacementError):
            runtime.ingest("nowhere", [])

    def test_bad_record_rejected_before_it_costs_an_epoch(
        self, random_flows
    ):
        """A wrong-schema record is refused at ``ingest`` and costs only
        its own batch: every other site's epoch still ships."""
        good = random_flows(count=10, seed=8)
        bad = replace(good[0], key=SRC_DST.key(src_ip=1, dst_ip=2))
        runtime = tiered_runtime(["r1/a", "r1/b"])
        runtime.ingest("r1/a", good)
        with pytest.raises(SchemaMismatchError):
            runtime.ingest("r1/b", [bad])
        runtime.close_epoch(60.0)
        assert runtime.wan_bytes() > 0


class TestNetwork4LevelEndToEnd:
    @pytest.fixture()
    def loaded(self, generator):
        runtime = network_4level_runtime(
            networks=1,
            regions_per_network=2,
            routers_per_region=2,
            router_node_budget=4096,
            region_node_budget=4096,
        )
        for epoch in range(2):
            for site in TIERED_SITES:
                runtime.ingest(
                    f"network1/{site}", generator.epoch(site, epoch)
                )
            runtime.close_epoch((epoch + 1) * 60.0)
        return runtime

    def test_only_network_tier_reaches_flowdb(self, loaded):
        assert loaded.db.locations() == ["network1"]
        assert len(loaded.db) == 2  # one merged summary per epoch

    def test_mass_reaches_the_root(self, loaded, generator):
        expected = sum(
            len(generator.epoch(site, epoch))
            for epoch in range(2)
            for site in TIERED_SITES
        )
        assert loaded.query("SELECT TOTAL FROM ALL").scalar.flows == expected

    def test_per_level_volume_accounting(self, loaded):
        routers = loaded.stats.per_level["router"]
        regions = loaded.stats.per_level["region"]
        network = loaded.stats.per_level["network"]
        assert routers.raw_items > 0 and routers.raw_bytes > 0
        # every interior hop was measured on both ends
        assert routers.summary_bytes_out > 0
        assert regions.summary_bytes_in == routers.summary_bytes_out
        assert regions.summary_bytes_out > 0
        assert network.summary_bytes_in == regions.summary_bytes_out
        # only the network tier exported across the WAN
        assert network.exports == 2
        assert network.summary_bytes_out == loaded.stats.exported_bytes
        assert loaded.stats.reduction_factor > 10

    def test_fabric_hop_accounting(self, loaded):
        # WAN traffic is exactly the root-bound exports ...
        assert loaded.wan_bytes() == loaded.stats.exported_bytes
        # ... while the interior router→region→network hops also ran
        # over the fabric, so total link traffic strictly exceeds it
        assert loaded.total_network_bytes() > loaded.wan_bytes()

    def test_rollup_latency_recorded(self, loaded):
        for level in ("router", "region", "network"):
            assert loaded.stats.per_level[level].rollup_seconds > 0.0


class TestFactory4LevelEndToEnd:
    @pytest.fixture()
    def loaded(self):
        runtime = factory_4level_runtime(
            factories=2,
            lines_per_factory=2,
            machines_per_line=2,
            machine_node_budget=2048,
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=200), seed=5
        )
        self.expected = 0
        for epoch in range(2):
            for site in sites:
                records = generator.epoch(site, epoch)
                self.expected += len(records)
                runtime.ingest(site, records)
            runtime.close_epoch((epoch + 1) * 60.0)
        return runtime

    def test_machines_roll_up_to_hq(self, loaded):
        assert sorted(loaded.db.locations()) == ["factory1", "factory2"]
        total = loaded.query("SELECT TOTAL FROM ALL")
        assert total.scalar.flows == self.expected

    def test_per_factory_queries(self, loaded):
        one = loaded.query("SELECT TOTAL FROM ALL AT factory1")
        full = loaded.query("SELECT TOTAL FROM ALL")
        assert 0 < one.scalar.flows < full.scalar.flows

    def test_hop_accounting(self, loaded):
        machines = loaded.stats.per_level["machine"]
        lines = loaded.stats.per_level["line"]
        factories = loaded.stats.per_level["factory"]
        assert lines.summary_bytes_in == machines.summary_bytes_out > 0
        assert factories.summary_bytes_in == lines.summary_bytes_out > 0
        assert loaded.wan_bytes() == loaded.stats.exported_bytes > 0
        assert loaded.total_network_bytes() > loaded.wan_bytes()


class TestDifferentialVsLegacyTiered:
    """With the extra tier unbounded, a 4-level runtime must be
    answer-identical to the 3-level tiered preset."""

    QUERIES = [
        "SELECT TOPK(10) FROM ALL BY bytes",
        "SELECT GROUPBY(dst_port, 16) FROM ALL BY bytes",
        "SELECT HHH(0.05) FROM ALL BY bytes",
    ]

    @pytest.fixture()
    def pair(self, generator):
        tiered = tiered_runtime(
            TIERED_SITES,
            router_node_budget=4096,
            region_node_budget=4096,
        )
        deep = network_4level_runtime(
            networks=1,
            regions_per_network=2,
            routers_per_region=2,
            router_node_budget=4096,
            region_node_budget=4096,
            network_node_budget=None,  # the extra tier is unbounded
        )
        for epoch in range(2):
            for site in TIERED_SITES:
                records = generator.epoch(site, epoch)
                tiered.ingest(site, records)
                deep.ingest(f"network1/{site}", records)
            now = (epoch + 1) * 60.0
            tiered.close_epoch(now)
            deep.close_epoch(now)
        return tiered, deep

    def test_total_identical(self, pair):
        tiered, deep = pair
        assert (
            tiered.query("SELECT TOTAL FROM ALL").scalar
            == deep.query("SELECT TOTAL FROM ALL").scalar
        )

    @pytest.mark.parametrize("flowql", QUERIES)
    def test_row_answers_identical(self, pair, flowql):
        tiered, deep = pair
        assert sorted(tiered.query(flowql).rows) == sorted(
            deep.query(flowql).rows
        )

    def test_extra_tier_does_not_inflate_wan(self, pair):
        tiered, deep = pair
        # the unbounded network tier merges the regions' trees before
        # the WAN hop, so it can only deduplicate, never add bytes
        assert 0 < deep.wan_bytes() <= tiered.wan_bytes()


class TestRootMassConservation:
    """Property: whatever the rollup depth, no mass is lost or
    invented between the edge and the root FlowDB."""

    @given(
        store_depth=st.integers(min_value=1, max_value=3),
        fanout=st.integers(min_value=1, max_value=3),
        flows=st.integers(min_value=20, max_value=120),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=12, deadline=None)
    def test_total_mass_conserved(self, store_depth, fanout, flows, seed):
        sites = self._sites(store_depth, fanout)
        levels = {}
        for depth in range(1, store_depth + 1):
            levels[f"level{depth}"] = LevelConfig(
                node_budget=1024,
                retain_partitions=(depth == 1),
            )
        runtime = HierarchyRuntime(
            Hierarchy.from_site_paths(sites), levels
        )
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=flows),
            seed=seed,
        )
        expected_flows, expected_bytes = 0, 0
        for site in sites:
            records = generator.epoch(site, 0)
            expected_flows += len(records)
            expected_bytes += sum(record.bytes for record in records)
            runtime.ingest(site, records)
        runtime.close_epoch(60.0)
        total = runtime.query("SELECT TOTAL FROM ALL").scalar
        assert total.flows == expected_flows
        assert total.bytes == expected_bytes

    @staticmethod
    def _sites(store_depth, fanout):
        sites = [""]
        for depth in range(store_depth):
            sites = [
                f"{prefix}{'/' if prefix else ''}n{depth}x{i}"
                for prefix in sites
                for i in range(fanout)
            ]
        return sites


class _TimedOnly:
    """A record with a timestamp but no ``bytes`` attribute."""

    __slots__ = ("first_seen",)

    def __init__(self, first_seen):
        self.first_seen = first_seen


class TestRawBytesAccounting:
    def _bare_runtime(self):
        # a bare store (no aggregator) accepts attribute-less records
        return HierarchyRuntime(
            Hierarchy.from_site_paths(
                ["region1/router1"], level_names=["region", "router"]
            ),
            {"router": LevelConfig(aggregator=None)},
        )

    def test_size_fallback_counts_once_per_batch(self):
        """Regression: the per-record ``size`` fallback used to add the
        batch size N times for N records without a ``bytes`` attribute,
        inflating ``raw_bytes`` by the record count."""
        runtime = self._bare_runtime()
        records = [_TimedOnly(float(i)) for i in range(10)]
        count = runtime.ingest(
            "region1/router1", records, size_bytes=480
        )
        assert count == 10
        assert runtime.stats.raw_bytes == 480  # not 10 x 480

    def test_sized_records_sum_their_own_bytes(self, generator):
        runtime = flat_runtime(["region1/router1"])
        records = list(generator.epoch("region1/router1", 0))
        runtime.ingest("region1/router1", records)
        assert runtime.stats.raw_bytes == sum(r.bytes for r in records)

    def test_mixed_batch_adds_fallback_once(self):
        runtime = self._bare_runtime()

        class _Sized(_TimedOnly):
            __slots__ = ("bytes",)

            def __init__(self, first_seen, size):
                super().__init__(first_seen)
                self.bytes = size

        batch = [_Sized(0.0, 100), _TimedOnly(1.0), _TimedOnly(2.0)]
        runtime.ingest("region1/router1", batch, size_bytes=48)
        assert runtime.stats.raw_bytes == 100 + 48


class TestRecordTimestamps:
    """``runtime.ingest`` times a flow record by ``first_seen`` and a
    packet record by ``timestamp``; anything else is refused whole."""

    SITE = "region1/router1"

    @staticmethod
    def _packets():
        key = FIVE_TUPLE.key(
            proto=6, src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1234, dst_port=80,
        )
        return [
            PacketRecord(key=key, bytes=100, timestamp=float(i),
                         sampled_1_in=10)
            for i in range(5)
        ]

    def test_packet_records_reach_the_root(self):
        through_runtime = flat_runtime([self.SITE])
        assert through_runtime.ingest(self.SITE, self._packets()) == 5
        through_store = flat_runtime([self.SITE])
        through_store.store_for(self.SITE).ingest(
            "flows", [(p, p.timestamp) for p in self._packets()]
        )
        expected = Score(packets=50, bytes=5000, flows=0)
        for runtime in (through_runtime, through_store):
            runtime.close_epoch(60.0)
            assert runtime.query("SELECT TOTAL FROM ALL").scalar == expected

    def test_untimed_record_refused_before_anything_lands(self):
        runtime = flat_runtime([self.SITE])
        with pytest.raises(SchemaMismatchError, match="object"):
            runtime.ingest(self.SITE, [object()])
        with pytest.raises(SchemaMismatchError):
            runtime.ingest(self.SITE, self._packets() + [object()])
        assert runtime.stats.raw_records == 0
        assert runtime.stats.raw_bytes == 0


class TestExportNone:
    def test_export_none_keeps_partitions_local(self):
        # a scenario-style runtime: stores aggregate locally, but the
        # top level never exports, so nothing may reach FlowDB
        runtime = HierarchyRuntime(
            Hierarchy.from_site_paths(
                ["region1/router1", "region2/router1"],
                level_names=["region", "router"],
            ),
            {
                "router": LevelConfig(
                    node_budget=2048, retain_partitions=False
                ),
                "region": LevelConfig(node_budget=2048, export=EXPORT_NONE),
            },
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=100), seed=3
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        assert runtime.close_epoch(60.0) == 0
        assert len(runtime.db) == 0
        assert runtime.wan_bytes() == 0
