"""Tests for the tiered (router → region → cloud) runtime preset of
Figure 2b."""

import pytest

from repro.errors import PlacementError
from repro.runtime.presets import flat_runtime, tiered_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

SITES = [
    "region1/router1",
    "region1/router2",
    "region2/router1",
    "region2/router2",
]


@pytest.fixture(scope="module")
def generator():
    return TrafficGenerator(
        TrafficConfig(sites=tuple(SITES), flows_per_epoch=600), seed=31
    )


@pytest.fixture()
def loaded(generator):
    system = tiered_runtime(
        SITES, router_node_budget=4096, region_node_budget=4096
    )
    for epoch in range(2):
        for site in SITES:
            system.ingest(site, generator.epoch(site, epoch))
        system.close_epoch((epoch + 1) * 60.0)
    return system


class TestConstruction:
    def test_region_stores_shared(self):
        system = tiered_runtime(SITES)
        assert sorted(system.stores_at_level("region")) == [
            "region1", "region2"
        ]
        assert len(system.stores_at_level("router")) == 4

    def test_needs_region_router_shape(self):
        with pytest.raises(PlacementError):
            tiered_runtime(["lonesite"])
        with pytest.raises(PlacementError):
            tiered_runtime([])

    def test_unknown_site(self):
        system = tiered_runtime(SITES)
        with pytest.raises(PlacementError):
            system.ingest("region9/router9", [])


class TestDataPath:
    def test_regions_indexed_in_flowdb(self, loaded):
        assert sorted(loaded.db.locations()) == ["region1", "region2"]
        assert len(loaded.db) == 2 * 2  # regions x epochs

    def test_total_mass_preserved_through_tiers(self, loaded, generator):
        expected_flows = 0
        for epoch in range(2):
            for site in SITES:
                expected_flows += len(generator.epoch(site, epoch))
        result = loaded.query("SELECT TOTAL FROM ALL")
        assert result.scalar.flows == expected_flows

    def test_regional_queries(self, loaded, generator):
        per_region = loaded.query("SELECT TOTAL FROM ALL AT region1")
        full = loaded.query("SELECT TOTAL FROM ALL")
        assert 0 < per_region.scalar.bytes < full.scalar.bytes

    def test_wan_accounting(self, loaded):
        region_out = loaded.stats.level("region").summary_bytes_out
        assert loaded.wan_bytes() == region_out
        assert region_out > 0


class TestTieringEffect:
    def test_region_merge_reduces_wan_vs_flat(self, generator):
        """Merging at the region tier dedups shared generalized nodes,
        so fewer summary bytes cross the WAN than in the flat design
        (with equal tree budgets)."""
        flat = flat_runtime(SITES, node_budget=4096)
        tiered = tiered_runtime(
            SITES, router_node_budget=4096, region_node_budget=4096
        )
        for epoch in range(2):
            for site in SITES:
                flat.ingest(site, generator.epoch(site, epoch))
                tiered.ingest(site, generator.epoch(site, epoch))
            flat.close_epoch((epoch + 1) * 60.0)
            tiered.close_epoch((epoch + 1) * 60.0)
        assert tiered.wan_bytes() < flat.wan_bytes()
        # and both systems agree on the global totals
        assert (
            tiered.query("SELECT TOTAL FROM ALL").scalar
            == flat.query("SELECT TOTAL FROM ALL").scalar
        )


class TestTieredPrivacy:
    def test_region_guard_applies_on_wan_hop(self, generator):
        from repro.datastore.privacy import (
            ExportRule,
            PrivacyGuard,
            PrivacyPolicy,
        )

        system = tiered_runtime(
            SITES, router_node_budget=2048, region_node_budget=2048
        )
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=16))
        )
        for store in system.stores_at_level("region").values():
            store.privacy = guard
        for site in SITES:
            system.ingest(site, generator.epoch(site, 0))
        system.close_epoch(60.0)
        assert guard.audit_log  # exports were audited
        for entry in system.db.entries():
            for node in entry.tree.nodes():
                key = entry.tree.key_of(node)
                assert key.feature_level("src_ip") <= 16
                assert key.feature_level("dst_ip") <= 16
        # aggregate answers survive anonymization
        total = system.query("SELECT TOTAL FROM ALL").scalar
        expected = sum(len(generator.epoch(site, 0)) for site in SITES)
        assert total.flows == expected

    def test_region_stores_keep_full_detail_locally(self, generator):
        from repro.datastore.privacy import (
            ExportRule,
            PrivacyGuard,
            PrivacyPolicy,
        )

        system = tiered_runtime(
            SITES[:2], router_node_budget=4096, region_node_budget=None
        )
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=8))
        )
        for store in system.stores_at_level("region").values():
            store.privacy = guard
        records = generator.epoch(SITES[0], 0)
        system.ingest(SITES[0], records)
        system.close_epoch(60.0)
        region_store = system.stores_at_level("region")["region1"]
        partition = region_store.catalog.all()[0]
        # the region's own stored partition answers host-level queries
        assert partition.summary.payload.query(records[0].key).bytes > 0
