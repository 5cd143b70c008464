"""End-to-end tests for the Figure 5 system: the flat runtime preset."""

import pytest

from repro.errors import PlacementError
from repro.runtime.presets import flat_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

SITES = ["region1/router1", "region2/router1"]


@pytest.fixture()
def system():
    return flat_runtime(SITES, node_budget=1024)


@pytest.fixture()
def loaded_system(system):
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(SITES), flows_per_epoch=500), seed=3
    )
    for epoch in range(3):
        for site in SITES:
            system.ingest(site, generator.epoch(site, epoch))
        system.close_epoch((epoch + 1) * 60.0)
    return system


class TestWiring:
    def test_needs_sites(self):
        with pytest.raises(PlacementError):
            flat_runtime([])

    def test_unknown_site(self, system):
        with pytest.raises(PlacementError):
            system.ingest("nowhere/router1", [])

    def test_stores_have_flowtree_aggregators(self, system):
        for site in SITES:
            store = system.store_for(site)
            assert store.aggregator("flowtree") is not None

    def test_hierarchy_covers_sites(self, system):
        from repro.core.summary import Location

        for site in SITES:
            assert Location(f"cloud/{site}") in system.hierarchy


class TestDataPath:
    def test_epochs_exported_to_db(self, loaded_system):
        stats = loaded_system.db.stats()
        assert stats["entries"] == len(SITES) * 3
        assert sorted(loaded_system.db.locations()) == sorted(SITES)

    def test_summary_reduction(self, loaded_system):
        # summaries must be much smaller than raw traffic
        assert loaded_system.stats.reduction_factor > 10
        assert loaded_system.stats.raw_records == 500 * 2 * 3

    def test_export_volume_accounted_on_wan(self, loaded_system):
        assert loaded_system.wan_bytes() == (
            loaded_system.stats.exported_bytes
        )


class TestQueryPath:
    def test_total_consistency(self, loaded_system):
        merged = loaded_system.query("SELECT TOTAL FROM ALL")
        per_site = [
            loaded_system.query(f"SELECT TOTAL FROM ALL AT {site}")
            for site in SITES
        ]
        assert merged.scalar.bytes == sum(r.scalar.bytes for r in per_site)

    def test_topk_multi_site(self, loaded_system):
        result = loaded_system.query(
            "SELECT TOPK(10) FROM TIME(0, 180) "
            "AT region1/router1, region2/router1 BY bytes"
        )
        assert len(result.rows) == 10
        values = [row[2] for row in result.rows]
        assert values == sorted(values, reverse=True)

    def test_service_mix(self, loaded_system):
        result = loaded_system.query(
            "SELECT GROUPBY(dst_port, 16) FROM ALL BY bytes"
        )
        ports = [row[0] for row in result.rows]
        assert any("443" in p for p in ports)

    def test_merged_answers_match_exact_on_prefix(self, loaded_system):
        """The merged-tree answer for an aggregate prefix equals the sum
        over raw records (no compression loss at this scale)."""
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(SITES), flows_per_epoch=500), seed=3
        )
        expected = 0
        for epoch in range(3):
            for site in SITES:
                for record in generator.epoch(site, epoch):
                    if record.key.feature_value("src_ip") >> 24 == 23:
                        expected += record.bytes
        result = loaded_system.query(
            "SELECT QUERY FROM ALL WHERE src_ip = 23.0.0.0/8"
        )
        assert result.scalar.bytes == expected

    def test_diff_between_epochs(self, loaded_system):
        result = loaded_system.query(
            "SELECT TOTAL FROM TIME(60, 120) VS TIME(0, 60)"
        )
        assert result.scalar is not None

    def test_ddos_detectable_in_pure_flowql(self):
        """An analyst with nothing but FlowQL finds the attack victim:
        the epoch-over-epoch Diff grouped by destination host."""
        sites = ["region1/router1"]
        system = flat_runtime(sites, node_budget=8192)
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=800), seed=55
        )
        system.ingest(sites[0], generator.epoch(sites[0], 0))
        system.close_epoch(60.0)
        system.ingest(
            sites[0],
            generator.ddos_epoch(sites[0], 1, attack_flows=1200),
        )
        system.close_epoch(120.0)
        surge = system.query(
            "SELECT GROUPBY(dst_ip, 32) FROM TIME(60, 120) VS TIME(0, 60) "
            "BY bytes LIMIT 1"
        )
        victim_row = surge.rows[0]
        from repro.flows.features import format_ipv4

        victim = format_ipv4(
            generator.internal_prefix(sites[0]) | 1
        )
        assert victim in victim_row[0]
        # and the sources of the surge are one WHERE clause away
        sources = system.query(
            f"SELECT GROUPBY(src_ip, 8) FROM TIME(60, 120) "
            f"WHERE dst_ip = {victim} BY bytes LIMIT 3"
        )
        assert len(sources.rows) == 3


class TestStatsAPI:
    def test_stats_is_volume_stats(self, system):
        from repro.runtime.stats import VolumeStats

        assert isinstance(system.stats, VolumeStats)
