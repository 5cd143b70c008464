"""Tests for the network-monitoring applications."""

import pytest

from repro.apps.ddos import DDoSInvestigationApp
from repro.apps.traffic_matrix import TrafficMatrixApp
from repro.apps.trends import NetworkTrendsApp
from repro.flows.features import format_ipv4
from repro.flows.tree import Flowtree, aggregate_by_feature
from repro.scenarios.network import NetworkScenario

SITE_NAMES = ("region1/router1", "region2/router1")


@pytest.fixture()
def network():
    """Two bare router stores with their controllers and traffic, and
    no application deployed: each test deploys the one it tests."""
    world = NetworkScenario(
        regions=2, routers_per_region=1, flows_per_epoch=800, seed=13,
        with_trends=False, with_matrix=False, with_ddos=False,
    )
    assert tuple(world.site_names) == SITE_NAMES
    return world


def feed(network, epoch, ddos_site=None):
    generator = network.generator
    for name, location in zip(SITE_NAMES, network.sites):
        store = network.runtime.store_at(location)
        if ddos_site == name:
            records = generator.ddos_epoch(name, epoch, attack_flows=1500)
        else:
            records = generator.epoch(name, epoch)
        for record in records:
            store.ingest("flows", record, record.first_seen, size_bytes=48)


class TestTrends:
    def test_reports_service_mix_and_sources(self, network):
        manager, sites = network.manager, network.sites
        app = NetworkTrendsApp(sites, node_budget=2048)
        app.deploy(manager)
        feed(network, epoch=0)
        reports = app.on_epoch(manager, 60.0)
        assert len(reports) == len(sites)
        snapshot = app.trend_reports[0]
        ports = [port for port, _ in snapshot.services]
        assert 443 in ports  # HTTPS dominates the default mix
        assert snapshot.top_source_prefixes
        assert snapshot.top_flows

    def test_top_service_is_https_by_bytes(self, network):
        manager = network.manager
        app = NetworkTrendsApp(network.sites)
        app.deploy(manager)
        feed(network, epoch=0)
        app.on_epoch(manager, 60.0)
        assert app.trend_reports[0].services[0][0] == 443


class TestTrafficMatrix:
    def test_matrix_covers_sites(self, network):
        manager, sites = network.manager, network.sites
        app = TrafficMatrixApp(sites, fabric=network.fabric)
        app.deploy(manager)
        feed(network, epoch=0)
        matrix = app.build_matrix(manager, 60.0)
        assert matrix
        covered_sites = {site for _, site in matrix}
        assert covered_sites == {loc.path for loc in sites}

    def test_link_projection(self, network):
        manager = network.manager
        app = TrafficMatrixApp(network.sites, fabric=network.fabric)
        app.deploy(manager)
        feed(network, epoch=0)
        matrix = app.build_matrix(manager, 60.0)
        utilization = app.project_link_loads(matrix)
        assert utilization
        assert all(value >= 0 for value in utilization.values())
        reports = app.on_epoch(manager, 60.0)
        assert reports[0].body["hottest_link"] is not None

    def test_no_fabric_means_no_projection(self, network):
        app = TrafficMatrixApp(network.sites, fabric=None)
        assert app.project_link_loads({("p", "s"): 1}) == {}


class TestDDoS:
    def run_scenario(self, network, mitigate=False):
        manager = network.manager
        # the world's site controllers, each with its filter actuator
        controllers = network.controllers if mitigate else {}
        app = DDoSInvestigationApp(
            network.sites,
            planner=network.runtime.planner,
            epoch_seconds=60.0,
            node_budget=8192,
            controllers=controllers,
        )
        app.deploy(manager)
        # two clean epochs, then an attack at region1 in epoch 2
        for epoch in range(2):
            feed(network, epoch=epoch)
            network.runtime.close_epoch((epoch + 1) * 60.0)
            app.on_epoch(manager, (epoch + 1) * 60.0)
        baseline_findings = len(app.findings)
        feed(network, epoch=2, ddos_site="region1/router1")
        network.runtime.close_epoch(180.0)
        app.on_epoch(manager, 180.0)
        return app, network.generator, baseline_findings, controllers

    def test_detects_attack_and_victim(self, network):
        app, generator, baseline, _ = self.run_scenario(network)
        assert len(app.findings) > baseline
        finding = app.findings[-1]
        victim = generator.internal_prefix("region1/router1") | 1
        assert finding.victim == format_ipv4(victim)
        assert finding.site == "cloud/network/region1/router1"
        assert finding.surge_bytes > 1_000_000
        assert finding.top_sources

    def test_no_false_positive_on_clean_epochs(self, network):
        app, _, baseline, _ = self.run_scenario(network)
        assert baseline == 0

    def test_mitigation_rule_installed(self, network):
        app, _, _, controllers = self.run_scenario(network, mitigate=True)
        assert app.findings
        site_controller = controllers["cloud/network/region1/router1"]
        assert site_controller.rules()
        rule = site_controller.rules()[0]
        assert rule.command.startswith("rate-limit")
        assert app.reports[-1].body["mitigated"] is True

    def test_findings_read_the_diff_in_place(self, network, monkeypatch):
        """The surge is current − baseline summed in place: the rows a
        Diff tree would give (a Diff never compresses), with no Diff
        built."""
        app, _, _, _ = self.run_scenario(network)
        site = network.sites[0]
        attack = [
            f for f in app.findings if (f.time, f.site) == (180.0, site.path)
        ]
        assert attack
        current = app._window_tree(site, 120.0, 180.0, 180.0)
        baseline = app._window_tree(site, 60.0, 120.0, 180.0)
        in_place = aggregate_by_feature(
            ((1, current), (-1, baseline)), "dst_ip", 32
        )
        assert in_place == current.diff(baseline).aggregate_by_feature(
            "dst_ip", 32
        )
        assert [f.surge_bytes for f in attack] == [
            score.bytes
            for key, score in in_place
            if format_ipv4(key.feature_value("dst_ip")) in {
                f.victim for f in attack
            }
        ]

        def no_diff(*args):
            raise AssertionError("the app built a Diff tree")

        monkeypatch.setattr(Flowtree, "diff", no_diff)
        assert app.investigate_site(site, 180.0) == attack
