"""Tests for the prebuilt scenario harnesses."""


from repro.scenarios.factory import FactoryScenario
from repro.scenarios.network import NetworkScenario


class TestFactoryScenario:
    def test_baseline_fails_with_app_survives(self):
        baseline = FactoryScenario(
            lines=1, machines_per_line=2, with_maintenance=False
        ).run(hours=6.0)
        assert len(baseline.failures) == baseline.machines
        assert baseline.emergency_stops > 0

        protected = FactoryScenario(
            lines=1, machines_per_line=2, with_maintenance=True
        ).run(hours=6.0)
        assert not protected.failures
        assert protected.maintenance_decisions

    def test_outcome_accounting(self):
        outcome = FactoryScenario(
            lines=1, machines_per_line=2, with_maintenance=True,
            with_mining=True,
        ).run(hours=3.0)
        assert outcome.machines == 2
        assert outcome.partitions_stored > 0
        assert outcome.stored_bytes > 0
        assert outcome.lineage_records >= outcome.partitions_stored
        assert outcome.line_reports  # mining ran

    def test_determinism(self):
        a = FactoryScenario(lines=1, machines_per_line=2, seed=5).run(2.0)
        b = FactoryScenario(lines=1, machines_per_line=2, seed=5).run(2.0)
        assert a.failures == b.failures
        assert len(a.maintenance_decisions) == len(b.maintenance_decisions)


class TestNetworkScenario:
    def test_attack_detected_and_mitigated(self):
        scenario = NetworkScenario(
            regions=2, flows_per_epoch=800, seed=13
        )
        outcome = scenario.run(
            epochs=3,
            attacks=[(2, "region1/router1")],
            attack_flows=1500,
        )
        assert len(outcome.findings) >= 1
        finding = outcome.findings[0]
        assert finding.site == "cloud/network/region1/router1"
        assert outcome.mitigation_rules.get(finding.site)

    def test_clean_run_has_no_findings(self):
        outcome = NetworkScenario(
            regions=2, flows_per_epoch=800, seed=13
        ).run(epochs=3)
        assert not outcome.findings
        assert outcome.trend_reports
        assert outcome.matrix_reports
        assert not outcome.mitigation_rules

    def test_apps_optional(self):
        outcome = NetworkScenario(
            regions=2,
            flows_per_epoch=400,
            with_trends=False,
            with_matrix=False,
            with_ddos=False,
        ).run(epochs=1)
        assert outcome.trend_reports == []
        assert outcome.matrix_reports == []
        assert outcome.findings == []
