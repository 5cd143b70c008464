"""Tests for the smart-factory applications."""

import pytest

from repro.apps.predictive_maintenance import (
    FAILURE_VIBRATION,
    PredictiveMaintenanceApp,
)
from repro.apps.process_mining import ProcessMiningApp
from repro.scenarios.factory import FactoryScenario
from repro.simulation.factory import MachineState


def drive_factory(scenario, app, hours):
    """Feed vibration/temperature readings, closing epochs and running
    the app at epoch boundaries (30 s steps, 600 s epochs)."""
    scenario.apps.append(app)
    scenario.run(hours)


@pytest.fixture()
def setup():
    # one line of three machines, wear accelerated (0.25 + 0.05 * index
    # per hour) so failures land inside a short simulation; no app yet
    scenario = FactoryScenario(
        lines=1, machines_per_line=3, seed=11,
        wear_base_per_hour=0.25, wear_step_per_machine=0.05,
        with_maintenance=False,
    )
    return scenario.workload, scenario


class TestPredictiveMaintenance:
    def test_without_app_machines_fail(self, setup):
        workload, scenario = setup
        for machine in workload.machines:
            machine.wear_at(6 * 3600.0)
        assert any(
            machine.state is MachineState.FAILED
            for machine in workload.machines
        )

    def test_app_schedules_maintenance_before_failure(self, setup):
        workload, scenario = setup
        app = PredictiveMaintenanceApp(
            workload, bin_seconds=60.0, horizon_seconds=2 * 3600.0
        )
        app.deploy(scenario.manager)
        drive_factory(scenario, app, hours=6)
        assert app.decisions, "app never scheduled maintenance"
        # every machine survived: maintenance preempted failure
        assert all(
            machine.state is not MachineState.FAILED
            for machine in workload.machines
        )
        assert all(not machine.failures for machine in workload.machines)

    def test_decisions_carry_predictions(self, setup):
        workload, scenario = setup
        app = PredictiveMaintenanceApp(
            workload, bin_seconds=60.0, horizon_seconds=2 * 3600.0
        )
        app.deploy(scenario.manager)
        drive_factory(scenario, app, hours=5)
        for decision in app.decisions:
            assert decision.predicted_failure_in <= 2 * 3600.0
            assert decision.trend_slope > 0

    def test_reports_emitted(self, setup):
        workload, scenario = setup
        app = PredictiveMaintenanceApp(
            workload, bin_seconds=60.0, horizon_seconds=2 * 3600.0
        )
        app.deploy(scenario.manager)
        drive_factory(scenario, app, hours=5)
        kinds = {report.kind for report in app.reports}
        assert kinds == {"maintenance-scheduled"}

    def test_failure_vibration_constant(self):
        # the signature must exceed the healthy baseline
        assert FAILURE_VIBRATION > 2.0


class TestProcessMining:
    def test_finds_most_worn_machine(self, setup):
        workload, scenario = setup
        # make machine 3 degrade far faster than the others
        workload.machines[0].wear_rate_per_hour = 0.01
        workload.machines[1].wear_rate_per_hour = 0.01
        workload.machines[2].wear_rate_per_hour = 0.30
        app = ProcessMiningApp(workload, bin_seconds=300.0)
        app.deploy(scenario.manager)
        drive_factory(scenario, app, hours=3)
        assert app.line_reports
        latest = app.line_reports[-1]
        assert latest.worst_machine == workload.machines[2].machine_id
        assert latest.spread > 0

    def test_health_in_unit_range(self, setup):
        workload, scenario = setup
        app = ProcessMiningApp(workload, bin_seconds=300.0)
        app.deploy(scenario.manager)
        drive_factory(scenario, app, hours=2)
        for snapshot in app.line_reports:
            assert 0.0 <= snapshot.worst_health <= 1.0
            assert 0.0 <= snapshot.mean_health <= 1.0

