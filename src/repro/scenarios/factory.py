"""The smart-factory scenario (Section II.A) as a reusable harness.

Builds the full Figure 2 stack — degrading machines streaming into a
factory data store, per-machine safety triggers wired to controllers,
and (optionally) the predictive-maintenance and process-mining
applications — then drives it for a configurable number of simulated
hours and reports what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.predictive_maintenance import (
    MaintenanceDecision,
    PredictiveMaintenanceApp,
)
from repro.apps.process_mining import LineEfficiency, ProcessMiningApp
from repro.control.controller import Controller
from repro.control.rules import ControlRule
from repro.datastore.storage import HierarchicalStorage
from repro.datastore.triggers import RawTrigger
from repro.hierarchy.topology import Hierarchy
from repro.runtime.config import EXPORT_NONE, LevelConfig
from repro.runtime.runtime import HierarchyRuntime
from repro.simulation.factory import (
    FactoryWorkload,
    MachineState,
    build_factory,
)
from repro.simulation.sensors import Actuator


@dataclass
class FactoryOutcome:
    """What a factory run produced."""

    hours: float
    machines: int
    failures: List[Tuple[str, float]] = field(default_factory=list)
    maintenance_decisions: List[MaintenanceDecision] = field(
        default_factory=list
    )
    emergency_stops: int = 0
    line_reports: List[LineEfficiency] = field(default_factory=list)
    partitions_stored: int = 0
    stored_bytes: int = 0
    lineage_records: int = 0


class FactoryScenario:
    """A deterministic, configurable smart-factory world."""

    def __init__(
        self,
        lines: int = 2,
        machines_per_line: int = 3,
        seed: int = 17,
        wear_base_per_hour: float = 0.18,
        wear_step_per_machine: float = 0.04,
        with_maintenance: bool = True,
        with_mining: bool = False,
        safety_vibration_threshold: float = 7.5,
        storage_budget_bytes: int = 50_000_000,
        epoch_seconds: float = 600.0,
        step_seconds: float = 30.0,
    ) -> None:
        self.epoch_seconds = epoch_seconds
        self.step_seconds = step_seconds
        self.workload: FactoryWorkload = build_factory(
            lines=lines, machines_per_line=machines_per_line, seed=seed
        )
        for index, machine in enumerate(self.workload.machines):
            machine.wear_rate_per_hour = (
                wear_base_per_hour + wear_step_per_machine * index
            )
        # the factory is a HierarchyRuntime over the plant topology with
        # one store at the factory root (hierarchical re-aggregation);
        # applications install aggregators through the Manager and the
        # per-machine control cycle reads the store directly
        root = self.workload.root
        machine_paths = [
            machine.location.path[len(root.path) + 1:]
            for machine in self.workload.machines
        ]
        self.runtime = HierarchyRuntime(
            Hierarchy.from_site_paths(
                machine_paths,
                root=root.path,
                root_level="factory",
                level_names=["line", "machine"],
            ),
            levels={
                "factory": LevelConfig(
                    aggregator=None,
                    storage=lambda: HierarchicalStorage(
                        storage_budget_bytes
                    ),
                    export=EXPORT_NONE,
                )
            },
            epoch_seconds=epoch_seconds,
        )
        self.manager = self.runtime.manager
        self.store = self.runtime.store_at(root)
        self.controllers: Dict[str, Tuple[Controller, Actuator]] = {}
        self._wire_safety_net(safety_vibration_threshold)
        self.apps = []
        self.maintenance_app: Optional[PredictiveMaintenanceApp] = None
        self.mining_app: Optional[ProcessMiningApp] = None
        if with_maintenance:
            self.maintenance_app = PredictiveMaintenanceApp(
                self.workload, bin_seconds=60.0,
                horizon_seconds=2 * 3600.0,
            )
            self.maintenance_app.deploy(self.manager)
            self.apps.append(self.maintenance_app)
        if with_mining:
            self.mining_app = ProcessMiningApp(
                self.workload, bin_seconds=300.0
            )
            self.mining_app.deploy(self.manager)
            self.apps.append(self.mining_app)

    def _wire_safety_net(self, threshold: float) -> None:
        """The Figure 3a control cycle for every machine."""
        for machine in self.workload.machines:
            controller = self.runtime.attach_controller(machine.location)
            actuator = Actuator(
                f"{machine.machine_id}/drive", machine.location
            )
            controller.register_actuator(actuator)
            controller.install_rule(
                ControlRule(
                    rule_id=f"estop/{machine.machine_id}",
                    command="emergency-stop",
                    target_actuator=actuator.actuator_id,
                    trigger_id=f"vib-extreme/{machine.machine_id}",
                    priority=100,
                    certified=True,
                )
            )
            self.store.install_raw_trigger(
                RawTrigger(
                    trigger_id=f"vib-extreme/{machine.machine_id}",
                    predicate=lambda reading, m=machine: (
                        reading.sensor_id.startswith(m.machine_id)
                        and reading.value > threshold
                    ),
                    cooldown_seconds=600.0,
                )
            )
            self.store.subscribe_triggers(controller.on_trigger)
            self.controllers[machine.machine_id] = (controller, actuator)

    def run(self, hours: float) -> FactoryOutcome:
        """Drive the factory for ``hours`` simulated hours."""
        t, next_epoch = 0.0, self.epoch_seconds
        end = hours * 3600.0
        while t < end:
            t += self.step_seconds
            for machine in self.workload.machines:
                for sensor in machine.sensors:
                    reading = sensor.reading_at(t)
                    self.store.ingest(
                        sensor.sensor_id, reading, t,
                        size_bytes=reading.size_bytes,
                    )
            if t >= next_epoch:
                self.runtime.close_epoch(t)
                for app in self.apps:
                    app.on_epoch(self.manager, t)
                next_epoch += self.epoch_seconds
        outcome = FactoryOutcome(
            hours=hours,
            machines=len(self.workload.machines),
            failures=[
                (machine.machine_id, machine.failures[0])
                for machine in self.workload.machines
                if machine.state is MachineState.FAILED
            ],
            emergency_stops=sum(
                len(actuator.commands)
                for _, actuator in self.controllers.values()
            ),
            partitions_stored=len(self.store.catalog),
            stored_bytes=self.store.catalog.total_bytes(),
            lineage_records=len(self.store.lineage),
        )
        if self.maintenance_app is not None:
            outcome.maintenance_decisions = list(
                self.maintenance_app.decisions
            )
        if self.mining_app is not None:
            outcome.line_reports = list(self.mining_app.line_reports)
        return outcome
