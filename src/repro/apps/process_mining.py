"""Process mining (Section II.A, application (c)).

"The review of production processes attained by combining operational
data and enterprise data to identify sources for efficiency gains."

The app requires a per-machine time-binned aggregator over the
*temperature* stream as a proxy for machine activity (temperature
tracks wear and duty), combines it with "enterprise data" — the nominal
per-line target supplied at construction, standing in for the ERP
integration of Section III.C — and reports, per line, the efficiency
spread and the machine most likely to be the bottleneck (highest wear
signature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.base import Application, AppReport
from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.core.primitive import QueryRequest
from repro.errors import ReproError
from repro.simulation.factory import (
    BASE_TEMPERATURE,
    FactoryWorkload,
    Machine,
    WEAR_TEMPERATURE_GAIN,
)


@dataclass(frozen=True)
class LineEfficiency:
    """Efficiency snapshot of one production line."""

    line: str
    mean_health: float
    worst_machine: str
    worst_health: float

    @property
    def spread(self) -> float:
        """Gap between average and worst health (the efficiency gain
        available by servicing the bottleneck)."""
        return self.mean_health - self.worst_health


def _health_from_temperature(mean_temperature: float) -> float:
    """Map the observed temperature back to a health score in [0, 1].

    Inverts the simulator's wear → temperature model; on real data this
    would be a learned calibration.
    """
    wear = (mean_temperature - BASE_TEMPERATURE) / WEAR_TEMPERATURE_GAIN
    return max(0.0, min(1.0, 1.0 - wear))


class ProcessMiningApp(Application):
    """Per-line efficiency review over machine activity summaries."""

    def __init__(
        self, workload: FactoryWorkload, bin_seconds: float = 300.0
    ) -> None:
        super().__init__("process-mining")
        self.workload = workload
        self.bin_seconds = bin_seconds
        self.line_reports: List[LineEfficiency] = []

    def _aggregator_name(self, machine: Machine) -> str:
        return f"mine/{machine.machine_id}/temperature"

    def requirements(self) -> List[ApplicationRequirement]:
        return [
            ApplicationRequirement(
                app_name=self.name,
                aggregator_name=self._aggregator_name(machine),
                kind="timebin",
                location=machine.location,
                config={
                    "bin_seconds": self.bin_seconds,
                    "item_of": lambda reading: reading.value,
                },
                stream_prefix=machine.temperature_sensor.sensor_id,
            )
            for machine in self.workload.machines
        ]

    def on_epoch(self, manager: Manager, now: float) -> List[AppReport]:
        emitted: List[AppReport] = []
        for line_name, machines in self.workload.lines.items():
            healths: Dict[str, float] = {}
            for machine in machines:
                store = manager.covering_store(machine.location)
                try:
                    result = store.query(
                        self._aggregator_name(machine),
                        QueryRequest("stats", {}),
                        start=max(0.0, now - 2 * 3600.0),
                        end=now,
                        now=now,
                    )
                except ReproError:
                    continue
                stats = result.value
                if stats.count == 0:
                    continue
                healths[machine.machine_id] = _health_from_temperature(
                    stats.mean
                )
            if not healths:
                continue
            worst_machine = min(healths, key=lambda m: healths[m])
            snapshot = LineEfficiency(
                line=line_name,
                mean_health=sum(healths.values()) / len(healths),
                worst_machine=worst_machine,
                worst_health=healths[worst_machine],
            )
            self.line_reports.append(snapshot)
            emitted.append(
                self.report(
                    now,
                    "line-efficiency",
                    line=line_name,
                    mean_health=snapshot.mean_health,
                    bottleneck=snapshot.worst_machine,
                    potential_gain=snapshot.spread,
                )
            )
        return emitted
