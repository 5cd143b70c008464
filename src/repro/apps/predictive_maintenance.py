"""Predictive maintenance (Section II.A, application (a)).

Per machine, the app requires a time-binned statistics aggregator over
the vibration stream.  Each epoch it reads the recent per-bin means,
fits a linear trend, and extrapolates when the vibration will cross the
failure signature.  When the predicted crossing falls inside the
planning horizon it *schedules maintenance* — in the simulation, a
direct call to :meth:`Machine.perform_maintenance`, standing in for the
controller-mediated work order.

The benchmark compares machines run with and without the app: failures
avoided is the paper's motivating win for analyzing "operational data
belonging to a ... class of machines to predict failures and schedule
maintenance accordingly".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analytics.inference import LinearTrend, time_to_threshold
from repro.apps.base import Application, AppReport
from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.core.primitive import QueryRequest
from repro.errors import ReproError
from repro.simulation.factory import (
    BASE_VIBRATION,
    FactoryWorkload,
    Machine,
    MachineState,
    WEAR_VIBRATION_GAIN,
)

#: Vibration level considered the failure signature: the model's value
#: at 90% wear.
FAILURE_VIBRATION = BASE_VIBRATION + WEAR_VIBRATION_GAIN * 0.9 * 0.9


@dataclass(frozen=True)
class MaintenanceDecision:
    """One maintenance the app scheduled."""

    machine_id: str
    decided_at: float
    predicted_failure_in: float
    trend_slope: float


class PredictiveMaintenanceApp(Application):
    """Trend-based failure prediction over vibration summaries."""

    def __init__(
        self,
        workload: FactoryWorkload,
        bin_seconds: float = 60.0,
        horizon_seconds: float = 2 * 3600.0,
        min_bins: int = 5,
    ) -> None:
        super().__init__("predictive-maintenance")
        self.workload = workload
        self.bin_seconds = bin_seconds
        self.horizon_seconds = horizon_seconds
        self.min_bins = min_bins
        self.decisions: List[MaintenanceDecision] = []

    def _aggregator_name(self, machine: Machine) -> str:
        return f"pm/{machine.machine_id}/vibration"

    def requirements(self) -> List[ApplicationRequirement]:
        needs = []
        for machine in self.workload.machines:
            needs.append(
                ApplicationRequirement(
                    app_name=self.name,
                    aggregator_name=self._aggregator_name(machine),
                    kind="timebin",
                    location=machine.location,
                    config={
                        "bin_seconds": self.bin_seconds,
                        "item_of": lambda reading: reading.value,
                    },
                    stream_prefix=machine.vibration_sensor.sensor_id,
                )
            )
        return needs

    def _predict(
        self, manager: Manager, machine: Machine, now: float
    ) -> Optional[tuple]:
        """``(seconds to failure or None, trend)``; None when unknown."""
        store = manager.covering_store(machine.location)
        name = self._aggregator_name(machine)
        try:
            result = store.query(
                name,
                QueryRequest("series", {"field": "mean"}),
                start=max(0.0, now - 12 * 3600.0),
                end=now,
                now=now,
            )
        except ReproError:
            return None
        series = [
            (bin_start, value)
            for bin_start, value in result.value
            if value is not None
        ]
        if len(series) < self.min_bins:
            return None
        trend = LinearTrend.fit(series[-60:])
        return time_to_threshold(trend, now, FAILURE_VIBRATION), trend

    def on_epoch(self, manager: Manager, now: float) -> List[AppReport]:
        emitted: List[AppReport] = []
        for machine in self.workload.machines:
            if machine.state is not MachineState.RUNNING:
                continue
            prediction = self._predict(manager, machine, now)
            if prediction is None:
                continue
            eta, trend = prediction
            if eta is None or eta > self.horizon_seconds:
                continue
            machine.perform_maintenance(now)
            decision = MaintenanceDecision(
                machine_id=machine.machine_id,
                decided_at=now,
                predicted_failure_in=eta,
                trend_slope=trend.slope,
            )
            self.decisions.append(decision)
            emitted.append(
                self.report(
                    now,
                    "maintenance-scheduled",
                    machine=machine.machine_id,
                    predicted_failure_in=eta,
                )
            )
        return emitted
