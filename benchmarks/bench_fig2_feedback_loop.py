"""Figure 2: the four-building-block feedback loop, end to end.

Claim: sensor data flows Data Store (aggregate) → Analytics (transfer &
process) → Application (model & learn) → Controller (decide &
implement) and back to the physical world, and the whole loop closes.
We drive one wear-degradation episode through the full chain and time
each block.
"""

from __future__ import annotations


from benchmarks.conftest import report
from repro.analytics.inference import LinearTrend, time_to_threshold
from repro.control.controller import Controller
from repro.control.rules import ControlRule
from repro.core.primitive import QueryRequest
from repro.core.timebin import TimeBinStatistics
from repro.datastore.aggregator import Aggregator, prefix_filter
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.datastore.triggers import TriggerFiring
from repro.simulation.factory import build_factory
from repro.simulation.sensors import Actuator


def test_full_feedback_loop(benchmark):
    """One complete aggregate→process→infer→decide→implement cycle."""

    def run_loop():
        workload = build_factory(lines=1, machines_per_line=1, seed=3)
        machine = workload.machines[0]
        machine.wear_rate_per_hour = 0.4
        store = DataStore(workload.root, RoundRobinStorage(10**7))
        sensor = machine.vibration_sensor
        store.install_aggregator(
            Aggregator(
                "vibration",
                TimeBinStatistics(machine.location, bin_seconds=60.0),
                stream_filter=prefix_filter(sensor.sensor_id),
                item_of=lambda reading: reading.value,
            )
        )
        controller = Controller(machine.location)
        actuator = Actuator("machine-control", machine.location)
        controller.register_actuator(actuator)
        controller.install_rule(
            ControlRule(
                "preventive-stop",
                command="schedule-maintenance",
                target_actuator="machine-control",
                trigger_id="degradation-predicted",
            )
        )

        # Data Store: collect & aggregate (2 h of readings at 1/s)
        t = 0.0
        while t < 2 * 3600.0:
            t += 1.0
            reading = sensor.reading_at(t)
            store.ingest(sensor.sensor_id, reading, t,
                         size_bytes=reading.size_bytes)
        store.close_epoch(t)

        # Analytics: process (series) + infer (trend)
        series = store.query(
            "vibration",
            QueryRequest("series", {"field": "mean"}),
            start=0.0, end=t, now=t,
        ).value
        trend = LinearTrend.fit(series)

        # Application: model & learn → decide
        eta = time_to_threshold(trend, t, threshold=8.0)
        fired = False
        if eta is not None and eta < 24 * 3600.0:
            firing = TriggerFiring(
                trigger_id="degradation-predicted",
                stream_id="vibration",
                time=t,
                payload=eta,
                installed_by="maintenance-app",
            )
            # Controller: resolve & implement
            actions = controller.on_trigger(firing)
            fired = bool(actions)
        return trend, eta, fired, actuator

    trend, eta, fired, actuator = benchmark.pedantic(
        run_loop, rounds=3, iterations=1
    )
    report(
        "Fig. 2: feedback-loop blocks",
        [
            ("aggregate", "7200 readings -> 120 bins"),
            ("process+infer", f"slope={trend.slope:.2e}/s "
                              f"r2={trend.r_squared:.3f}"),
            ("decide", f"predicted crossing in {eta:.0f} s"),
            ("implement", f"command={actuator.commands[0].command!r}"),
        ],
    )
    assert trend.slope > 0
    assert fired, "the loop must close back to the actuator"
    assert actuator.commands[0].command == "schedule-maintenance"
