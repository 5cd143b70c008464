"""Integration tests: the full feedback loops of Figures 2 and 3.

These tests wire sensors → data store → triggers → controller →
actuators (the fast control cycle) and data store → analytics → app →
rule update (the slow adaptive cycle), and check the paper's latency
story: the local control path meets the machine-level deadline while
the analytics path is orders of magnitude slower but far-reaching.
"""

import pytest

from repro.analytics.inference import LinearTrend
from repro.control.controller import Controller
from repro.control.rules import ControlRule
from repro.core.primitive import QueryRequest
from repro.core.summary import Location
from repro.core.timebin import TimeBinStatistics
from repro.datastore.aggregator import Aggregator, prefix_filter
from repro.datastore.storage import HierarchicalStorage
from repro.datastore.store import DataStore
from repro.datastore.triggers import RawTrigger
from repro.hierarchy.topology import MACHINE_DEADLINE, smart_factory_hierarchy
from repro.simulation.events import Simulator
from repro.simulation.factory import build_factory
from repro.simulation.sensors import Actuator


@pytest.fixture()
def control_loop():
    """A machine with a vibration trigger wired to a stop rule."""
    workload = build_factory(lines=1, machines_per_line=1, seed=5)
    machine = workload.machines[0]
    machine.wear_rate_per_hour = 0.9  # vibration rises fast
    store = DataStore(workload.root, HierarchicalStorage(10**7))
    store.install_aggregator(
        Aggregator(
            "vibration",
            TimeBinStatistics(machine.location, bin_seconds=10.0),
            stream_filter=prefix_filter(machine.vibration_sensor.sensor_id),
            item_of=lambda reading: reading.value,
        )
    )
    controller = Controller(machine.location)
    actuator = Actuator("arm", machine.location)
    controller.register_actuator(actuator)
    controller.install_rule(
        ControlRule(
            "emergency-stop",
            command="stop",
            target_actuator="arm",
            trigger_id="vibration-high",
            priority=10,
            exclusive_group="motion",
        )
    )
    store.install_raw_trigger(
        RawTrigger(
            "vibration-high",
            predicate=lambda reading: reading.value > 6.5,
            cooldown_seconds=60.0,
        )
    )
    store.subscribe_triggers(controller.on_trigger)
    return workload, machine, store, controller, actuator


class TestControlCycle:
    def test_trigger_to_actuation_within_machine_deadline(self, control_loop):
        workload, machine, store, controller, actuator = control_loop
        sim = Simulator()
        sensor = machine.vibration_sensor

        def emit(simulator):
            reading = sensor.reading_at(simulator.now)
            store.ingest(
                sensor.sensor_id, reading, simulator.now,
                size_bytes=reading.size_bytes,
            )

        sim.every(1.0, emit, until=4 * 3600.0)
        sim.run()
        assert actuator.commands, "vibration never tripped the stop rule"
        for command in actuator.commands:
            assert command.latency < MACHINE_DEADLINE
        assert controller.actions[0].command == "stop"

    def test_cooldown_limits_refiring(self, control_loop):
        workload, machine, store, controller, actuator = control_loop

        class HotReading:
            value = 99.0

        # push readings straight past the threshold every second
        for t in range(10):
            store.triggers.evaluate_raw(
                machine.vibration_sensor.sensor_id, HotReading(), float(t)
            )
        assert len(store.triggers.firings) == 1  # 60 s cooldown


class TestAdaptiveCycle:
    def test_analytics_pipeline_feeds_application(self):
        factory_loc = Location("hq/factory1")
        store = DataStore(factory_loc, HierarchicalStorage(10**7))
        aggregator = Aggregator(
            "temps", TimeBinStatistics(factory_loc, bin_seconds=10.0)
        )
        store.install_aggregator(aggregator)
        for t in range(100):
            store.ingest("temps", 40.0 + t * 0.1, float(t))
        store.close_epoch(100.0)

        series = store.query(
            "temps",
            QueryRequest("series", {"field": "mean"}),
            start=0.0,
            end=100.0,
            now=100.0,
        ).value
        trend = LinearTrend.fit(series)
        assert trend.slope > 0  # temperature is rising

    def test_epoch_close_is_slower_than_trigger_path(self, control_loop):
        """The adaptive cycle operates on epoch granularity (>= seconds),
        the control cycle on sub-millisecond dispatch."""
        workload, machine, store, controller, actuator = control_loop
        from repro.control.controller import ACTUATION_DELAY_S

        epoch_granularity = 10.0  # the aggregator's bin width
        assert ACTUATION_DELAY_S < epoch_granularity / 1000


class TestHierarchicalAggregationChain:
    def test_machine_to_factory_rollup(self, policy, random_flows):
        """Summaries combine up the hierarchy; totals are preserved."""
        from repro.core.flowtree import FlowtreePrimitive

        hierarchy = smart_factory_hierarchy(
            factories=1, lines_per_factory=2, machines_per_line=1
        )
        from repro.hierarchy.network import NetworkFabric

        fabric = NetworkFabric(hierarchy)
        line_locs = [
            Location("hq/factory1/line1"), Location("hq/factory1/line2")
        ]
        factory_loc = Location("hq/factory1")
        line_stores = [
            DataStore(loc, HierarchicalStorage(10**7), fabric=fabric)
            for loc in line_locs
        ]
        factory_store = DataStore(
            factory_loc, HierarchicalStorage(10**7), fabric=fabric
        )
        for store in line_stores:
            store.install_aggregator(
                Aggregator("ft", FlowtreePrimitive(store.location, policy))
            )
        factory_store.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(factory_loc, policy))
        )
        expected_flows = 0
        for index, store in enumerate(line_stores):
            records = random_flows(40, seed=index)
            expected_flows += len(records)
            for record in records:
                store.ingest("flows", record, record.first_seen)
            store.export_summaries("ft", factory_store, now=60.0)
        total = factory_store.aggregator("ft").primitive.query(
            QueryRequest("total", {})
        )
        assert total.flows == expected_flows
        assert fabric.total_bytes() > 0
