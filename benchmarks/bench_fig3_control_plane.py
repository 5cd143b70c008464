"""Figure 3: control cycle vs adaptive cycle, and Manager reconfiguration.

Claims measured here:

* **Fig. 3a** — the trigger→controller control cycle is orders of
  magnitude faster than the analytics→application adaptive cycle, which
  is why machines "may not be able to wait for input from applications".
* **Fig. 3b** — the Manager can change a primitive's parameters on a
  running store (un/subscribe, change parameter) and the aggregator
  self-adapts to rate changes between epochs.
"""

from __future__ import annotations

import time as wallclock


from benchmarks.conftest import report
from repro.control.controller import Controller
from repro.control.requirements import ApplicationRequirement
from repro.control.rules import ControlRule
from repro.core.primitive import QueryRequest
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.datastore.triggers import TriggerFiring
from repro.scenarios.factory import FactoryScenario
from repro.simulation.sensors import Actuator

LOC = Location("hq/factory1/line1")


def test_control_cycle_latency(benchmark):
    """Trigger firing → rule match → actuation (the fast path)."""
    controller = Controller(LOC)
    controller.register_actuator(Actuator("arm", LOC))
    controller.install_rule(
        ControlRule("stop", command="stop", target_actuator="arm")
    )
    firing = TriggerFiring(
        trigger_id="t", stream_id="s", time=0.0, payload=1, installed_by="x"
    )
    benchmark(lambda: controller.on_trigger(firing))
    assert controller.actions


def test_adaptive_cycle_latency(benchmark):
    """Epoch close → window query → app decision (the slow path)."""
    store = DataStore(LOC, RoundRobinStorage(10**7))
    store.install_aggregator(
        Aggregator(
            "temps",
            __import__(
                "repro.core.timebin", fromlist=["TimeBinStatistics"]
            ).TimeBinStatistics(LOC, bin_seconds=1.0),
        )
    )
    clock = {"t": 0.0}

    def one_cycle():
        start = clock["t"]
        for i in range(600):
            clock["t"] += 1.0
            store.ingest("temps", 40.0 + i * 0.01, clock["t"])
        store.close_epoch(clock["t"])
        result = store.query(
            "temps",
            QueryRequest("stats", {}),
            start=start,
            end=clock["t"],
            now=clock["t"],
        )
        return result.value

    stats = benchmark.pedantic(one_cycle, rounds=5, iterations=1)
    assert stats.count == 600


def test_cycle_separation(benchmark, policy):
    """The paper's premise: control cycle << adaptive cycle."""
    controller = Controller(LOC)
    controller.register_actuator(Actuator("arm", LOC))
    controller.install_rule(
        ControlRule("stop", command="stop", target_actuator="arm")
    )
    firing = TriggerFiring(
        trigger_id="t", stream_id="s", time=0.0, payload=1, installed_by="x"
    )
    def thousand_triggers():
        for _ in range(1000):
            controller.on_trigger(firing)

    started = wallclock.perf_counter()
    benchmark.pedantic(thousand_triggers, rounds=1, iterations=1)
    control_cycle = (wallclock.perf_counter() - started) / 1000

    store = DataStore(LOC, RoundRobinStorage(10**7))
    from repro.core.timebin import TimeBinStatistics

    store.install_aggregator(
        Aggregator("temps", TimeBinStatistics(LOC, bin_seconds=1.0))
    )
    started = wallclock.perf_counter()
    for i in range(600):
        store.ingest("temps", 1.0, float(i))
    store.close_epoch(600.0)
    store.query(
        "temps", QueryRequest("stats", {}), start=0.0, end=600.0, now=600.0
    )
    adaptive_cycle = wallclock.perf_counter() - started
    report(
        "Fig. 3a: cycle latencies (wall-clock seconds)",
        [
            ("control cycle (per trigger)", f"{control_cycle:.2e}"),
            ("adaptive cycle (per epoch)", f"{adaptive_cycle:.2e}"),
            ("separation", f"{adaptive_cycle / control_cycle:.0f}x"),
        ],
    )
    assert adaptive_cycle > 10 * control_cycle


def test_manager_reconfiguration(benchmark):
    """Fig. 3b: change-parameter and un/subscribe through the Manager."""
    scenario = FactoryScenario(
        lines=1, machines_per_line=1, with_maintenance=False
    )
    manager, store = scenario.manager, scenario.store
    (machine,) = scenario.workload.machines
    sensor = machine.temperature_sensor
    reading = sensor.reading_at(0.5)

    def reconfigure():
        manager.submit_requirement(
            ApplicationRequirement(
                app_name="app",
                aggregator_name="temps",
                kind="timebin",
                location=machine.location,
                config={
                    "bin_seconds": 1.0,
                    "item_of": lambda reading: reading.value,
                },
                stream_prefix=sensor.sensor_id,
            )
        )
        store.ingest(sensor.sensor_id, reading, 0.5)
        manager.retune(machine.location, "temps", 60.0)
        width = store.aggregator("temps").primitive.bin_seconds
        manager.withdraw_application("app")
        return width

    width = benchmark.pedantic(reconfigure, rounds=20, iterations=1)
    assert width == 60.0
    assert not store.aggregators()  # unsubscribe completed


def test_self_adaptation_to_rate_change(benchmark):
    """Aggregators re-tune between epochs when the stream rate explodes
    and storage pressure mounts (the adaptive cycle's purpose)."""
    from repro.core.sampling import RandomSamplePrimitive

    def run():
        store = DataStore(LOC, RoundRobinStorage(200_000))
        sampler = RandomSamplePrimitive(LOC, rate=1.0, seed=1)
        store.install_aggregator(Aggregator("s", sampler))
        rates = []
        t = 0.0
        for epoch in range(6):
            # rate doubles every epoch: 1k, 2k, 4k ... items
            for _ in range(1000 * 2**epoch):
                t += 0.001
                store.ingest("s", 1.0, t)
            store.close_epoch(t)
            rates.append(sampler.rate)
        return rates

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Fig. 3b: sampler rate under storage pressure",
        [(f"epoch {i}", f"{rate:.4f}") for i, rate in enumerate(rates)],
    )
    assert rates[-1] < rates[0], "sampler must shed load as pressure rises"
