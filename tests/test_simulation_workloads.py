"""Tests for the workload generators: sensors, factory, traffic, traces."""

import math

import pytest

from repro.core.summary import Location
from repro.faults import FaultPlan
from repro.runtime.presets import network_4level_runtime
from repro.simulation.events import Simulator
from repro.simulation.factory import (
    FAILURE_WEAR,
    Machine,
    MachineState,
    build_factory,
)
from repro.simulation.querytrace import QueryTraceConfig, QueryTraceGenerator
from repro.simulation.sensors import (
    BYTES_3D_CAMERA_PER_HOUR,
    BYTES_HD_CAMERA_PER_HOUR,
    Actuator,
    CameraSensor,
    ScalarSensor,
)
from repro.simulation.traffic import TrafficConfig, TrafficGenerator, drive

LOC = Location("hq/factory1/line1/machine1")


class TestSensors:
    def test_scalar_sensor_rate(self):
        sensor = ScalarSensor("s1", LOC, rate_hz=10.0, value_fn=lambda t: t)
        sim = Simulator()
        readings = []
        sensor.attach(sim, readings.append, until=2.0)
        sim.run()
        # 20 firings expected; float step accumulation may drop the one
        # landing exactly on the boundary
        assert len(readings) in (19, 20)

    def test_scalar_sensor_noise_determinism(self):
        a = ScalarSensor(
            "s", LOC, 1.0, lambda t: 5.0, noise_std=1.0, seed=42
        )
        b = ScalarSensor(
            "s", LOC, 1.0, lambda t: 5.0, noise_std=1.0, seed=42
        )
        assert a.reading_at(1.0).value == b.reading_at(1.0).value

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ScalarSensor("s", LOC, 0.0, lambda t: 0.0)

    def test_camera_rates_match_paper(self):
        camera_3d = CameraSensor("c3d", LOC, BYTES_3D_CAMERA_PER_HOUR)
        camera_hd = CameraSensor("chd", LOC, BYTES_HD_CAMERA_PER_HOUR)
        # 52 GB/h and 17.5 GB/h as cited in Section II.A
        assert camera_3d.bytes_per_second() == pytest.approx(52e9 / 3600)
        assert camera_hd.bytes_per_second() == pytest.approx(17.5e9 / 3600)
        assert camera_3d.bytes_per_frame > camera_hd.bytes_per_frame

    def test_camera_reading_is_opaque(self):
        camera = CameraSensor("c", LOC)
        reading = camera.reading_at(0.0)
        assert math.isnan(reading.value)
        assert reading.size_bytes > 0

    def test_actuator_records_latency(self):
        actuator = Actuator("a1", LOC)
        actuator.actuate("stop", issued_at=1.0, received_at=1.5, source="r")
        assert actuator.commands[0].latency == 0.5


class TestMachine:
    def test_wear_accumulates_and_fails(self):
        machine = Machine("m", LOC, wear_rate_per_hour=0.5, seed=1)
        assert machine.wear_at(3600.0) == pytest.approx(0.5)
        machine.wear_at(2 * 3600.0)
        assert machine.state is MachineState.FAILED
        assert machine.wear == FAILURE_WEAR
        assert len(machine.failures) == 1

    def test_failed_machine_stops_wearing(self):
        machine = Machine("m", LOC, wear_rate_per_hour=1.0, seed=1)
        machine.wear_at(3 * 3600.0)
        assert machine.state is MachineState.FAILED
        wear = machine.wear
        machine.wear_at(10 * 3600.0)
        assert machine.wear == wear

    def test_maintenance_resets(self):
        machine = Machine("m", LOC, wear_rate_per_hour=0.5, seed=1)
        machine.wear_at(3600.0)
        machine.perform_maintenance(3600.0)
        assert machine.wear == 0.0
        assert machine.state is MachineState.RUNNING
        assert machine.maintenances == [3600.0]

    def test_vibration_grows_with_wear(self):
        machine = Machine("m", LOC, wear_rate_per_hour=0.2, seed=1)
        early = machine._vibration_at(0.0)
        late = machine._vibration_at(4 * 3600.0)
        assert late > early


class TestFactory:
    def test_build_is_deterministic(self):
        a = build_factory(seed=3)
        b = build_factory(seed=3)
        assert [m.wear_rate_per_hour for m in a.machines] == [
            m.wear_rate_per_hour for m in b.machines
        ]

    def test_structure(self):
        factory = build_factory(lines=2, machines_per_line=4)
        assert len(factory.lines) == 2
        assert len(factory.machines) == 8
        assert factory.sensor_count() == 8 * 2 + 2  # 2 sensors/machine + cams

    def test_raw_rate_dominated_by_cameras(self):
        factory = build_factory()
        camera_rate = sum(c.bytes_per_second() for c in factory.cameras)
        assert factory.raw_bytes_per_second() > camera_rate
        assert camera_rate / factory.raw_bytes_per_second() > 0.99

    def test_attach_streams_readings(self):
        factory = build_factory(lines=1, machines_per_line=2)
        sim = Simulator()
        readings = []
        factory.attach(sim, readings.append, until=5.0)
        sim.run()
        assert readings
        assert all(r.size_bytes > 0 for r in readings)


class TestTraffic:
    def test_epoch_deterministic(self, traffic_generator):
        a = traffic_generator.epoch("region1/router1", 0)
        b = traffic_generator.epoch("region1/router1", 0)
        assert [(r.key, r.bytes) for r in a] == [(r.key, r.bytes) for r in b]

    def test_epochs_differ(self, traffic_generator):
        a = traffic_generator.epoch("region1/router1", 0)
        b = traffic_generator.epoch("region1/router1", 1)
        assert [(r.key, r.bytes) for r in a] != [(r.key, r.bytes) for r in b]

    def test_sites_differ(self, traffic_generator):
        a = traffic_generator.epoch("region1/router1", 0)
        b = traffic_generator.epoch("region2/router1", 0)
        assert [r.key for r in a] != [r.key for r in b]

    def test_timestamps_inside_epoch(self, traffic_generator):
        epoch_seconds = traffic_generator.config.epoch_seconds
        for record in traffic_generator.epoch("region1/router1", 2):
            assert 2 * epoch_seconds <= record.first_seen
            assert record.last_seen <= 3 * epoch_seconds

    def test_destinations_inside_site_prefix(self, traffic_generator):
        prefix = traffic_generator.internal_prefix("region1/router1")
        for record in traffic_generator.epoch("region1/router1", 0):
            assert record.key.feature_value("dst_ip") & 0xFFFFFF00 == prefix

    def test_popularity_skew(self):
        generator = TrafficGenerator(
            TrafficConfig(flows_per_epoch=5000), seed=1
        )
        records = generator.epoch("region1/router1", 0)
        sources = {}
        for record in records:
            src = record.key.feature_value("src_ip")
            sources[src] = sources.get(src, 0) + 1
        counts = sorted(sources.values(), reverse=True)
        # Zipf-ish: the top source must beat the median source many times
        assert counts[0] >= 10 * counts[len(counts) // 2]

    def test_sampling_thins_flows(self):
        dense = TrafficGenerator(
            TrafficConfig(flows_per_epoch=500, sample_1_in=1), seed=5
        )
        sampled = TrafficGenerator(
            TrafficConfig(flows_per_epoch=500, sample_1_in=100), seed=5
        )
        dense_records = dense.epoch("region1/router1", 0)
        sampled_records = sampled.epoch("region1/router1", 0)
        assert len(sampled_records) < len(dense_records) / 2

    def test_packet_epoch_sampling(self):
        generator = TrafficGenerator(
            TrafficConfig(flows_per_epoch=2000), seed=3
        )
        packets = generator.packet_epoch(
            "region1/router1", 0, sample_1_in=100
        )
        assert packets
        times = [p.timestamp for p in packets]
        assert times == sorted(times)
        assert all(p.sampled_1_in == 100 for p in packets)

    def test_packet_estimates_unbiased(self, policy):
        """A Flowtree fed sampled packets estimates the flow-level
        ground truth within sampling noise."""
        from repro.flows.tree import Flowtree

        generator = TrafficGenerator(
            TrafficConfig(flows_per_epoch=4000), seed=9
        )
        flows = generator.epoch("region1/router1", 0)
        truth_bytes = sum(r.bytes for r in flows)
        tree = Flowtree(policy, node_budget=None)
        tree.ingest(
            generator.packet_epoch("region1/router1", 0, sample_1_in=50)
        )
        estimate = tree.total().bytes
        assert 0.7 * truth_bytes < estimate < 1.3 * truth_bytes

    def test_packet_epoch_ignores_flow_sampling(self):
        """Flow-level thinning must not bias the packet view."""
        thinned = TrafficGenerator(
            TrafficConfig(flows_per_epoch=500, sample_1_in=100), seed=4
        )
        dense = TrafficGenerator(
            TrafficConfig(flows_per_epoch=500, sample_1_in=1), seed=4
        )
        a = thinned.packet_epoch("region1/router1", 0, sample_1_in=10)
        b = dense.packet_epoch("region1/router1", 0, sample_1_in=10)
        assert [(p.key, p.bytes) for p in a] == [(p.key, p.bytes) for p in b]

    def test_ddos_epoch_adds_attack(self, traffic_generator):
        normal = traffic_generator.epoch("region1/router1", 0)
        attacked = traffic_generator.ddos_epoch(
            "region1/router1", 0, attack_flows=500
        )
        assert len(attacked) == len(normal) + 500
        victim = traffic_generator.internal_prefix("region1/router1") | 1
        attack_records = [
            r for r in attacked if r.key.feature_value("dst_ip") == victim
        ]
        assert len(attack_records) >= 500

    def test_added_site_leaves_known_sites_unchanged(self, traffic_generator):
        before = traffic_generator.epoch("region2/router1", 1)
        traffic_generator.add_sites(["region1/router1", "region3/router7"])
        after = traffic_generator.epoch("region2/router1", 1)
        assert [(r.key, r.bytes, r.packets) for r in before] == [
            (r.key, r.bytes, r.packets) for r in after
        ]
        assert (
            traffic_generator.internal_prefix("region3/router7")
            >> 8 & 0xFF
        ) == 2  # the next prefix after the two configured sites


class TestDrive:
    def test_a_joined_site_is_fed_from_the_next_epoch(self):
        """A site a reconfig drill joins at close 0 ingests the two
        epochs after it, as every other router ingests all three."""
        joined = "network1/region2/router9"
        runtime = network_4level_runtime(
            faults=FaultPlan.from_spec(f"reconfig=join:{joined}:0")
        )
        sites = drive(runtime, 3, 200, 42)
        assert sites[-1] == joined
        items = {
            label: store.ingest_stats.items
            for label, store in runtime.stores_at_level("router").items()
        }
        assert items.pop(joined) == 2 * 200
        assert set(items.values()) == {3 * 200}


class TestQueryTrace:
    def test_deterministic(self):
        a = QueryTraceGenerator(seed=9).trace()
        b = QueryTraceGenerator(seed=9).trace()
        assert a == b

    def test_time_ordered(self):
        trace = QueryTraceGenerator(seed=1).trace()
        times = [event.time for event in trace]
        assert times == sorted(times)

    def test_every_partition_appears(self):
        config = QueryTraceConfig(partitions=50)
        trace = QueryTraceGenerator(config, seed=2).trace()
        assert len({e.partition_id for e in trace}) == 50

    def test_heavy_tail(self):
        config = QueryTraceConfig(
            partitions=500, run_length_distribution="pareto",
            run_length_param=1.2,
        )
        runs = QueryTraceGenerator(config, seed=3).partition_runs()
        lengths = sorted({len(run) for run in runs.values()})
        assert max(lengths) > 10 * min(lengths)

    def test_unknown_distribution(self):
        config = QueryTraceConfig(run_length_distribution="nope")
        with pytest.raises(ValueError):
            QueryTraceGenerator(config).trace()

    def test_all_distributions_produce_positive_runs(self):
        for dist, param in (
            ("geometric", 1.0),
            ("pareto", 1.5),
            ("lognormal", 0.8),
        ):
            config = QueryTraceConfig(
                partitions=20,
                run_length_distribution=dist,
                run_length_param=param,
            )
            for run in QueryTraceGenerator(config, seed=4).partition_runs().values():
                assert len(run) >= 1
                assert all(e.result_bytes >= 1024 for e in run)
