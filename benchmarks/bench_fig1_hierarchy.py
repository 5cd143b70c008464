"""Figure 1: hierarchical aggregation tames the data flood.

The figure's claim: data rates at each level of the hierarchy (machine →
line → factory/edge → cloud; router → region → network → cloud) must
fall fast enough that each level can act within its deadline and the
WAN only carries summaries.  We measure the per-level byte rate before
and after aggregation in both settings.
"""

from __future__ import annotations

from benchmarks.conftest import (
    GOLDEN_BUDGETS,
    GOLDEN_SITES,
    SITES,
    depth4_runtime,
    feed,
    report,
)
from repro.core.flowtree import FlowtreePrimitive
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.hierarchy.network import DEFAULT_BANDWIDTH_BPS, NetworkFabric
from repro.hierarchy.topology import network_monitoring_hierarchy
from repro.runtime.presets import flat_runtime, tiered_runtime
from repro.simulation.factory import build_factory


def test_factory_rate_reduction_per_level(benchmark):
    """Machine-level raw rate vs line-level bin summaries vs factory-level
    epoch stats: each level cuts the rate by orders of magnitude."""
    factory = build_factory(lines=3, machines_per_line=8)

    def compute():
        raw = factory.raw_bytes_per_second()
        scalar_raw = sum(
            sensor.bytes_per_second()
            for machine in factory.machines
            for sensor in machine.sensors
        )
        # line level: 1-second bins per sensor stream (48 B/bin)
        line_rate = sum(
            48.0 for machine in factory.machines for _ in machine.sensors
        )
        # factory level: 60-second bins
        factory_rate = line_rate / 60.0
        # cloud level: one stats row per sensor per hour
        cloud_rate = line_rate / 3600.0
        return raw, scalar_raw, line_rate, factory_rate, cloud_rate

    raw, scalar_raw, line_rate, factory_rate, cloud_rate = benchmark(compute)
    wan = DEFAULT_BANDWIDTH_BPS["cloud"] / 8.0
    report(
        "Fig. 1a: factory data rates per level (bytes/s)",
        [
            ("machine (raw, incl. cameras)", f"{raw:.3g}"),
            ("machine (scalar sensors)", f"{scalar_raw:.3g}"),
            ("line (1 s bins)", f"{line_rate:.3g}"),
            ("factory (60 s bins)", f"{factory_rate:.3g}"),
            ("cloud (1 h stats)", f"{cloud_rate:.3g}"),
            ("WAN capacity", f"{wan:.3g}"),
        ],
    )
    assert raw > wan, "raw rate must exceed the WAN (the premise)"
    assert cloud_rate < wan, "aggregated rate must fit the WAN (the claim)"
    assert raw / cloud_rate > 1e6
    benchmark.extra_info["reduction_factor"] = raw / cloud_rate


def test_network_rate_reduction_per_level(benchmark, policy, traffic):
    """Router flow exports vs per-epoch Flowtree summaries up the tree."""
    hierarchy = network_monitoring_hierarchy(regions=4, routers_per_region=1)
    fabric = NetworkFabric(hierarchy)

    def run_epoch():
        fabric.reset_accounting()
        raw_bytes = 0
        summary_bytes = 0
        cloud = hierarchy.root.location
        for index, site in enumerate(SITES):
            location = Location(f"cloud/network/region{index + 1}/router1")
            store = DataStore(location, RoundRobinStorage(10**8), fabric=fabric)
            store.install_aggregator(
                Aggregator(
                    "ft", FlowtreePrimitive(location, policy, node_budget=4096)
                )
            )
            records = traffic.epoch(site, 0)
            for record in records:
                store.ingest("flows", record, record.first_seen, size_bytes=48)
                raw_bytes += record.bytes
            partition = store.close_epoch(60.0)[0]
            fabric.transfer(location, cloud, partition.size_bytes, 60.0)
            summary_bytes += partition.size_bytes
        return raw_bytes, summary_bytes

    raw_bytes, summary_bytes = benchmark.pedantic(
        run_epoch, rounds=2, iterations=1
    )
    report(
        "Fig. 1b: network volumes per epoch (bytes)",
        [
            ("raw traffic observed at routers", raw_bytes),
            ("summaries shipped to cloud", summary_bytes),
            ("reduction factor", f"{raw_bytes / summary_bytes:.1f}x"),
            ("wan bytes accounted", fabric.wan_bytes()),
        ],
    )
    assert summary_bytes < raw_bytes / 10
    benchmark.extra_info["reduction_factor"] = raw_bytes / summary_bytes


def test_deadlines_vs_loop_latencies(benchmark):
    """Each level's decision deadline (Fig. 1a annotations) is met by the
    corresponding loop in the architecture."""
    from repro.control.controller import ACTUATION_DELAY_S
    from repro.hierarchy.topology import (
        LINE_DEADLINE,
        MACHINE_DEADLINE,
        smart_factory_hierarchy,
    )

    hierarchy = smart_factory_hierarchy()
    fabric = NetworkFabric(hierarchy)

    def compute():
        machine_latency = ACTUATION_DELAY_S
        # line level: one summary export machine -> line + decision
        line_latency = fabric.transfer(
            Location("hq/factory1/line1/machine1"),
            Location("hq/factory1/line1"),
            50_000,
        ).duration
        # cloud level: factory -> hq export of a compressed epoch summary
        cloud_latency = fabric.transfer(
            Location("hq/factory1"), Location("hq"), 5_000_000
        ).duration
        return machine_latency, line_latency, cloud_latency

    machine_latency, line_latency, cloud_latency = benchmark(compute)
    report(
        "Fig. 1a: deadlines vs measured path latencies (seconds)",
        [
            ("machine", MACHINE_DEADLINE, f"{machine_latency:.5f}"),
            ("line", LINE_DEADLINE, f"{line_latency:.5f}"),
            ("cloud (weekly horizon)", "604800", f"{cloud_latency:.3f}"),
        ],
        columns=("level", "deadline", "measured"),
    )
    assert machine_latency < MACHINE_DEADLINE
    assert line_latency < LINE_DEADLINE


def test_wan_shrinks_with_depth():
    """Figures 1-2: every extra merge tier deduplicates the generalized
    nodes its children share before anything leaves the edge.  The
    golden trace through the depth-2/3/4 presets, equal budgets."""
    flat = flat_runtime(list(GOLDEN_SITES), node_budget=4096)
    tiered = tiered_runtime(
        list(GOLDEN_SITES),
        router_node_budget=4096,
        region_node_budget=4096,
    )
    for runtime in (flat, tiered):
        feed(runtime, 3000, range(3))
    deep = depth4_runtime(3000, 3, **GOLDEN_BUDGETS)
    wan = {2: flat.wan_bytes(), 3: tiered.wan_bytes(), 4: deep.wan_bytes()}
    # the WAN savings are bought with interior fabric hops
    for runtime in (flat, tiered, deep):
        assert runtime.total_network_bytes() > runtime.wan_bytes()
    report(
        "Fig. 1/2: WAN bytes vs hierarchy depth (golden trace)",
        sorted(wan.items()),
        columns=("depth", "wan B"),
    )
    assert wan[4] <= wan[3] <= wan[2]
    assert wan == {2: 3_038_472, 3: 1_415_232, 4: 707_616}
