"""The golden depth-4 trace, and the all-ties trace that keeps it honest.

Two gates any rewrite of the tree core must survive.  The golden trace
(4 routers x 3000 flows x 3 epochs, seed 2019, budget 4096 at every
level — the one ``benchmarks/conftest.py`` feeds the fault drill and the
depth figure) reproduces its WAN volume, root mass and root digest bit
for bit.  And a trace in
which every record weighs the same — so every fold at every level is
decided by the compression tie-break alone — ends each epoch in the same
root tree on the memory engine, on the segment log, and after a kill +
recover at any epoch boundary: real byte counts rarely tie, so the
golden trace alone would not notice a tie-break that reads something a
segment file forgets.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.faults import FaultPlan
from repro.runtime.presets import network_4level_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from repro.storage import SegmentLogEngine

SITES = (
    "region1/router1",
    "region1/router2",
    "region2/router1",
    "region2/router2",
)
EPOCHS = 3


def root_digest(runtime) -> str:
    """SHA-256 of the root tree as one object per node.

    The document is built here from ``nodes()`` rather than taken from
    ``to_dict``, so the pinned digest stays a statement about the tree
    and not about whichever layout the store writes: header fields, then
    nodes depth by depth, sorted by values within a depth.
    """
    tree = runtime.db.merged_tree()
    nodes = sorted(tree.nodes(), key=lambda node: node.node_id)
    document = json.dumps(
        {
            "schema": tree.schema.name,
            "level_vectors": [list(v) for v in tree.policy.level_vectors],
            "node_budget": tree.node_budget,
            "compress_ratio": tree.compress_ratio,
            "metric": tree.metric,
            "nodes": [
                {
                    "depth": node.depth,
                    "values": list(node.values),
                    "own": [
                        node.own_packets, node.own_bytes, node.own_flows
                    ],
                    "folded": [
                        node.folded_packets,
                        node.folded_bytes,
                        node.folded_flows,
                    ],
                }
                for node in nodes
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def run_trace(flows, budget, storage=None, faults=None, unit_weight=False):
    """Drive the trace; returns the runtime and the digest per close.

    The unit-weight variant also holds the root's window merge to
    ``budget``, so trees read back from segments are merged *and
    compressed* — the step a forgotten tie-break input would change.
    """
    runtime = network_4level_runtime(
        networks=1,
        regions_per_network=2,
        routers_per_region=2,
        router_node_budget=budget,
        region_node_budget=budget,
        network_node_budget=budget,
        retain_partitions=True,
        storage=storage,
        faults=faults,
        **({"merge_node_budget": budget} if unit_weight else {}),
    )
    generator = TrafficGenerator(
        TrafficConfig(sites=SITES, flows_per_epoch=flows), seed=2019
    )
    digests = []
    for epoch in range(EPOCHS):
        for site in SITES:
            records = generator.epoch(site, epoch)
            if unit_weight:
                records = [replace(r, packets=1, bytes=1) for r in records]
            runtime.ingest(f"network1/{site}", records)
        runtime.close_epoch((epoch + 1) * 60.0)
        digests.append(root_digest(runtime))
    return runtime, digests


def test_golden_trace_reproduces_bit_for_bit():
    runtime, digests = run_trace(flows=3000, budget=4096)
    mass = runtime.query("SELECT TOTAL FROM ALL").scalar
    assert runtime.wan_bytes() == 707_616
    assert (mass.bytes, mass.flows) == (562_709_286, 36_000)
    assert len(runtime.db) == EPOCHS
    assert digests[-1] == (
        "6e39a90c258dc8daf37026b97922595c5d386ebfca3f2fa72145dda92d906d7b"
    )


def test_all_ties_trace_survives_segments_and_restarts(tmp_path):
    memory, expected = run_trace(400, 256, unit_weight=True)
    assert memory.db.merged_tree().compressions >= 1
    for boundary in (None, *range(EPOCHS)):  # None: never interrupted
        runtime, digests = run_trace(
            400,
            256,
            storage=SegmentLogEngine(str(tmp_path / f"data-{boundary}")),
            faults=(
                None
                if boundary is None
                else FaultPlan.from_spec(f"restart=cloud:{boundary}")
            ),
            unit_weight=True,
        )
        assert runtime._restarts == (boundary is not None), boundary
        assert digests == expected, boundary
        assert runtime.wan_bytes() == memory.wan_bytes(), boundary
