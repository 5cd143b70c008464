#!/usr/bin/env python3
"""The full Figure 2b hierarchy: tiers, privacy, and graph analysis.

Eight routers in four regions feed the tiered runtime (router stores →
region stores → cloud FlowDB).  The demo shows three things the flat
quickstart cannot:

1. **Mid-tier aggregation pays**: the region merge dedups generalized
   nodes shared by co-located routers, so fewer summary bytes cross the
   WAN than in the flat design — measured side by side.
2. **Privacy at the boundary** (Section III.C): a second run exports
   region summaries through a privacy guard that truncates addresses to
   /16, and the cloud's view provably contains no host addresses while
   prefix-level answers survive.
3. **Graph analysis** (Figure 2a "Graph Analysis"): the cloud's merged
   tree becomes a communication graph — top talkers, traffic
   communities, and the hierarchy's choke-point links.

Run:  python examples/tiered_hierarchy.py
"""

from repro.analytics.graph import (
    communication_graph,
    hierarchy_choke_points,
    top_talkers,
    traffic_communities,
)
from repro.datastore.privacy import ExportRule, PrivacyGuard, PrivacyPolicy
from repro.runtime import flat_runtime, tiered_runtime
from repro.simulation.traffic import drive

SITES = [
    f"region{region}/router{router}"
    for region in (1, 2, 3, 4)
    for router in (1, 2)
]
EPOCHS = 2


def load(system):
    drive(system, EPOCHS, flows_per_epoch=1200, seed=23)
    return system


def main() -> None:
    print("== 1. flat vs tiered WAN volume ==")
    flat = load(flat_runtime(SITES, node_budget=4096))
    tiered = load(
        tiered_runtime(
            SITES, router_node_budget=4096, region_node_budget=4096
        )
    )
    flat_wan = flat.wan_bytes()
    tiered_wan = tiered.wan_bytes()
    print(f"  flat   (router->cloud)        : {flat_wan:>12,} B")
    print(f"  tiered (router->region->cloud): {tiered_wan:>12,} B "
          f"({1 - tiered_wan / flat_wan:.0%} less)")
    assert (
        flat.query("SELECT TOTAL FROM ALL").scalar
        == tiered.query("SELECT TOTAL FROM ALL").scalar
    )
    print("  identical query answers at the cloud: yes\n")

    print("== 2. privacy at the region boundary ==")
    guard = PrivacyGuard(
        PrivacyPolicy(default=ExportRule(min_ip_prefix=16))
    )
    private = tiered_runtime(
        SITES, router_node_budget=4096, region_node_budget=4096
    )
    for store in private.stores_at_level("region").values():
        store.privacy = guard
    load(private)
    cloud_trees = [entry.tree for entry in private.db.entries()]
    host_specific = sum(
        1
        for tree in cloud_trees
        for node in tree.nodes()
        if tree.key_of(node).feature_level("src_ip") > 16
        or tree.key_of(node).feature_level("dst_ip") > 16
    )
    print(f"  cloud-side nodes more specific than /16: {host_specific}")
    total = private.query("SELECT TOTAL FROM ALL").scalar
    prefix = private.query(
        "SELECT QUERY FROM ALL WHERE src_ip = 23.0.0.0/8"
    ).scalar
    print(f"  totals survive anonymization  : {total.flows:,} flows")
    print(f"  /8-prefix answers survive     : {prefix.bytes:,} B from 23/8")
    print(f"  export audit entries          : {len(guard.audit_log)}\n")

    print("== 3. graph analysis on the cloud's merged view ==")
    merged = tiered.db.merged_tree()
    graph = communication_graph(merged, prefix_level=8)
    print(f"  communication graph: {graph.number_of_nodes()} prefixes, "
          f"{graph.number_of_edges()} edges")
    print("  top talkers:")
    for prefix_name, volume in top_talkers(graph, k=3):
        print(f"    {prefix_name:<14} {volume/1e6:8.1f} MB")
    communities = traffic_communities(
        graph, min_edge_weight=merged.total().bytes * 0.001
    )
    print(f"  traffic communities (>0.1% edges): {len(communities)}")
    print("  hierarchy choke points (betweenness x 1/bandwidth):")
    for (a, b), score in hierarchy_choke_points(tiered.fabric, k=3):
        print(f"    {a} <-> {b}  ({score:.3f})")


if __name__ == "__main__":
    main()
