#!/usr/bin/env python3
"""Quickstart: Flowtrees, Flowstream, and FlowQL in five minutes.

Builds the Figure 5 system over two simulated router sites, feeds three
epochs of Zipf traffic through it, and asks the kinds of questions the
paper says must be answerable without having been planned for.

Run:  python examples/quickstart.py
"""

from repro import flat_runtime
from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.records import Score
from repro.flows.tree import Flowtree
from repro.simulation.traffic import drive


def flowtree_basics() -> None:
    """The computing primitive on its own: ingest, query, merge, diff."""
    print("== Flowtree basics ==")
    policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
    morning = Flowtree(policy, node_budget=4096)
    evening = Flowtree(policy, node_budget=4096)

    web = FIVE_TUPLE.key(
        proto="tcp", src_ip="203.0.113.7", dst_ip="10.0.0.5",
        src_port=44123, dst_port=443,
    )
    dns = FIVE_TUPLE.key(
        proto="udp", src_ip="198.51.100.9", dst_ip="10.0.0.53",
        src_port=53535, dst_port=53,
    )
    morning.add(web, Score(packets=120, bytes=150_000, flows=1))
    morning.add(dns, Score(packets=2, bytes=400, flows=1))
    evening.add(web, Score(packets=500, bytes=800_000, flows=1))

    print(f"  morning web traffic: {morning.query(web).bytes:,} B")
    # unioned in (interval start, location) order: morning, then evening
    merged = Flowtree.union(
        [((64_800.0, "router1"), evening), ((21_600.0, "router1"), morning)],
        morning.node_budget,
    )
    print(f"  whole day web traffic: {merged.query(web).bytes:,} B")
    growth = evening.diff(morning)
    print(f"  evening-vs-morning delta: {growth.query(web).bytes:,} B")
    prefix = web.generalize("src_ip", 8)
    print(f"  everything from 203/8: {merged.query(prefix).bytes:,} B")
    print()


def flowstream_tour() -> None:
    """The full system: routers -> data stores -> FlowDB -> FlowQL."""
    print("== Flowstream ==")
    sites = ["region1/router1", "region2/router1"]
    system = flat_runtime(sites, node_budget=4096)
    drive(system, 3, flows_per_epoch=2000, seed=42)

    print(f"  raw traffic observed : {system.stats.raw_bytes:,} B")
    print(f"  summaries exported   : {system.stats.exported_bytes:,} B")
    print(f"  reduction factor     : {system.stats.reduction_factor:,.0f}x")
    print()

    queries = [
        ("top flows across both sites",
         "SELECT TOPK(3) FROM ALL BY bytes"),
        ("service mix (bytes per destination port)",
         "SELECT GROUPBY(dst_port, 16) FROM ALL BY bytes"),
        ("traffic from one prefix, one site, one epoch",
         "SELECT QUERY FROM TIME(0, 60) AT region1/router1 "
         "WHERE src_ip = 23.0.0.0/8"),
        ("what changed between epoch 2 and epoch 1",
         "SELECT TOPK(3) FROM TIME(60, 120) VS TIME(0, 60) BY bytes"),
        ("hierarchical heavy hitters (2% of all traffic)",
         "SELECT HHH(0.02) FROM ALL BY bytes"),
    ]
    for label, text in queries:
        result = system.query(text)
        print(f"  {label}:")
        print(f"    {text}")
        if result.scalar is not None:
            print(f"    -> {result.scalar}")
        else:
            for row in result.rows[:3]:
                print(f"    -> {row[0]}  bytes={row[2]:,}")
        print()


if __name__ == "__main__":
    flowtree_basics()
    flowstream_tour()
