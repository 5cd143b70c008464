#!/usr/bin/env python3
"""Adaptive replication (Section VII): ski rental on query traces.

Part 1 replays a synthetic enterprise query trace (heavy-tailed
per-partition access runs — the structure the paper's SAP trace is said
to have) under every policy the paper discusses, reporting total
network cost against the clairvoyant offline optimum.

Part 2 runs the live Figure 6 loop on a runtime: distinct FlowQL
queries over one router's history each miss the result cache, so every
read ships that router's partial summaries to the cloud until the
break-even rule buys replicas of its partitions; every query after the
buy is answered on the replicas for free.  Exits 1 if that story
breaks: the first query ships nothing, the engine never buys, or a
query after the buy ships WAN bytes.

Run:  python examples/adaptive_replication.py
"""

import sys

from repro.replication.engine import (
    AdaptiveReplicationEngine,
    compare_policies,
)
from repro.replication.ski_rental import BreakEvenPolicy
from repro.runtime.presets import network_4level_runtime
from repro.simulation.querytrace import QueryTraceConfig
from repro.simulation.traffic import drive

PARTITION_BYTES = 10_000_000
#: sealed epochs of router history the live loop reads
EPOCHS = 3


def policy_shootout() -> None:
    print("== Part 1: policy shootout on a synthetic enterprise trace ==\n")
    for distribution, param in (("pareto", 1.3), ("lognormal", 1.0)):
        config = QueryTraceConfig(
            partitions=400,
            partition_bytes=PARTITION_BYTES,
            mean_result_bytes=1_000_000,
            run_length_distribution=distribution,
            run_length_param=param,
        )
        table = compare_policies(config, trace_seed=3, policy_seed=1)
        optimal = table.optimal_bytes
        print(f"-- {distribution} run lengths "
              f"({len(table.trace)} accesses, OPT = {optimal/1e6:.0f} MB) --")
        print(f"  {'policy':<22}{'network':>12}{'vs OPT':>9}"
              f"{'replications':>14}")
        for costs in table.costs:
            print(
                f"  {costs.policy:<22}"
                f"{costs.total_bytes/1e6:>10.0f}MB"
                f"{costs.competitive_ratio(optimal):>9.3f}"
                f"{costs.replications:>14}"
            )
        print()


def live_engine_demo() -> int:
    print("== Part 2: the live Figure 6 loop on a runtime ==\n")
    runtime = network_4level_runtime(1, 2, 1, retain_partitions=True)
    engine = AdaptiveReplicationEngine(BreakEvenPolicy())
    runtime.manager.enable_adaptive_replication(engine)
    site = drive(runtime, EPOCHS, flows_per_epoch=3000, seed=5)[0]
    catalog = runtime.store_for(site).catalog
    print(f"  {len(catalog)} partitions at {site} "
          f"({catalog.total_bytes():,} B)")

    print(f"\n  the cloud keeps asking {site} for a different top-k:")
    before_buy, after_buy = [], []
    for index in range(12):
        bought = bool(engine.outcomes)
        before = runtime.wan_bytes()
        outcome = runtime.query(
            f"SELECT TOPK({200 + index}) FROM TIME(0, {60 * EPOCHS}) "
            f"AT {site}"
        )
        wan = runtime.wan_bytes() - before
        (after_buy if bought else before_buy).append(wan)
        read = outcome.plan.reads[0]
        source = "replica" if read.served_locally else "router"
        note = "  <- REPLICATED" if engine.outcomes and not bought else ""
        print(f"    query {index:>2}: served from {source:<8} "
              f"WAN bytes {wan:>9,}{note}")
    print(f"\n  shipped {engine.shipped_bytes:,} B before buying "
          f"{engine.replication_bytes:,} B of replicas")
    # after_buy holds the queries asked once the engine had bought
    if before_buy[0] > 0 and after_buy and not any(after_buy):
        return 0
    print("error: the ship-then-buy story broke", file=sys.stderr)
    return 1


if __name__ == "__main__":
    policy_shootout()
    sys.exit(live_engine_demo())
