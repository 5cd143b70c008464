#!/usr/bin/env python3
"""An interactive FlowQL shell over a pre-loaded Flowstream.

Loads four sites x four epochs of synthetic traffic (with a DDoS in the
last epoch at region2) and drops into a read-eval-print loop.  Useful
for exploring the query language; run with ``--demo`` to execute a
scripted session instead of reading stdin.

Run:  python examples/flowql_repl.py [--demo]

Example queries to try::

    SELECT TOTAL FROM ALL
    SELECT TOPK(10) FROM ALL BY bytes
    SELECT GROUPBY(dst_port, 16) FROM ALL BY packets
    SELECT GROUPBY(src_ip, 8) FROM TIME(180, 240) AT region2/router1
    SELECT TOPK(5) FROM TIME(180, 240) VS TIME(120, 180) BY bytes
    SELECT HHH(0.05) FROM ALL
    SELECT QUERY FROM ALL WHERE dst_port = 443 AND src_ip = 23.0.0.0/8
"""

import sys

from repro.errors import ReproError
from repro.runtime import HierarchyRuntime, flat_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

SITES = (
    "region1/router1",
    "region2/router1",
    "region3/router1",
    "region4/router1",
)

DEMO_QUERIES = [
    "SELECT TOTAL FROM ALL",
    "SELECT TOPK(5) FROM ALL BY bytes",
    "SELECT GROUPBY(dst_port, 16) FROM ALL BY bytes",
    "SELECT GROUPBY(dst_ip, 32) FROM TIME(180, 240) VS TIME(120, 180) "
    "AT region2/router1 BY bytes",
    "SELECT HHH(0.05) FROM ALL BY bytes",
    "SELECT QUERY FROM ALL WHERE src_ip = 23.0.0.0/8 AND dst_port = 443",
]


def load_system() -> HierarchyRuntime:
    print("loading 4 sites x 4 epochs (DDoS at region2 in epoch 3) ...")
    system = flat_runtime(list(SITES), node_budget=4096)
    generator = TrafficGenerator(
        TrafficConfig(sites=SITES, flows_per_epoch=1500), seed=77
    )
    for epoch in range(4):
        for site in SITES:
            if epoch == 3 and site == "region2/router1":
                records = generator.ddos_epoch(site, epoch,
                                               attack_flows=1500)
            else:
                records = generator.epoch(site, epoch)
            system.ingest(site, records)
        system.close_epoch((epoch + 1) * 60.0)
    stats = system.db.stats()
    print(f"ready: {stats['entries']} summaries, "
          f"{stats['total_nodes']:,} tree nodes, sites: "
          f"{', '.join(system.db.locations())}\n")
    return system


def run_query(system: HierarchyRuntime, text: str) -> None:
    try:
        result = system.query(text)
    except ReproError as error:
        print(f"  error: {error}")
        return
    if result.scalar is not None:
        print(f"  {result.scalar}")
        return
    print(f"  {'flow':<90}{'packets':>10}{'bytes':>12}{'flows':>7}")
    for row in result.rows[:15]:
        print(f"  {row[0]:<90}{row[1]:>10,}{row[2]:>12,}{row[3]:>7,}")
    if len(result.rows) > 15:
        print(f"  ... {len(result.rows) - 15} more rows")


def main() -> None:
    system = load_system()
    if "--demo" in sys.argv:
        for text in DEMO_QUERIES:
            print(f"flowql> {text}")
            run_query(system, text)
            print()
        return
    print("FlowQL shell — 'help' shows examples, 'quit' exits.")
    while True:
        try:
            line = input("flowql> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            break
        if not line:
            continue
        if line.lower() in ("quit", "exit"):
            break
        if line.lower() == "help":
            print(__doc__)
            continue
        run_query(system, line)


if __name__ == "__main__":
    main()
