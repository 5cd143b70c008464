"""Workload definitions and the only trace/runtime builder.

Every workload runs the same pass (see ``serve_worker.py``): the
``network_4level_runtime`` preset (1 network x 2 regions x 2 routers,
every node budget 4096 so compression fires, partitions retained so
``AT <router>`` plans, serial ingest) is fed ``rounds`` epochs — each
ingested in ``batch``-record ``runtime.ingest`` calls, closed, then
queried in-process — and is finally served over HTTP.  The four
workloads are four *mixes* of that pass: each spends most of its time
in a different layer, and each uses the layers it does not stress
differently from the workload that does (see ``README.md``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.presets import network_4level_runtime
from repro.runtime.runtime import HierarchyRuntime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from repro.storage import SegmentLogEngine

NODE_BUDGET = 4096
EPOCH_SECONDS = 60.0
#: the CPUs this process may use, read before ``pin`` narrows them
CPUS = (
    sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
)


def lap_cpu(lap: int) -> Optional[int]:
    """The CPU lap number ``lap`` of a run is measured on.

    A lap keeps the program and its load generator on one CPU, so a
    timing depends on that CPU's speed alone and not on where the
    scheduler puts what; consecutive laps take the CPUs in turn, so an
    op's fastest time over the laps does not hang on one CPU's
    neighbours.
    """
    return CPUS[lap % len(CPUS)] if CPUS else None


def pin(cpu: Optional[int]) -> None:
    """Keep this thread, and threads it starts, on ``cpu`` (None: all)."""
    if CPUS:
        try:
            os.sched_setaffinity(0, CPUS if cpu is None else {cpu})
        except OSError:  # not allowed here: measure unpinned
            pass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dominant: str  # the path predicted to dominate: see run.dominant_share
    durable: bool  # SegmentLogEngine in a scratch dir, else memory
    rounds: int  # epochs ingested + closed in the measured phase
    flows: int  # flow records per site per epoch (4 sites)
    batch: int  # records per ``runtime.ingest`` call
    standing: int  # standing queries registered before the first epoch
    cold_queries: int  # never-seen queries per round
    hit_repeats: int  # repeats per round of the 4 dashboard queries
    serve_requests: int  # request slots of the one caller over the hot set


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest_bulk",
            dominant="ingest",
            why="big epochs in 2000-record batches: the edge tree walk "
            "dominates, so a faster walk or node store shows here and a "
            "close-only change does not",
            durable=False, rounds=1, flows=7000, batch=2000, standing=0,
            cold_queries=10, hit_repeats=10, serve_requests=300,
        ),
        Workload(
            name="rollup_durable",
            dominant="close",
            why="many small epochs in 50-record batches on the segment "
            "log with 4 standing queries: copy/merge/transfer/seal/"
            "refresh dominate, small batches expose per-call ingest cost",
            durable=True, rounds=2, flows=500, batch=50, standing=4,
            cold_queries=6, hit_repeats=10, serve_requests=300,
        ),
        Workload(
            name="adhoc_growing",
            dominant="assembly",
            why="never-seen windows over a store that grows each round: "
            "window assembly dominates and reads compete with the "
            "writes that invalidate open windows",
            durable=False, rounds=3, flows=400, batch=400, standing=0,
            cold_queries=8, hit_repeats=20, serve_requests=400,
        ),
        Workload(
            name="serve_hot",
            dominant="serve",
            why="every HTTP answer is a cache hit: http11, admission, "
            "routing, node hop, queue, wire and client decode do the "
            "work, so a tree or fold change must show no change",
            durable=False, rounds=2, flows=500, batch=500, standing=0,
            cold_queries=8, hit_repeats=10, serve_requests=600,
        ),
    )
}


def scaled(workload: Workload, scale: float) -> Workload:
    """The same mix at ``scale`` of its size (``--smoke`` uses 1/20)."""
    if scale == 1.0:
        return workload
    return replace(
        workload,
        rounds=max(1, round(workload.rounds * scale)),
        flows=max(100, round(workload.flows * scale)),
        hit_repeats=max(2, round(workload.hit_repeats * scale)),
        serve_requests=max(40, round(workload.serve_requests * scale)),
    )


def build_runtime(
    workload: Workload, data_dir: Optional[str]
) -> HierarchyRuntime:
    """The one runtime every workload measures."""
    return network_4level_runtime(
        networks=1,
        regions_per_network=2,
        routers_per_region=2,
        router_node_budget=NODE_BUDGET,
        region_node_budget=NODE_BUDGET,
        network_node_budget=NODE_BUDGET,
        epoch_seconds=EPOCH_SECONDS,
        retain_partitions=True,
        storage=SegmentLogEngine(data_dir) if workload.durable else None,
    )


def build_trace(
    sites: Sequence[str], workload: Workload, seed: int
) -> Tuple[List[List[Tuple[str, List[list]]]], Dict[str, int]]:
    """The pre-chunked records of every round, and their total mass.

    ``trace[round]`` is ``[(site, [batch, ...]), ...]``; the program
    only ever receives these generated records.
    """
    generator = TrafficGenerator(
        TrafficConfig(
            sites=tuple(sites),
            flows_per_epoch=workload.flows,
            epoch_seconds=EPOCH_SECONDS,
        ),
        seed=seed,
    )
    mass = {"packets": 0, "bytes": 0, "flows": 0}
    trace = []
    for epoch in range(workload.rounds):
        per_site = []
        for site in sites:
            records = generator.epoch(site, epoch)
            mass["flows"] += len(records)
            for record in records:
                mass["packets"] += record.packets
                mass["bytes"] += record.bytes
            per_site.append((
                site,
                [
                    records[start:start + workload.batch]
                    for start in range(0, len(records), workload.batch)
                ],
            ))
        trace.append(per_site)
    return trace, mass


def _last(closed: int, epochs: int) -> str:
    """The window of the last ``epochs`` of ``closed`` closed epochs."""
    return (
        f"TIME({(closed - epochs) * EPOCH_SECONDS:g}, "
        f"{closed * EPOCH_SECONDS:g})"
    )


def cold_script(sites: Sequence[str], closed: int, count: int) -> List[str]:
    """``count`` queries whose windows end at the boundary just closed.

    None has been asked before, so each is a cache miss.  The mix is
    fixed so that percentiles sit inside a class, not between two: an
    ``HHH`` and (once two epochs exist) a ``VS`` diff, then TOPKs of
    which every fourth reads the longest window history allows (up to
    3 epochs) and the rest the last epoch, cycling cloud-routed,
    ``AT <router 1>``, ``AT <router 2>``.  TOPK's ``k`` only makes the
    text, and with it the cache key, distinct.
    """
    longest = min(closed, 3)
    script = [f"SELECT HHH(0.02) FROM {_last(closed, min(closed, 2))}"]
    if closed >= 2:
        script.append(
            f"SELECT TOTAL FROM {_last(closed, 1)} VS {_last(closed - 1, 1)}"
        )
    for index in range(count - len(script)):
        window = _last(closed, longest if index % 4 == 0 else 1)
        site = ("", f" AT {sites[0]}", f" AT {sites[1]}")[index % 3]
        script.append(
            f"SELECT TOPK({5 + index}) FROM {window}{site} BY bytes"
        )
    return script


def dashboard(sites: Sequence[str]) -> List[str]:
    """Four queries over the first epoch, repeated every round.

    The window is closed, so a repeat is a cache hit until the cache's
    300 s simulated TTL (5 epochs) expires the entry.
    """
    window = _last(1, 1)
    return [
        f"SELECT TOPK(5) FROM {window} BY packets",
        f"SELECT TOTAL FROM {window}",
        f"SELECT TOPK(3) FROM {window} AT {sites[3]} BY bytes",
        f"SELECT HHH(0.05) FROM {window} BY bytes",
    ]


def hot_set(sites: Sequence[str]) -> List[str]:
    """The served queries: 4 root-routed, 4 node-routed, mixed operators.

    All read the first epoch, a closed window, so once fetched they stay
    cache hits for as long as the plane serves.
    """
    window = _last(1, 1)
    return [
        f"SELECT TOPK(4) FROM {window} BY bytes",
        f"SELECT GROUPBY(dst_port, 16) FROM {window} BY bytes LIMIT 5",
        f"SELECT HHH(0.1) FROM {window} BY packets",
        f"SELECT TOPK(8) FROM {window} BY flows",
        f"SELECT TOPK(3) FROM {window} AT {sites[0]} BY bytes",
        f"SELECT TOTAL FROM {window} AT {sites[1]}",
        f"SELECT GROUPBY(dst_port, 16) FROM {window} AT {sites[2]} "
        "BY bytes LIMIT 5",
        f"SELECT TOPK(5) FROM {window} AT {sites[3]} BY packets",
    ]


def standing_queries(sites: Sequence[str], count: int) -> List[str]:
    """Half cloud-routed, half ``AT <router>`` standing queries."""
    return [
        "SELECT TOPK(5) FROM ALL BY bytes",
        f"SELECT TOPK(5) FROM ALL AT {sites[0]} BY bytes",
        "SELECT TOTAL FROM ALL",
        f"SELECT TOTAL FROM ALL AT {sites[3]}",
    ][:count]
