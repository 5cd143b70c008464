"""Ingest scaling: the worker pool against the one serial walk.

The only measurement of ``--workers`` in the repo.  Two groups of rows:

* ``serial`` — ``Flowtree.ingest`` (one ``add_many`` walk) over a
  heavy-hitter *re-export* trace (a fixed population of flows exported
  over and over, so the tree reaches steady state and per-record cost
  is updates, not node births);
* ``workers=N`` — the sharded pool at N workers, N sites, every site
  ingesting the full trace (weak scaling — in the paper's model each
  site exports its own stream and workers scale with sites).
  ``speedup_vs_scalar`` is in CPU terms: per-worker records per
  busy-CPU-second, summed, over the serial rate — what N cores
  sustain on N streams, the same on a time-sliced CI host as on a
  multi-core one (wall-clock rate rides along as ``info``).  A worker's
  busy time covers rebuilding keys and scores from the pickled record
  tuples as well as the walk itself.

Every pool shard is compared with the serial tree (``diverged`` rows,
gated at 0); the tier-1 owner of that identity is
``tests/test_parallel_ingest.py``.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence, Tuple

from benchmarks.conftest import rows
from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.records import FlowRecord
from repro.flows.tree import Flowtree
from repro.parallel import (
    ParallelIngestConfig,
    ShardedIngestPool,
    SiteShardSpec,
)
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

SIZES = (
    {"records": 20_000, "unique_flows": 2_000, "worker_counts": (1, 2),
     "rounds": 2},
    {"records": 100_000, "unique_flows": 10_000,
     "worker_counts": (1, 2, 4), "rounds": 5},
)
TRACE_SEED = 2019
TRACE_SITE = "bench/router1"
RESAMPLE_SEED = 7
POOL_NODE_BUDGET = 65_536


def make_trace(records: int) -> List[FlowRecord]:
    """One epoch of Zipf-popular flow exports from a single router."""
    generator = TrafficGenerator(
        TrafficConfig(sites=(TRACE_SITE,), flows_per_epoch=records),
        seed=TRACE_SEED,
    )
    return generator.epoch(TRACE_SITE, 0)


def make_reexport_trace(records: int, unique_flows: int) -> List[FlowRecord]:
    """``unique_flows`` distinct flows resampled with replacement to
    ``records`` exports; built once and shared by every arm."""
    epoch = make_trace(unique_flows)
    rng = random.Random(RESAMPLE_SEED)
    return [epoch[rng.randrange(len(epoch))] for _ in range(records)]


def _state(tree: Flowtree):
    return tree.to_dict(), tree.compressions


def _best_serial(
    records: List[FlowRecord], policy: GeneralizationPolicy, rounds: int
) -> Tuple[Flowtree, float]:
    """Best-of-``rounds`` serial ingest: the last tree and the best time."""
    best = float("inf")
    for _ in range(rounds):
        tree = Flowtree(policy, node_budget=POOL_NODE_BUDGET)
        started = time.perf_counter()
        tree.ingest(records)
        best = min(best, time.perf_counter() - started)
    return tree, best


def _run_pool_arm(
    records: List[FlowRecord],
    policy: GeneralizationPolicy,
    workers: int,
    rounds: int,
) -> Tuple[dict, float, float]:
    """One worker-count arm; returns ``(first_round_summaries,
    best_capacity, best_wall)``, capacity being the sum of per-worker
    ``records / busy_cpu_seconds``."""
    sites = [f"{TRACE_SITE}/shard{i}" for i in range(workers)]
    specs = {
        site: SiteShardSpec(node_budget=POOL_NODE_BUDGET) for site in sites
    }
    config = ParallelIngestConfig(workers=workers)
    first_summaries: Optional[dict] = None
    best_capacity = 0.0
    best_wall = float("inf")
    for _ in range(rounds):
        with ShardedIngestPool(policy, specs, config) as pool:
            started = time.perf_counter()
            for site in sites:
                pool.submit(site, records)
            summaries = pool.flush()
            wall = time.perf_counter() - started
            stats = pool.worker_stats()
        capacity = sum(
            ws.records_done / ws.busy_seconds
            for ws in stats
            if ws.busy_seconds > 0
        )
        best_capacity = max(best_capacity, capacity)
        best_wall = min(best_wall, wall)
        if first_summaries is None:
            first_summaries = summaries
    return first_summaries, best_capacity, best_wall


def pool_rows(
    records_count: int,
    unique_flows: int,
    worker_counts: Sequence[int],
    rounds: int,
) -> list:
    """Cores-vs-throughput curve for the sharded ingest pool."""
    policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
    records = make_reexport_trace(records_count, unique_flows)
    scalar_tree, scalar_seconds = _best_serial(records, policy, rounds)
    scalar_state = (*_state(scalar_tree), len(records))
    scalar_rate = len(records) / scalar_seconds
    produced = rows("serial", len(records), (
        ("compressions", "count", scalar_tree.compressions),
        ("scalar_records_per_s", "rec/s", round(scalar_rate, 1)),
    ))
    for workers in worker_counts:
        summaries, capacity, wall = _run_pool_arm(
            records, policy, workers, rounds
        )
        diverged = sum(
            (shard["tree"], shard["compressions"], shard["items"])
            != scalar_state
            for shard in summaries.values()
        ) + (workers - len(summaries))
        total = workers * len(records)
        produced += rows(f"workers={workers}", total, (
            ("diverged", "trees", diverged),
            ("speedup_vs_scalar", "x", round(capacity / scalar_rate, 2)),
            ("aggregate_records_per_s", "rec/s", round(capacity, 1)),
            ("wall_records_per_s", "rec/s", round(total / wall, 1)),
        ))
    return produced


def measure(
    records: int,
    unique_flows: int,
    worker_counts: Sequence[int],
    rounds: int,
) -> list:
    size = f"{records // 1000}k"
    return [
        (f"{size}/{case}", *rest)
        for case, *rest in pool_rows(
            records, unique_flows, worker_counts, rounds
        )
    ]
