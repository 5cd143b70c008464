"""Ingest scaling: the columnar small-batch crossover and the worker pool.

The only measurement of ``--workers`` in the repo, and of the constant
that routes small batches away from the columnar planner.  Needs numpy
(``measure`` returns ``None`` without it: there is no planner path and
the pool ships raw records).  Three groups of rows:

* ``serial`` — scalar ``Flowtree.ingest`` vs ``ingest_columnar`` over a
  heavy-hitter *re-export* trace (a fixed population of flows exported
  over and over, so the tree reaches steady state and per-record cost
  is updates, not node births);
* ``workers=N`` — the sharded pool at N workers, N sites, every site
  ingesting the full trace (weak scaling — in the paper's model each
  site exports its own stream and workers scale with sites).
  ``speedup_vs_scalar`` is in CPU terms: per-worker records per
  busy-CPU-second, summed, over the serial scalar rate — what N cores
  sustain on N streams, the same on a time-sliced CI host as on a
  multi-core one (wall-clock rate rides along as ``info``);
* ``batch=N`` — the *planner* path forced at batch sizes straddling
  ``SCALAR_FALLBACK_RECORDS`` against the scalar walk the router would
  pick: at or below the threshold the fallback must not lose, so a
  planner-overhead change that moves the crossover shows up here
  instead of silently mis-routing small batches.

Every arm's tree is compared with the serial scalar tree
(``diverged`` rows, gated at 0); the tier-1 owners of that identity are
``tests/test_parallel_ingest.py`` and ``tests/test_columnar.py``.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence, Tuple

from benchmarks.conftest import rows
from repro.flows import columnar
from repro.flows.columnar import (
    HAVE_NUMPY,
    SCALAR_FALLBACK_RECORDS,
    ColumnarBatch,
    ingest_batch,
)
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
     "rounds": 2, "batch_sizes": (64, 256, 1024), "batch_trace": 8_000},
    {"records": 100_000, "unique_flows": 10_000,
     "worker_counts": (1, 2, 4), "rounds": 5,
     "batch_sizes": (64, 128, 256, 1024, 4096), "batch_trace": 40_000},
)
TRACE_SEED = 2019
TRACE_SITE = "bench/router1"
RESAMPLE_SEED = 7
BATCH_NODE_BUDGET = 4096
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


def _ingest_batch_planner(tree: Flowtree, batch: ColumnarBatch) -> int:
    """``ingest_batch`` with the small-batch fallback disabled."""
    saved = columnar.SCALAR_FALLBACK_RECORDS
    columnar.SCALAR_FALLBACK_RECORDS = 0
    try:
        return ingest_batch(tree, batch)
    finally:
        columnar.SCALAR_FALLBACK_RECORDS = saved


def small_batch_rows(sizes: Sequence[int], trace_records: int) -> list:
    """Planner vs scalar walk per batch size: ``(case, metric, unit, n,
    value)`` rows, ``n`` the records each arm ingested."""
    policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
    records = make_trace(trace_records)
    produced = []
    for size in sizes:
        count = max(4, min(50, len(records) // size))
        batches = [
            ColumnarBatch.encode(
                records[i * size : (i + 1) * size], FIVE_TUPLE
            )
            for i in range(count)
        ]
        planner_tree = Flowtree(policy, node_budget=BATCH_NODE_BUDGET)
        started = time.perf_counter()
        for batch in batches:
            _ingest_batch_planner(planner_tree, batch)
        planner_seconds = time.perf_counter() - started
        scalar_tree = Flowtree(policy, node_budget=BATCH_NODE_BUDGET)
        started = time.perf_counter()
        for batch in batches:
            scalar_tree.add_many(
                (record.key, record.score())
                for record in batch.decode(FIVE_TUPLE)
            )
        scalar_seconds = time.perf_counter() - started
        metric = (
            "fallback_planner_over_scalar"
            if size <= SCALAR_FALLBACK_RECORDS
            else "planner_over_scalar"
        )
        produced += rows(f"batch={size}", count * size, (
            ("diverged", "trees",
             int(_state(planner_tree) != _state(scalar_tree))),
            (metric, "x", round(planner_seconds / scalar_seconds, 2)),
            ("planner_ms_per_batch", "ms",
             round(planner_seconds / count * 1000, 3)),
            ("scalar_ms_per_batch", "ms",
             round(scalar_seconds / count * 1000, 3)),
        ))
    return produced


def _best_serial_arms(
    records: List[FlowRecord], policy: GeneralizationPolicy, rounds: int
) -> Tuple[Flowtree, float, float, int]:
    """Best-of-``rounds`` scalar and columnar ingest, arms alternating
    within each round so neither systematically sees a warmer cache;
    also counts columnar trees that differ from the scalar one."""
    batch = ColumnarBatch.encode(records, policy.schema)
    scalar_tree: Optional[Flowtree] = None
    scalar_best = columnar_best = float("inf")
    diverged = 0
    for _ in range(rounds):
        scalar_tree = Flowtree(policy, node_budget=POOL_NODE_BUDGET)
        started = time.perf_counter()
        scalar_tree.ingest(records)
        scalar_best = min(scalar_best, time.perf_counter() - started)

        tree = Flowtree(policy, node_budget=POOL_NODE_BUDGET)
        started = time.perf_counter()
        tree.ingest_columnar(batch)
        columnar_best = min(columnar_best, time.perf_counter() - started)
        diverged += _state(tree) != _state(scalar_tree)
    return scalar_tree, scalar_best, columnar_best, diverged


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
    scalar_tree, scalar_seconds, columnar_seconds, diverged = (
        _best_serial_arms(records, policy, rounds)
    )
    scalar_state = (*_state(scalar_tree), len(records))
    scalar_rate = len(records) / scalar_seconds
    columnar_rate = len(records) / columnar_seconds
    produced = rows("serial", len(records), (
        ("diverged", "trees", diverged),
        ("compressions", "count", scalar_tree.compressions),
        ("columnar_speedup", "x", round(columnar_rate / scalar_rate, 2)),
        ("scalar_records_per_s", "rec/s", round(scalar_rate, 1)),
        ("columnar_records_per_s", "rec/s", round(columnar_rate, 1)),
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
    batch_sizes: Sequence[int],
    batch_trace: int,
) -> Optional[list]:
    if not HAVE_NUMPY:
        return None
    size = f"{records // 1000}k"
    return [
        (f"{size}/{case}", *rest)
        for case, *rest in (
            pool_rows(records, unique_flows, worker_counts, rounds)
            + small_batch_rows(batch_sizes, batch_trace)
        )
    ]
