"""Flowtree hot-path throughput: optimized ingest vs. the pre-overhaul
implementation.

Every subsystem's throughput rides on ``Flowtree.add`` — datastore
aggregators, Flowstream, the tiered hierarchy, and all paper benchmarks
funnel records through it — so this module is the repo's perf anchor.
It embeds :class:`BaselineFlowtree`, a faithful copy of the
pre-overhaul hot path (per-level ``tuple``/``zip`` projection done twice
per level, frozen :class:`Score` allocation per update, per-record
budget checks, full heap rebuild per compression pass), ingests the
same Zipf flow trace through both implementations, and asserts:

* the optimized path is at least ``MIN_SPEEDUP``× faster (records/s);
* the answers are identical — ``tree.total()`` equals the summed record
  scores exactly, and ``top_k``/``hhh``/``query`` agree between the two
  trees on the stable (heavy) part of the distribution.

Run as a script to execute the full 100k-record trace and (re)write the
committed baseline ``BENCH_flowtree.json`` at the repo root:

```bash
PYTHONPATH=src python benchmarks/bench_flowtree_hotpath.py
```

``benchmarks/check_regression.py`` compares a fresh run against that
file.  The pytest entry point uses a smaller trace so
``pytest benchmarks/`` stays quick.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.flows.columnar import (
    HAVE_NUMPY,
    SCALAR_FALLBACK_RECORDS,
    ColumnarBatch,
    ingest_batch,
)
from repro.flows.flowkey import FIVE_TUPLE, FlowKey, GeneralizationPolicy
from repro.flows.records import FlowRecord, Score
from repro.flows.tree import Flowtree
from repro.parallel import (
    ParallelIngestConfig,
    ShardedIngestPool,
    SiteShardSpec,
)
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

try:  # script mode runs without pytest on the path
    from benchmarks.conftest import report
except ImportError:  # pragma: no cover
    def report(title, rows, columns=None):
        print(f"\n=== {title} ===")
        if columns:
            print("  " + " | ".join(str(c) for c in columns))
        for row in rows:
            print("  " + " | ".join(str(c) for c in row))

#: The committed throughput baseline (repo root).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_flowtree.json"

TRACE_RECORDS = 100_000
TRACE_SEED = 2019
TRACE_SITE = "bench/router1"
NODE_BUDGET = 4096
MIN_SPEEDUP = 3.0

# -- parallel sharded ingest arm ---------------------------------------
# The parallel arm uses a *re-export* trace: a fixed population of
# heavy-hitter flows exported over and over (routers re-export active
# flows every interval), so the tree reaches steady state and the
# per-record cost is dominated by updates rather than node births.
PARALLEL_TRACE_RECORDS = 100_000
PARALLEL_UNIQUE_FLOWS = 10_000
PARALLEL_RESAMPLE_SEED = 7
PARALLEL_NODE_BUDGET = 65_536
PARALLEL_WORKER_COUNTS = (1, 2, 4)
PARALLEL_ROUNDS = 5
MIN_PARALLEL_SPEEDUP = 4.0
#: depth of the default chain at which both src and dst are /16 — deep
#: enough to rank real prefixes, shallow enough that the heavy nodes are
#: orders of magnitude above any compression victim (answer-stable).
ANSWER_DEPTH = 4
TOP_K = 10


class BaselineFlowtree:
    """The pre-overhaul Flowtree ingest/compress path, verbatim.

    Kept here (not in :mod:`repro`) so the production tree carries no
    dead code; the differential tests in
    ``tests/test_flowtree_fastpath_reference.py`` pin semantics, this
    class pins the *cost* being compared against.
    """

    class Node:
        __slots__ = ("depth", "values", "own", "folded", "subtree", "children")

        def __init__(self, depth: int, values: Tuple[int, ...]) -> None:
            self.depth = depth
            self.values = values
            self.own = Score.zero()
            self.folded = Score.zero()
            self.subtree = Score.zero()
            self.children: Dict[Tuple[int, ...], "BaselineFlowtree.Node"] = {}

        def is_leaf(self) -> bool:
            return not self.children

    def __init__(
        self,
        policy: GeneralizationPolicy,
        node_budget: Optional[int] = 4096,
        compress_ratio: float = 0.8,
        metric: str = "bytes",
    ) -> None:
        self.policy = policy
        self.schema = policy.schema
        self.node_budget = node_budget
        self.compress_ratio = compress_ratio
        self.metric = metric
        root = self.Node(0, self._project((0,) * len(self.schema), 0))
        self._nodes: Dict[Tuple[int, Tuple[int, ...]], BaselineFlowtree.Node]
        self._nodes = {(0, root.values): root}
        self._root = root
        self.compressions = 0

    # the pre-overhaul GeneralizationPolicy.project: per-call zip and
    # bound-method mask dispatch, no precompiled mask tables
    def _project(self, values: Sequence[int], depth: int) -> Tuple[int, ...]:
        levels = self.policy.levels_at(depth)
        return tuple(
            feature.mask(value, level)
            for feature, value, level in zip(
                self.schema.features, values, levels
            )
        )

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def total(self) -> Score:
        return self._root.subtree

    def add(self, key: FlowKey, score: Score) -> None:
        depth = self.policy.depth_of(key.levels)
        node = self._node_at(key.values, depth)
        node.own = node.own + score
        self._add_up(node.values, depth, score)
        if self.node_budget is not None and self.node_count > self.node_budget:
            self.compress(int(self.node_budget * self.compress_ratio))
            self.compressions += 1

    def ingest(self, records: Iterable[FlowRecord]) -> int:
        count = 0
        for record in records:
            self.add(record.key, record.score())
            count += 1
        return count

    def _node_at(self, values: Sequence[int], depth: int) -> "Node":
        parent = self._root
        for d in range(1, depth + 1):
            projected = self._project(values, d)
            node = self._nodes.get((d, projected))
            if node is None:
                node = self.Node(d, projected)
                self._nodes[(d, projected)] = node
                parent.children[projected] = node
            parent = node
        return parent

    def _add_up(self, values: Sequence[int], depth: int, score: Score) -> None:
        for d in range(depth + 1):
            projected = self._project(values, d)
            self._nodes[(d, projected)].subtree = (
                self._nodes[(d, projected)].subtree + score
            )

    def compress(self, target_nodes: int) -> int:
        metric_name = self.metric
        if self.node_count <= target_nodes:
            return 0
        counter = itertools.count()
        heap: List[Tuple[int, int, Tuple[int, Tuple[int, ...]]]] = []
        for node in self._nodes.values():
            if node.depth > 0 and node.is_leaf():
                heapq.heappush(
                    heap,
                    (
                        node.subtree.metric(metric_name),
                        next(counter),
                        (node.depth, node.values),
                    ),
                )
        removed = 0
        while self.node_count > target_nodes and heap:
            _, _, node_id = heapq.heappop(heap)
            node = self._nodes.get(node_id)
            if node is None or not node.is_leaf() or node.depth == 0:
                continue
            projected = self._project(node.values, node.depth - 1)
            parent = self._nodes[(node.depth - 1, projected)]
            parent.folded = parent.folded + node.own + node.folded
            del parent.children[node.values]
            del self._nodes[node_id]
            removed += 1
            if parent.depth > 0 and parent.is_leaf():
                heapq.heappush(
                    heap,
                    (
                        parent.subtree.metric(metric_name),
                        next(counter),
                        (parent.depth, parent.values),
                    ),
                )
        return removed

    def merge(self, other: "BaselineFlowtree") -> None:
        for node in sorted(other._nodes.values(), key=lambda n: n.depth):
            if node.depth == 0:
                self._root.own = self._root.own + node.own
                self._root.folded = self._root.folded + node.folded
                self._root.subtree = self._root.subtree + node.subtree
                continue
            mine = self._node_at(node.values, node.depth)
            mine.own = mine.own + node.own
            mine.folded = mine.folded + node.folded
            contribution = node.own + node.folded
            if not contribution.is_zero():
                for d in range(1, node.depth + 1):
                    projected = self._project(node.values, d)
                    target = self._nodes[(d, projected)]
                    target.subtree = target.subtree + contribution
        if self.node_budget is not None and self.node_count > self.node_budget:
            self.compress(int(self.node_budget * self.compress_ratio))
            self.compressions += 1

    def top_k(self, k: int, depth: int) -> List[Tuple[Tuple[int, ...], int]]:
        metric_name = self.metric
        candidates = [n for n in self._nodes.values() if n.depth == depth]
        candidates.sort(
            key=lambda n: (-n.subtree.metric(metric_name), n.values)
        )
        return [
            (n.values, n.subtree.metric(metric_name)) for n in candidates[:k]
        ]


# ----------------------------------------------------------------------
# trace + measurement

def make_trace(records: int, seed: int = TRACE_SEED) -> List[FlowRecord]:
    """One epoch of Zipf-popular flow exports from a single router."""
    generator = TrafficGenerator(
        TrafficConfig(sites=(TRACE_SITE,), flows_per_epoch=records),
        seed=seed,
    )
    return generator.epoch(TRACE_SITE, 0)


def run_fast(
    records: List[FlowRecord], policy: GeneralizationPolicy
) -> Tuple[Flowtree, float]:
    tree = Flowtree(policy, node_budget=NODE_BUDGET)
    started = time.perf_counter()
    tree.ingest(records)
    return tree, time.perf_counter() - started


def run_baseline(
    records: List[FlowRecord], policy: GeneralizationPolicy
) -> Tuple[BaselineFlowtree, float]:
    tree = BaselineFlowtree(policy, node_budget=NODE_BUDGET)
    started = time.perf_counter()
    tree.ingest(records)
    return tree, time.perf_counter() - started


def check_answers(
    fast: Flowtree,
    baseline: BaselineFlowtree,
    records: List[FlowRecord],
) -> List[Tuple[Tuple[int, ...], int]]:
    """Assert both trees answer identically; returns the shared top-k."""
    expected = Score.zero()
    for record in records:
        expected = expected + record.score()
    assert fast.total() == expected, "fast tree lost mass"
    assert baseline.total() == expected, "baseline tree lost mass"

    fast_top = [
        (key.values, score.metric(fast.metric))
        for key, score in fast.top_k(TOP_K, depth=ANSWER_DEPTH)
    ]
    base_top = baseline.top_k(TOP_K, depth=ANSWER_DEPTH)
    assert fast_top == base_top, "top_k answers diverged"

    threshold = max(1, expected.metric(fast.metric) // 100)  # 1% of mass
    fast_hhh = [
        (r.key.values, r.key.levels, r.residual.metric(fast.metric))
        for r in fast.hhh(threshold)
    ]
    base_like = Flowtree(fast.policy, node_budget=None)
    for node in baseline._nodes.values():
        contribution = node.own + node.folded
        if not contribution.is_zero():
            key = FlowKey(
                baseline.schema,
                node.values,
                baseline.policy.levels_at(node.depth),
            )
            base_like.add(key, contribution)
    base_hhh = [
        (r.key.values, r.key.levels, r.residual.metric(fast.metric))
        for r in base_like.hhh(threshold)
    ]
    assert fast_hhh == base_hhh, "hhh answers diverged"

    for values, metric_value in fast_top:
        key = FlowKey(
            fast.schema, values, fast.policy.levels_at(ANSWER_DEPTH)
        )
        fast_answer = fast.query(key).metric(fast.metric)
        base_node = baseline._nodes[(ANSWER_DEPTH, values)]
        assert fast_answer == base_node.subtree.metric(fast.metric) == (
            metric_value
        ), f"query answer diverged for {values}"
    return fast_top


def run_hotpath(records_count: int = TRACE_RECORDS) -> dict:
    """Run both implementations over one trace; return the measurements."""
    policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
    records = make_trace(records_count)
    baseline_tree, baseline_seconds = run_baseline(records, policy)
    fast_tree, fast_seconds = run_fast(records, policy)
    check_answers(fast_tree, baseline_tree, records)

    # merge cost rides along: two half-trace trees folded together
    half = len(records) // 2
    fast_a = Flowtree(policy, node_budget=NODE_BUDGET)
    fast_a.ingest(records[:half])
    fast_b = Flowtree(policy, node_budget=NODE_BUDGET)
    fast_b.ingest(records[half:])
    started = time.perf_counter()
    fast_a.merge(fast_b)
    fast_merge_seconds = time.perf_counter() - started

    base_a = BaselineFlowtree(policy, node_budget=NODE_BUDGET)
    base_a.ingest(records[:half])
    base_b = BaselineFlowtree(policy, node_budget=NODE_BUDGET)
    base_b.ingest(records[half:])
    started = time.perf_counter()
    base_a.merge(base_b)
    base_merge_seconds = time.perf_counter() - started

    count = len(records)
    return {
        "benchmark": "flowtree_hotpath",
        "trace": {
            "records": count,
            "seed": TRACE_SEED,
            "site": TRACE_SITE,
            "schema": "five_tuple",
            "node_budget": NODE_BUDGET,
        },
        "baseline_records_per_s": round(count / baseline_seconds, 1),
        "fast_records_per_s": round(count / fast_seconds, 1),
        "ingest_speedup": round(baseline_seconds / fast_seconds, 2),
        "baseline_merge_ms": round(base_merge_seconds * 1000, 2),
        "fast_merge_ms": round(fast_merge_seconds * 1000, 2),
        "merge_speedup": round(base_merge_seconds / fast_merge_seconds, 2),
        "fast_compressions": fast_tree.compressions,
        "baseline_compressions": baseline_tree.compressions,
        "generated_by": "benchmarks/bench_flowtree_hotpath.py",
    }


def run_small_batch_crossover(
    sizes: Sequence[int] = (64, 128, 256, 1024, 4096),
    trace_records: int = 40_000,
) -> dict:
    """Pin the columnar window planner's small-batch crossover.

    ``ingest_batch`` routes batches at or below
    ``SCALAR_FALLBACK_RECORDS`` down the scalar ``add_many`` walk
    because the planner's fixed per-chunk cost dominates there.  This
    arm measures the *planner* path against the scalar fallback at
    sizes straddling the threshold and asserts the routing is sane:
    below the threshold the fallback must not lose, so a planner
    overhead fix (or regression) that moves the crossover shows up
    here instead of silently mis-routing small batches.
    """
    policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
    records = make_trace(trace_records)
    curve: Dict[str, dict] = {}
    for size in sizes:
        count = max(4, min(50, len(records) // size))
        batches = [
            ColumnarBatch.encode(
                records[i * size : (i + 1) * size], FIVE_TUPLE
            )
            for i in range(count)
        ]
        # the planner path, forced (threshold bypassed via chunks of
        # exactly `size` fed to a fresh tree through ingest_batch with
        # the fallback disabled by measuring add_many separately)
        planner_tree = Flowtree(policy, node_budget=NODE_BUDGET)
        started = time.perf_counter()
        for batch in batches:
            _ingest_batch_planner(planner_tree, batch)
        planner_seconds = time.perf_counter() - started
        scalar_tree = Flowtree(policy, node_budget=NODE_BUDGET)
        started = time.perf_counter()
        for batch in batches:
            scalar_tree.add_many(
                (
                    (record.key, record.score())
                    for record in batch.decode(FIVE_TUPLE)
                )
            )
        scalar_seconds = time.perf_counter() - started
        assert planner_tree.total() == scalar_tree.total(), (
            f"planner/scalar divergence at batch size {size}"
        )
        curve[str(size)] = {
            "planner_ms_per_batch": round(
                planner_seconds / count * 1000, 3
            ),
            "scalar_ms_per_batch": round(
                scalar_seconds / count * 1000, 3
            ),
            "planner_over_scalar": round(
                planner_seconds / scalar_seconds, 2
            ),
        }
    return {
        "threshold_records": SCALAR_FALLBACK_RECORDS,
        "curve": curve,
    }


def _ingest_batch_planner(tree: Flowtree, batch: ColumnarBatch) -> int:
    """``ingest_batch`` with the small-batch fallback disabled."""
    from repro.flows import columnar

    saved = columnar.SCALAR_FALLBACK_RECORDS
    columnar.SCALAR_FALLBACK_RECORDS = 0
    try:
        return ingest_batch(tree, batch)
    finally:
        columnar.SCALAR_FALLBACK_RECORDS = saved


def print_small_batch_results(results: dict) -> None:
    rows = [
        (
            size,
            f"{data['planner_ms_per_batch']:.2f} ms",
            f"{data['scalar_ms_per_batch']:.2f} ms",
            f"{data['planner_over_scalar']:.2f}x",
        )
        for size, data in results["curve"].items()
    ]
    report(
        f"Columnar window planner vs scalar walk "
        f"(fallback at <= {results['threshold_records']})",
        rows,
        columns=("batch", "planner", "scalar", "planner/scalar"),
    )


def print_results(results: dict) -> None:
    report(
        "Flowtree hot path: optimized vs pre-overhaul",
        [
            (
                "ingest",
                f"{results['baseline_records_per_s']:.0f} rec/s",
                f"{results['fast_records_per_s']:.0f} rec/s",
                f"{results['ingest_speedup']:.2f}x",
            ),
            (
                "merge",
                f"{results['baseline_merge_ms']:.1f} ms",
                f"{results['fast_merge_ms']:.1f} ms",
                f"{results['merge_speedup']:.2f}x",
            ),
        ],
        columns=("op", "baseline", "optimized", "speedup"),
    )


# ----------------------------------------------------------------------
# parallel sharded ingest: cores-vs-throughput curve

def make_reexport_trace(
    records: int = PARALLEL_TRACE_RECORDS,
    unique_flows: int = PARALLEL_UNIQUE_FLOWS,
    seed: int = TRACE_SEED,
) -> List[FlowRecord]:
    """Heavy-hitter re-export mix: ``unique_flows`` distinct flows
    resampled with replacement to ``records`` exports.

    Built ONCE per run and shared by every arm (serial scalar, serial
    columnar, and each worker count) so all arms measure the same work.
    """
    epoch = make_trace(unique_flows, seed=seed)
    rng = random.Random(PARALLEL_RESAMPLE_SEED)
    count = len(epoch)
    return [epoch[rng.randrange(count)] for _ in range(records)]


def _best_serial_arms(
    records: List[FlowRecord],
    policy: GeneralizationPolicy,
    rounds: int,
) -> Tuple[Flowtree, float, float]:
    """Best-of-``rounds`` scalar and columnar ingest, arms alternating
    within each round so neither systematically sees a warmer cache."""
    batch = ColumnarBatch.encode(records, policy.schema)
    scalar_tree: Optional[Flowtree] = None
    scalar_best = columnar_best = float("inf")
    for _ in range(rounds):
        tree = Flowtree(policy, node_budget=PARALLEL_NODE_BUDGET)
        started = time.perf_counter()
        tree.ingest(records)
        scalar_best = min(scalar_best, time.perf_counter() - started)
        scalar_tree = tree

        tree = Flowtree(policy, node_budget=PARALLEL_NODE_BUDGET)
        started = time.perf_counter()
        tree.ingest_columnar(batch)
        columnar_best = min(columnar_best, time.perf_counter() - started)
        assert (tree.to_dict(), tree.compressions) == (
            scalar_tree.to_dict(),
            scalar_tree.compressions,
        ), "columnar ingest diverged from scalar"
    assert scalar_tree is not None
    return scalar_tree, scalar_best, columnar_best


def _run_parallel_arm(
    records: List[FlowRecord],
    policy: GeneralizationPolicy,
    workers: int,
    rounds: int,
) -> Tuple[dict, float, float]:
    """One worker-count arm: ``workers`` sites, one worker per site,
    every site ingesting the full trace (weak scaling — in the paper's
    model each site exports its own stream, and workers scale with
    sites, so aggregate throughput is what N cores sustain on N
    streams).

    Returns ``(first_round_summaries, best_capacity, best_wall)`` where
    capacity is the sum of per-worker ``records / busy_cpu_seconds`` —
    the aggregate rate the workers sustain while actually ingesting.
    On a host with >= ``workers`` cores wall-clock converges to the
    same number; on fewer cores the workers time-slice one CPU and
    wall-clock reflects that, so both are reported.
    """
    sites = [f"{TRACE_SITE}/shard{i}" for i in range(workers)]
    specs = {
        site: SiteShardSpec(node_budget=PARALLEL_NODE_BUDGET)
        for site in sites
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
    assert first_summaries is not None
    return first_summaries, best_capacity, best_wall


def run_parallel_scaling(
    records_count: int = PARALLEL_TRACE_RECORDS,
    unique_flows: int = PARALLEL_UNIQUE_FLOWS,
    worker_counts: Sequence[int] = PARALLEL_WORKER_COUNTS,
    rounds: int = PARALLEL_ROUNDS,
) -> dict:
    """Cores-vs-throughput curve for the sharded ingest pool.

    Guarantees checked every run, not just reported:

    * every site's worker-built tree is *bit-identical* to the serial
      scalar tree over the same records (same nodes, same
      compressions) — root mass conservation follows;
    * throughput is measured in CPU terms (records per busy-CPU-second,
      summed over workers), so a time-sliced CI host reports the same
      capacity a multi-core host realizes in wall-clock.
    """
    policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
    records = make_reexport_trace(records_count, unique_flows)
    scalar_tree, scalar_seconds, columnar_seconds = _best_serial_arms(
        records, policy, rounds
    )
    scalar_state = (scalar_tree.to_dict(), scalar_tree.compressions)
    scalar_rate = len(records) / scalar_seconds
    columnar_rate = len(records) / columnar_seconds

    curve: Dict[str, dict] = {}
    for workers in worker_counts:
        summaries, capacity, wall = _run_parallel_arm(
            records, policy, workers, rounds
        )
        for i in range(workers):
            site = f"{TRACE_SITE}/shard{i}"
            shard = summaries[site]
            assert (shard["tree"], shard["compressions"]) == scalar_state, (
                f"worker site {i}/{workers} diverged from serial ingest"
            )
            assert summaries[site]["items"] == len(records)
        curve[str(workers)] = {
            "aggregate_records_per_s": round(capacity, 1),
            "wall_records_per_s": round(workers * len(records) / wall, 1),
            "speedup_vs_scalar": round(capacity / scalar_rate, 2),
        }

    return {
        "trace": {
            "records": records_count,
            "unique_flows": unique_flows,
            "seed": TRACE_SEED,
            "resample_seed": PARALLEL_RESAMPLE_SEED,
            "site": TRACE_SITE,
            "schema": "five_tuple",
            "node_budget": PARALLEL_NODE_BUDGET,
        },
        "scalar_records_per_s": round(scalar_rate, 1),
        "columnar_records_per_s": round(columnar_rate, 1),
        "columnar_speedup": round(columnar_rate / scalar_rate, 2),
        "curve": curve,
        "note": (
            "weak scaling: N workers each ingest one site's full trace;"
            " aggregate_records_per_s sums per-worker records per"
            " busy-CPU-second (equal to wall-clock rate on hosts with"
            " >= N cores); wall_records_per_s is total records over"
            " wall-clock on the benchmark host and collapses toward the"
            " single-core rate when workers time-slice one CPU"
        ),
    }


def print_parallel_results(parallel: dict) -> None:
    rows = [
        (
            "serial scalar", "1",
            f"{parallel['scalar_records_per_s']:.0f} rec/s",
            "-", "1.00x",
        ),
        (
            "serial columnar", "1",
            f"{parallel['columnar_records_per_s']:.0f} rec/s",
            "-", f"{parallel['columnar_speedup']:.2f}x",
        ),
    ]
    for workers, point in sorted(
        parallel["curve"].items(), key=lambda kv: int(kv[0])
    ):
        rows.append(
            (
                "sharded pool", workers,
                f"{point['aggregate_records_per_s']:.0f} rec/s",
                f"{point['wall_records_per_s']:.0f} rec/s",
                f"{point['speedup_vs_scalar']:.2f}x",
            )
        )
    report(
        "Parallel sharded ingest: cores vs throughput (re-export trace)",
        rows,
        columns=("arm", "workers", "aggregate", "wall-clock", "speedup"),
    )


# ----------------------------------------------------------------------
# pytest entry point (small trace so `pytest benchmarks/` stays quick)

def test_hotpath_speedup_and_answer_identity(benchmark):
    results = run_hotpath(records_count=20_000)
    policy = GeneralizationPolicy.default_for(FIVE_TUPLE)
    records = make_trace(5_000)
    benchmark.pedantic(
        lambda: run_fast(records, policy), rounds=3, iterations=1
    )
    benchmark.extra_info.update(results)
    print_results(results)
    # the full-trace gate is MIN_SPEEDUP (script mode / check_regression);
    # the short trace amortizes less, so the floor here is softer
    assert results["ingest_speedup"] >= 2.0, results


def test_parallel_scaling_identity_and_capacity():
    if not HAVE_NUMPY:  # pool falls back to raw transport; skip the arm
        return
    parallel = run_parallel_scaling(
        records_count=20_000,
        unique_flows=2_000,
        worker_counts=(1, 2),
        rounds=2,
    )
    print_parallel_results(parallel)
    # identity assertions already ran inside run_parallel_scaling; the
    # short trace amortizes less, so the capacity floor here is softer
    assert parallel["curve"]["2"]["speedup_vs_scalar"] >= 1.5, parallel


def test_small_batch_crossover_identity():
    if not HAVE_NUMPY:  # no planner path without numpy; nothing to pin
        return
    results = run_small_batch_crossover(
        sizes=(64, 256, 1024), trace_records=8_000
    )
    print_small_batch_results(results)
    # identity asserted inside; here just pin the routing constant is
    # one of the measured sizes so the curve brackets the threshold
    assert str(results["threshold_records"]) in results["curve"], results


def main() -> None:
    results = run_hotpath()
    print_results(results)
    speedup = results["ingest_speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"ingest speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate"
    )
    if HAVE_NUMPY:
        results["small_batch"] = run_small_batch_crossover()
        print_small_batch_results(results["small_batch"])
        for size, data in results["small_batch"]["curve"].items():
            if int(size) <= SCALAR_FALLBACK_RECORDS:
                assert data["planner_over_scalar"] >= 0.85, (
                    f"scalar fallback loses at batch size {size} "
                    f"({data['planner_over_scalar']:.2f}x); the "
                    f"crossover moved — retune SCALAR_FALLBACK_RECORDS"
                )
        results["parallel"] = run_parallel_scaling()
        print_parallel_results(results["parallel"])
        at_four = results["parallel"]["curve"].get("4", {})
        parallel_speedup = at_four.get("speedup_vs_scalar", 0.0)
        assert parallel_speedup >= MIN_PARALLEL_SPEEDUP, (
            f"parallel aggregate speedup {parallel_speedup:.2f}x at 4"
            f" workers below the {MIN_PARALLEL_SPEEDUP}x gate"
        )
    else:  # pragma: no cover
        print("numpy unavailable: skipping the parallel scaling arm")
    BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {BASELINE_PATH}")


if __name__ == "__main__":
    main()
