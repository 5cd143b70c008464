"""Ablations over the design choices called out in DESIGN.md §6.

* Flowtree node budget sweep — accuracy of Top-k under compression.
* Merge order — compress-then-merge vs merge-then-compress.
* Trigger placement — in-store trigger vs application-polled detection.
* Replication threshold sweep — total cost as the break-even point moves.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SITES, report
from repro.flows.tree import Flowtree
from repro.replication.engine import (
    offline_optimal_cost,
    simulate_policy_on_trace,
)
from repro.replication.ski_rental import PercentThresholdPolicy
from repro.simulation.querytrace import QueryTraceConfig, QueryTraceGenerator


@pytest.fixture(scope="module")
def records(traffic):
    return [r for e in range(2) for r in traffic.epoch(SITES[0], e)]


@pytest.fixture(scope="module")
def exact_top(policy, records):
    tree = Flowtree(policy, node_budget=None)
    tree.ingest(records)
    return [key for key, _ in tree.top_k(20)]


def test_node_budget_sweep(benchmark, policy, records, exact_top):
    """Top-k recall as the node budget shrinks: graceful degradation."""

    def sweep():
        rows = []
        for budget in (16384, 4096, 1024, 256, 64):
            tree = Flowtree(policy, node_budget=budget)
            tree.ingest(records)
            answered = [key for key, _ in tree.top_k(20)]
            recall = len(set(answered) & set(exact_top)) / len(exact_top)
            rows.append((budget, tree.node_count, recall,
                         tree.compressions))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Ablation: Flowtree node budget vs top-20 recall",
        [
            (budget, nodes, f"{recall:.0%}", compressions)
            for budget, nodes, recall, compressions in rows
        ],
        columns=("budget", "nodes", "top-20 recall", "compressions"),
    )
    recalls = [recall for _, _, recall, _ in rows]
    assert recalls[0] >= 0.95, "large budgets must be near-exact"
    assert all(a >= b - 0.25 for a, b in zip(recalls, recalls[1:])), (
        "recall must degrade gracefully, not collapse between steps"
    )


def test_compression_trigger_policy(benchmark, policy, records, exact_top):
    """Eager vs lazy self-compression: a high compress ratio (shrink
    just below the budget) compresses often in small steps; a low ratio
    compresses rarely in big steps.  Work shifts, recall barely moves —
    the design choice is about smoothing latency, not accuracy."""

    def sweep():
        rows = []
        for ratio in (0.95, 0.8, 0.5, 0.25):
            tree = Flowtree(
                policy, node_budget=1024, compress_ratio=ratio
            )
            tree.ingest(records)
            answered = [key for key, _ in tree.top_k(20)]
            recall = len(set(answered) & set(exact_top)) / len(exact_top)
            rows.append((ratio, tree.compressions, recall))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Ablation: compression trigger (budget 1024)",
        [
            (f"ratio {ratio}", passes, f"{recall:.0%}")
            for ratio, passes, recall in rows
        ],
        columns=("compress to", "passes", "top-20 recall"),
    )
    passes = [p for _, p, _ in rows]
    assert passes[0] > passes[-1], "eager compression must run more often"
    recalls = [r for _, _, r in rows]
    assert min(recalls) >= max(recalls) - 0.25


def test_merge_order(benchmark, policy, traffic):
    """compress(merge(A,B)) vs merge(compress(A),compress(B)):
    compressing late preserves more mass specificity."""
    a_records = traffic.epoch(SITES[0], 0)
    b_records = traffic.epoch(SITES[1], 0)
    target = 512

    def compare():
        a = Flowtree(policy, node_budget=None)
        b = Flowtree(policy, node_budget=None)
        a.ingest(a_records)
        b.ingest(b_records)
        pair = [((0.0, SITES[0]), a), ((0.0, SITES[1]), b)]
        exact = Flowtree.union(pair)
        exact_top = {key for key, _ in exact.top_k(20)}

        # late compression
        late = Flowtree.union(pair)
        late.compress(target_nodes=target)
        late_recall = len(
            {k for k, _ in late.top_k(20)} & exact_top
        ) / 20

        # early compression
        a_small, b_small = a.copy(), b.copy()
        a_small.compress(target_nodes=target // 2)
        b_small.compress(target_nodes=target // 2)
        early = Flowtree.union(
            [((0.0, SITES[0]), a_small), ((0.0, SITES[1]), b_small)]
        )
        early.compress(target_nodes=target)
        early_recall = len(
            {k for k, _ in early.top_k(20)} & exact_top
        ) / 20
        return late_recall, early_recall, exact.total()

    late_recall, early_recall, exact_total = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    report(
        "Ablation: merge order (512-node result)",
        [
            ("compress after merge", f"{late_recall:.0%}"),
            ("compress before merge", f"{early_recall:.0%}"),
        ],
        columns=("order", "top-20 recall"),
    )
    # both orders conserve mass; late compression cannot be worse
    assert late_recall >= early_recall - 0.051


def test_trigger_placement(benchmark):
    """In-store trigger (paper design) vs application polling: detection
    delay for an out-of-range reading."""
    from repro.core.summary import Location
    from repro.core.timebin import TimeBinStatistics
    from repro.datastore.aggregator import Aggregator
    from repro.datastore.storage import RoundRobinStorage
    from repro.datastore.store import DataStore
    from repro.datastore.triggers import RawTrigger

    loc = Location("hq/factory1/line1")
    epoch_seconds = 60.0

    def run():
        store = DataStore(loc, RoundRobinStorage(10**7))
        store.install_aggregator(
            Aggregator("temps", TimeBinStatistics(loc, bin_seconds=1.0))
        )
        fired = {}
        store.install_raw_trigger(
            RawTrigger("hot", predicate=lambda v: v > 100)
        )
        store.subscribe_triggers(
            lambda firing: fired.setdefault("store", firing.time)
        )
        anomaly_at = 31.5
        t = 0.0
        while t < epoch_seconds:
            t += 1.0
            value = 200.0 if abs(t - anomaly_at) <= 0.5 else 40.0
            store.ingest("temps", value, t)
        store.close_epoch(epoch_seconds)
        # the polling application only sees data at the epoch boundary
        fired["app"] = epoch_seconds
        return anomaly_at, fired

    anomaly_at, fired = benchmark.pedantic(run, rounds=3, iterations=1)
    in_store_delay = fired["store"] - anomaly_at
    app_delay = fired["app"] - anomaly_at
    report(
        "Ablation: trigger placement (detection delay, seconds)",
        [
            ("in-store raw trigger", f"{in_store_delay:.1f}"),
            ("application poll (epoch)", f"{app_delay:.1f}"),
        ],
    )
    assert in_store_delay < 1.0
    assert app_delay > 10 * max(in_store_delay, 0.1)


def test_tiered_vs_flat_aggregation(benchmark, policy):
    """Flat (router -> cloud) vs tiered (router -> region -> cloud):
    the mid-tier merge of Figure 2b dedups shared generalized nodes and
    cuts WAN volume further, at identical query answers."""
    from repro.runtime.presets import flat_runtime, tiered_runtime
    from repro.simulation.traffic import TrafficConfig, TrafficGenerator

    sites = [
        "region1/router1", "region1/router2",
        "region2/router1", "region2/router2",
    ]
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=1000), seed=61
    )

    def run_both():
        flat = flat_runtime(sites, node_budget=4096, policy=policy)
        tiered = tiered_runtime(
            sites, router_node_budget=4096, region_node_budget=4096,
            policy=policy,
        )
        for epoch in range(2):
            for site in sites:
                records = generator.epoch(site, epoch)
                flat.ingest(site, records)
                tiered.ingest(site, records)
            flat.close_epoch((epoch + 1) * 60.0)
            tiered.close_epoch((epoch + 1) * 60.0)
        return flat, tiered

    flat, tiered = benchmark.pedantic(run_both, rounds=1, iterations=1)
    flat_wan = flat.wan_bytes()
    tiered_wan = tiered.wan_bytes()
    report(
        "Ablation: flat vs tiered aggregation (WAN summary bytes)",
        [
            ("flat (router->cloud)", f"{flat_wan:,}"),
            ("tiered (router->region->cloud)", f"{tiered_wan:,}"),
            ("saving", f"{1 - tiered_wan / flat_wan:.0%}"),
        ],
    )
    assert tiered_wan < flat_wan
    assert (
        tiered.query("SELECT TOTAL FROM ALL").scalar
        == flat.query("SELECT TOTAL FROM ALL").scalar
    )


def test_replication_threshold_sweep(benchmark):
    """Total cost as the buy threshold moves from 'always' to 'never':
    the classic U-shape with the break-even region near the bottom."""
    trace = QueryTraceGenerator(
        QueryTraceConfig(
            partitions=300,
            partition_bytes=10_000_000,
            mean_result_bytes=1_000_000,
        ),
        seed=21,
    ).trace()

    def sweep():
        optimal = offline_optimal_cost(trace, 10_000_000)
        rows = []
        for percent in (1, 10, 25, 50, 100, 200, 400, 10**6):
            costs = simulate_policy_on_trace(
                trace, PercentThresholdPolicy(percent), 10_000_000
            )
            rows.append((percent, costs.competitive_ratio(optimal)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Ablation: replication threshold sweep (percent of partition size)",
        [(f"{p}%", f"{ratio:.3f}") for p, ratio in rows],
        columns=("threshold", "vs OPT"),
    )
    ratios = [ratio for _, ratio in rows]
    best = min(ratios)
    # the extremes (buy at 1%, never buy) are both worse than the middle
    assert ratios[0] > best
    assert ratios[-1] > best
