"""Figure 6: adaptive replication vs shipping — the Section VII trade-off.

Claims measured:

* always-ship and always-replicate are both dominated by adaptive
  policies on heavy-tailed access traces;
* the deterministic break-even rule stays within its 2x competitive
  bound of the offline optimum;
* the distribution-aware threshold (learning from completed partitions,
  as the paper proposes) matches or beats break-even across demand
  distributions;
* in the live system, replication converts WAN traffic into local reads.
"""

from __future__ import annotations


from benchmarks.conftest import report
from repro.replication.engine import (
    AdaptiveReplicationEngine,
    compare_policies,
)
from repro.replication.ski_rental import BreakEvenPolicy
from repro.runtime.presets import network_4level_runtime
from repro.simulation.querytrace import QueryTraceConfig
from repro.simulation.traffic import drive


def compare(distribution: str, param: float):
    """Every default policy on a 400-partition trace (seed 7)."""
    config = QueryTraceConfig(
        partitions=400,
        partition_bytes=10_000_000,
        mean_result_bytes=1_000_000,
        run_length_distribution=distribution,
        run_length_param=param,
    )
    table = compare_policies(config, trace_seed=7, policy_seed=1)
    ratios = {
        costs.policy: costs.competitive_ratio(table.optimal_bytes)
        for costs in table.costs
    }
    return table, ratios


def test_policy_comparison_pareto(benchmark):
    """The headline Figure 6 comparison on a heavy-tailed trace."""
    table, ratios = benchmark.pedantic(
        compare, args=("pareto", 1.3), rounds=1, iterations=1
    )
    report(
        "Fig. 6: policies on a Pareto access trace "
        f"(offline OPT = {table.optimal_bytes / 1e6:.0f} MB)",
        [
            (costs.policy, f"{costs.total_bytes/1e6:.0f} MB",
             f"{ratios[costs.policy]:.3f}", costs.replications,
             costs.accesses_served_locally)
            for costs in table.costs
        ],
        columns=("policy", "network bytes", "vs OPT", "replications",
                 "local hits"),
    )
    # the shape the figure claims:
    assert ratios["break-even"] <= 2.0 + 0.1
    assert ratios["break-even"] < ratios["always"]
    assert ratios["break-even"] < ratios["count>=3"]
    assert ratios["distribution-aware"] < ratios["always"]
    assert ratios["distribution-aware"] < ratios["randomized"]
    benchmark.extra_info["ratios"] = {k: round(v, 3) for k, v in
                                      ratios.items()}


def test_distribution_sweep(benchmark):
    """Break-even vs distribution-aware across demand families —
    learning the distribution pays once it is known (the [9,13]
    average-case result)."""

    def sweep():
        rows = []
        for distribution, param in (
            ("geometric", 1.0),
            ("pareto", 1.3),
            ("lognormal", 1.0),
        ):
            _, ratios = compare(distribution, param)
            rows.append(
                (
                    distribution,
                    ratios["break-even"],
                    ratios["distribution-aware"],
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "Fig. 6: break-even vs distribution-aware across demand families",
        [
            (dist, f"{be:.3f}", f"{aware:.3f}")
            for dist, be, aware in rows
        ],
        columns=("distribution", "break-even vs OPT",
                 "distribution-aware vs OPT"),
    )
    # learned thresholds must not lose badly anywhere, and must win
    # somewhere
    assert all(aware <= be * 1.10 for _, be, aware in rows)
    assert any(aware < be for _, be, aware in rows)


def test_live_engine_cuts_wan_traffic(benchmark):
    """The live Figure 6 loop on a runtime: distinct FlowQL queries over
    one router's history ship its partials to the cloud until the engine
    buys replicas, after which no query crosses the WAN."""

    def run():
        runtime = network_4level_runtime(1, 2, 1, retain_partitions=True)
        engine = AdaptiveReplicationEngine(BreakEvenPolicy())
        runtime.manager.enable_adaptive_replication(engine)
        sites = drive(runtime, 3, flows_per_epoch=300, seed=1)
        wan_per_query = []
        for index in range(30):
            before = runtime.wan_bytes()
            runtime.query(
                f"SELECT TOPK({50 + index}) FROM TIME(0, 180) AT {sites[0]}"
            )
            wan_per_query.append(runtime.wan_bytes() - before)
        return wan_per_query, engine

    wan_per_query, engine = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Fig. 6: WAN bytes per never-asked query (live engine)",
        [(f"query {i}", wan) for i, wan in enumerate(wan_per_query)
         if i % 5 == 0 or wan != wan_per_query[max(0, i - 1)]],
    )
    assert engine.outcomes, "the engine never replicated"
    assert wan_per_query[0] > 0
    assert wan_per_query[-1] == 0, "post-replication queries must be local"
