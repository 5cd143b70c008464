"""Figure 5: the Flowstream system end to end.

Claims measured:

* the router → data store → Flowtree → FlowDB path works at multi-site,
  multi-epoch scale with a large raw-to-summary reduction factor;
* FlowQL answers the Section II.B question catalogue (trends, matrices,
  incidents, interactive queries) on merged summaries;
* merged-summary answers stay close to exact ground truth for aggregate
  (prefix-level) queries despite compression.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SITES, report
from repro.runtime.presets import flat_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

EPOCHS = 4


@pytest.fixture(scope="module")
def generator():
    return TrafficGenerator(
        TrafficConfig(sites=SITES, flows_per_epoch=2000), seed=99
    )


@pytest.fixture(scope="module")
def loaded_system(generator):
    system = flat_runtime(list(SITES), node_budget=4096)
    for epoch in range(EPOCHS):
        for site in SITES:
            system.ingest(site, generator.epoch(site, epoch))
        system.close_epoch((epoch + 1) * 60.0)
    return system


def test_ingest_to_export_pipeline(benchmark, generator):
    """Steps 1-4: one epoch from router export to FlowDB entry."""

    def one_epoch():
        system = flat_runtime([SITES[0]], node_budget=4096)
        system.ingest(SITES[0], generator.epoch(SITES[0], 0))
        system.close_epoch(60.0)
        return system

    system = benchmark.pedantic(one_epoch, rounds=3, iterations=1)
    assert len(system.db) == 1
    report(
        "Fig. 5: single-epoch volumes",
        [
            ("raw bytes observed", system.stats.raw_bytes),
            ("summary bytes exported", system.stats.exported_bytes),
            ("reduction", f"{system.stats.reduction_factor:.0f}x"),
        ],
    )
    assert system.stats.reduction_factor > 10


def test_flowql_query_mix(benchmark, loaded_system):
    """Step 5: the Section II.B question catalogue over FlowDB."""
    queries = [
        # (a) network trends: popular applications
        "SELECT GROUPBY(dst_port, 16) FROM ALL BY bytes",
        # (a) popular traffic sources
        "SELECT GROUPBY(src_ip, 8) FROM ALL BY bytes",
        # (b) traffic matrix row: per-site totals
        f"SELECT TOTAL FROM ALL AT {SITES[0]}",
        # (c) incident investigation: what changed between epochs
        "SELECT TOPK(10) FROM TIME(180, 240) VS TIME(120, 180) BY bytes",
        # (d) dynamic traffic engineering: heavy prefixes across sites
        "SELECT HHH(0.02) FROM ALL BY bytes",
        # (e) interactive query on the network state
        "SELECT QUERY FROM TIME(0, 120) WHERE dst_port = 443",
    ]

    def run_mix():
        return [loaded_system.query(text) for text in queries]

    results = benchmark.pedantic(run_mix, rounds=3, iterations=1)
    report(
        "Fig. 5: FlowQL query mix",
        [
            (query[:60], len(result.rows) if result.rows else "scalar")
            for query, result in zip(queries, results)
        ],
        columns=("query", "rows"),
    )
    assert all(
        result.rows or result.scalar is not None for result in results
    )


def test_merged_accuracy_vs_ground_truth(benchmark, loaded_system, generator):
    """Compression keeps aggregate answers near-exact.

    Per-/8-source-prefix byte counts from the merged, compressed trees
    are compared with exact ground truth recomputed from the raw
    records; compressed mass only loses *specificity*, so prefix-level
    sums must stay within a small relative error.
    """

    def measure():
        result = loaded_system.query(
            "SELECT GROUPBY(src_ip, 8) FROM ALL BY bytes"
        )
        answered = {row[0]: row[2] for row in result.rows}
        truth = {}
        for epoch in range(EPOCHS):
            for site in SITES:
                for record in generator.epoch(site, epoch):
                    octet = record.key.feature_value("src_ip") >> 24
                    truth[octet] = truth.get(octet, 0) + record.bytes
        return answered, truth

    answered, truth = benchmark.pedantic(measure, rounds=1, iterations=1)
    total_truth = sum(truth.values())
    total_answered = sum(answered.values())
    rows = []
    for flow_text, measured in sorted(
        answered.items(), key=lambda pair: -pair[1]
    ):
        octet = int(flow_text.split("src_ip=")[1].split(".")[0])
        exact = truth.get(octet, 0)
        error = abs(measured - exact) / max(1, exact)
        rows.append((flow_text[:50], exact, measured, f"{error:.2%}"))
    report(
        "Fig. 5: merged answers vs ground truth (per /8 source)",
        rows,
        columns=("prefix", "exact", "merged", "rel err"),
    )
    # totals are conserved exactly; per-prefix answers are lower bounds
    # that stay within 20% on the heavy prefixes
    assert total_answered <= total_truth
    assert total_answered >= 0.95 * total_truth
    heavy = [r for r in rows if r[1] > total_truth * 0.05]
    for _prefix, exact, measured, _err in heavy:
        assert measured >= 0.8 * exact
