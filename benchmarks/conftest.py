"""Shared fixtures, the one trace/runtime builder and the one ``report()``.

Two kinds of module live beside this file (see README.md here):

* the ten *paper-artefact* modules regenerate a table or figure of the
  paper, assert its qualitative claim in the test body, and print their
  claim table through :func:`report`;
* the four *drills* and the ingest-scaling curve cover regimes no
  ``BENCHMARK.json`` workload has yet.  Each exposes
  ``measure(**size) -> rows`` in the row schema below;
  ``check_regression.py`` holds the one gate table those rows are read
  against and ``BENCH_results.json`` the committed ones.

A row is ``(bench, case, metric, unit, n, value, kind)``: ``n`` is the
number of operations the value was measured over, ``kind`` how it may
be read —

* ``exact``: deterministic; committed; a fresh run reproduces it;
* ``ratio``: a quotient of two exact counts; committed, reproduced,
  and held at or above the gate's bound;
* ``floor``: derived from wall time; never committed; a fresh run must
  reach the gate's bound;
* ``info``: a bare timing, printed and forgotten.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.runtime.presets import network_4level_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_results.json"
ROW_FIELDS = ("bench", "case", "metric", "unit", "n", "value", "kind")
KINDS = ("exact", "ratio", "floor", "info")

SITES = ("region1/router1", "region2/router1", "region3/router1",
         "region4/router1")

#: the golden trace of ``tests/test_golden_trace.py``: these labels,
#: ``flows_per_epoch=3000``, 3 epochs, seed 2019, budget 4096 per level
GOLDEN_SITES = ("region1/router1", "region1/router2", "region2/router1",
                "region2/router2")
GOLDEN_BUDGETS = {
    "router_node_budget": 4096,
    "region_node_budget": 4096,
    "network_node_budget": 4096,
}


@pytest.fixture(scope="session")
def policy() -> GeneralizationPolicy:
    return GeneralizationPolicy.default_for(FIVE_TUPLE)


@pytest.fixture(scope="session")
def traffic() -> TrafficGenerator:
    return TrafficGenerator(
        TrafficConfig(sites=SITES, flows_per_epoch=3000), seed=2019
    )


@pytest.fixture(scope="session")
def small_traffic() -> TrafficGenerator:
    return TrafficGenerator(
        TrafficConfig(sites=SITES, flows_per_epoch=600), seed=2019
    )


def report(title: str, rows, columns=None) -> None:
    """Print one table under the benchmark output."""
    print(f"\n=== {title} ===")
    if columns:
        print("  " + " | ".join(str(c) for c in columns))
    for row in rows:
        print("  " + " | ".join(str(c) for c in row))


def rows(case: str, n: int, measured) -> list:
    """Schema rows (bench and kind aside) of one case: ``measured`` is
    ``(metric, unit, value)`` triples over ``n`` operations."""
    return [(case, metric, unit, n, value) for metric, unit, value in measured]


def feed(runtime, flows_per_epoch: int, epochs) -> None:
    """Ingest and close ``epochs`` of the golden trace's traffic.

    Every edge site receives the stream of its golden label (its last
    two path components), so any runtime over the four golden routers —
    flat, tiered or 4-level — sees the same records.
    """
    generator = TrafficGenerator(
        TrafficConfig(sites=GOLDEN_SITES, flows_per_epoch=flows_per_epoch),
        seed=2019,
    )
    for epoch in epochs:
        for site in runtime.ingest_sites():
            label = "/".join(site.split("/")[-2:])
            runtime.ingest(site, generator.epoch(label, epoch))
        runtime.close_epoch((epoch + 1) * runtime.epoch_seconds)


def depth4_runtime(flows_per_epoch: int, epochs: int, **preset):
    """The one depth-4 builder: the 4-level network preset (1 network x
    2 regions x 2 routers) holding ``epochs`` closed epochs."""
    runtime = network_4level_runtime(**preset)
    feed(runtime, flows_per_epoch, range(epochs))
    return runtime
