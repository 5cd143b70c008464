"""Table II: the eight Flowtree operators — correctness shape + cost.

One benchmark per operator (Merge, Compress, Diff, Query, Drilldown,
Top-k, Above-x, HHH), timed on a realistic tree built from Zipf traffic.
The claim the table makes is that all eight exist and are cheap enough
for on-the-fly use inside a data store; the per-operator timings are the
evidence.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SITES, report
from repro.flows.tree import Flowtree

BUDGET = 8192


@pytest.fixture(scope="module")
def tree_a(policy, traffic):
    tree = Flowtree(policy, node_budget=BUDGET)
    for epoch in range(3):
        tree.ingest(traffic.epoch(SITES[0], epoch))
    return tree


@pytest.fixture(scope="module")
def tree_b(policy, traffic):
    tree = Flowtree(policy, node_budget=BUDGET)
    for epoch in range(3):
        tree.ingest(traffic.epoch(SITES[1], epoch))
    return tree


@pytest.fixture(scope="module")
def sample_key(traffic):
    return traffic.epoch(SITES[0], 0)[0].key


def test_insert_throughput(benchmark, policy, traffic):
    """Not in Table II but the precondition: 'works on the fly'."""
    records = traffic.epoch(SITES[2], 0)

    def build():
        tree = Flowtree(policy, node_budget=BUDGET)
        tree.ingest(records)
        return tree

    tree = benchmark(build)
    benchmark.extra_info["records_per_round"] = len(records)
    benchmark.extra_info["nodes"] = tree.node_count
    assert tree.node_count <= BUDGET


def test_op_merge(benchmark, tree_a, tree_b):
    pair = [((0.0, "a"), tree_a), ((0.0, "b"), tree_b)]
    result = benchmark(lambda: Flowtree.union(pair, tree_a.node_budget))
    assert result.total() == tree_a.total() + tree_b.total()


def test_op_compress(benchmark, tree_a):
    def compress():
        clone = tree_a.copy()
        clone.compress(target_nodes=BUDGET // 4)
        return clone

    result = benchmark(compress)
    assert result.node_count <= BUDGET // 4
    assert result.total() == tree_a.total()


def test_op_diff(benchmark, tree_a, tree_b):
    result = benchmark(lambda: tree_a.diff(tree_b))
    assert result.total() == tree_a.total() - tree_b.total()


def test_op_query(benchmark, tree_a, sample_key):
    result = benchmark(lambda: tree_a.query(sample_key))
    assert result.bytes >= 0


def test_op_drilldown(benchmark, tree_a):
    root_key = tree_a.key_of(tree_a.root)
    result = benchmark(lambda: tree_a.drilldown(root_key))
    assert result


def test_op_top_k(benchmark, tree_a):
    result = benchmark(lambda: tree_a.top_k(10))
    assert len(result) == 10


def test_op_above_x(benchmark, tree_a):
    threshold = tree_a.total().bytes // 100
    result = benchmark(lambda: tree_a.above_x(threshold))
    assert result


def test_op_hhh(benchmark, tree_a):
    threshold = tree_a.total().bytes // 50
    result = benchmark(lambda: tree_a.hhh(threshold))
    assert result
    report(
        "Table II: HHH sample output (top 5)",
        [
            (str(r.key), r.score.bytes, r.residual.bytes)
            for r in result[:5]
        ],
        columns=("flow", "score(bytes)", "residual"),
    )
