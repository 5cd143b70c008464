"""One union rule: every fold of Flowtrees is :meth:`Flowtree.union`,
which folds its inputs in ascending ``(interval start, location path)``
whatever order they arrive in.

The set: four sealed trees (two routers x two epochs), each at a node
budget, whose union under that budget compresses — so the order of
the fold decides the tree (``test_the_fold_order_matters`` keeps that
from going vacuous).  Every public path that unions them is fed every
input order and must give one tree, and all paths the same one.
"""

from __future__ import annotations

import json
from itertools import permutations

import pytest

from repro.core.flowtree import FlowtreePrimitive
from repro.core.summary import Location
from repro.datastore.partitions import Partition
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.flowql.executor import apply_operator
from repro.flowql.parser import parse
from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.tree import Flowtree
from repro.runtime.presets import flat_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

POLICY = GeneralizationPolicy.default_for(FIVE_TUPLE)
SITES = ("region1/router1", "region1/router2")
BUDGET = 600
ORDERS = list(permutations(range(4)))
#: an answer that reads the tree's shape, not only its mass
TEXT = "SELECT HHH(0.01) FROM ALL BY bytes"


def frozen(tree: Flowtree) -> str:
    return json.dumps(tree.to_dict())


@pytest.fixture(scope="module")
def summaries():
    """Four sealed epoch summaries, with distinct union keys."""
    generator = TrafficGenerator(
        TrafficConfig(sites=SITES, flows_per_epoch=500), seed=11
    )
    sealed = []
    for epoch in range(2):
        for site in SITES:
            primitive = FlowtreePrimitive(
                Location(site), POLICY, node_budget=BUDGET
            )
            primitive.ingest_many(
                (record, record.first_seen)
                for record in generator.epoch(site, epoch)
            )
            sealed.append(primitive.reset_epoch())
    assert all(s.payload.node_count > BUDGET // 2 for s in sealed)
    return sealed


@pytest.fixture(scope="module")
def union(summaries):
    """The one tree: the direct union of the set."""
    return frozen(Flowtree.union(keyed(summaries), BUDGET))


def keyed(summaries):
    return [
        ((s.meta.interval.start, s.meta.location.path), s.payload)
        for s in summaries
    ]


def test_the_fold_order_matters(summaries):
    """Merged in the order given, the orders give different trees."""
    trees = set()
    for order in ORDERS:
        tree = Flowtree(POLICY, node_budget=BUDGET)
        for index in order:
            tree.merge(summaries[index].payload)
        trees.add(frozen(tree))
    assert len(trees) > 1


def test_direct_union_in_every_order(summaries, union):
    pairs = keyed(summaries)
    for order in ORDERS:
        tree = Flowtree.union([pairs[i] for i in order], BUDGET)
        assert frozen(tree) == union


def test_flowdb_inserted_in_every_order(summaries, union):
    """``merged_tree`` and a cold ``runtime.query`` (cloud route)."""
    answers = set()
    for order in ORDERS:
        runtime = flat_runtime(
            list(SITES), node_budget=BUDGET, merge_node_budget=BUDGET
        )
        for index in order:
            runtime.db.insert_summary(summaries[index])
        merged = runtime.db.merged_tree()
        assert frozen(merged) == union
        outcome = runtime.query(TEXT)
        assert outcome.plan.route == "cloud"
        wire = outcome.result.to_wire()
        assert wire == apply_operator([(1, merged)], parse(TEXT)).to_wire()
        answers.add(json.dumps(wire, sort_keys=True))
    assert len(answers) == 1


def test_store_catalog_admitted_in_every_order(summaries, union):
    """``window_summary`` over partitions admitted at one instant, so
    the catalog lists them in admission order."""
    for order in ORDERS:
        store = DataStore(Location("region1"), RoundRobinStorage(10**9))
        for index in order:
            store.catalog.add(
                Partition(
                    partition_id=f"flows#{index}",
                    aggregator="flows",
                    summary=summaries[index],
                    created_at=120.0,
                )
            )
        combined, used = store.window_summary("flows", now=120.0)
        assert sorted(used) == [f"flows#{i}" for i in range(4)]
        assert frozen(combined.payload) == union
