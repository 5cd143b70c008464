"""The front door: one memo from FlowQL text to (AST, plan, cache key).

A repeated text is neither lexed, parsed, planned nor keyed again while
the stores and the topology it was planned on hold; once either moves,
the next lookup plans again from the kept query.  The differential
below holds the memo to what planning every query from scratch gives,
across closes, replica purchases, retention, reconfiguration and a
site restart.
"""

import sys
import threading

import pytest

import repro.flowql.parser as parser_module
from repro.core.summary import TimeInterval, stores_version
from repro.datastore.partitions import PartitionCatalog
from repro.errors import FlowQLPlanningError, FlowQLSyntaxError
from repro.flowdb.db import FlowDB
from repro.flowql.parser import parse
from repro.flows.tree import Flowtree
from repro.query.memo import MEMO_MAX
from repro.replication.engine import AdaptiveReplicationEngine
from repro.replication.ski_rental import BreakEvenPolicy
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from tests.test_query_planner import EPOCH, loaded_runtime

ROUTER1 = "network1/region1/router1"


def close_another_epoch(runtime, epoch=2):
    """Ingest and seal one more epoch (the same records on every call)."""
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=60), seed=5
    )
    for site in sites:
        runtime.ingest(site, generator.epoch(site, epoch))
    runtime.close_epoch((epoch + 1) * EPOCH)


class Calls:
    """Counts calls of the front door's three steps, by name."""

    def __init__(self, monkeypatch, planner):
        self.counts = {"tokenize": 0, "plan": 0, "key": 0}
        for name, owner, attr in (
            ("tokenize", parser_module, "tokenize"),
            ("plan", planner, "plan"),
            ("key", planner, "cache_key"),
        ):
            monkeypatch.setattr(owner, attr, self._counted(name, owner, attr))

    def _counted(self, name, owner, attr):
        inner = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return inner(*args, **kwargs)

        return counted


class TestCacheHitDoesNoFrontWork:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT TOPK(3) FROM TIME(0, 60) BY bytes",
            f"SELECT TOTAL FROM TIME(0, 120) AT {ROUTER1}",
            "SELECT TOTAL FROM TIME(60, 120) VS TIME(0, 60)",
        ],
    )
    def test_hit_neither_lexes_parses_plans_nor_keys(
        self, monkeypatch, text
    ):
        runtime = loaded_runtime()
        calls = Calls(monkeypatch, runtime.planner)
        cold = runtime.query(text)
        assert not cold.cache.hit
        assert calls.counts["tokenize"] == calls.counts["plan"] == 1
        assert calls.counts["key"] == 1
        before = dict(calls.counts)
        for _ in range(3):
            hit = runtime.query(text)
            assert hit.cache.hit
            assert hit.cache.key == cold.cache.key
            assert hit.result.to_wire() == cold.result.to_wire()
        assert calls.counts == before
        memo = runtime.planner.memo
        assert (memo.hits, memo.misses, memo.replans) == (3, 1, 0)

    def test_a_close_replans_without_parsing(self, monkeypatch):
        runtime = loaded_runtime()
        calls = Calls(monkeypatch, runtime.planner)
        text = "SELECT TOPK(3) FROM TIME(0, 60) BY bytes"
        runtime.query(text)
        close_another_epoch(runtime)
        hit = runtime.query(text)
        assert hit.cache.hit  # the closed window's answer survives
        assert calls.counts["tokenize"] == 1
        assert calls.counts["plan"] == 2
        assert runtime.planner.memo.replans == 1

    def test_cache_disabled_still_skips_the_parse(self, monkeypatch):
        """A repeat that folds again (its cached result dropped) still
        skips the parse and the plan."""
        runtime = loaded_runtime()
        calls = Calls(monkeypatch, runtime.planner)
        text = f"SELECT TOTAL FROM ALL AT {ROUTER1}"
        runtime.planner.invalidate_cache()
        first = runtime.query(text)
        runtime.planner.invalidate_cache()
        again = runtime.query(text)
        assert not again.cache.hit and again.cache.key == first.cache.key
        assert again.result.to_wire() == first.result.to_wire()
        assert calls.counts["tokenize"] == calls.counts["plan"] == 1


class TestStoresVersion:
    """Everything a plan reads moves :func:`stores_version`."""

    def test_every_catalog_and_index_change_moves_it(self):
        runtime = loaded_runtime()
        store = runtime.store_for(ROUTER1)
        partition = store.catalog.all()[0]
        seen = [stores_version()]

        def moved():
            seen.append(stores_version())
            return seen[-1] != seen[-2]

        store.catalog.remove(partition.partition_id)
        assert moved()
        store.catalog.add(partition)
        assert moved()
        PartitionCatalog()
        assert moved()
        db = FlowDB()
        assert not moved()  # an empty index holds nothing yet
        db.insert("a", TimeInterval(0.0, 60.0), Flowtree(runtime.policy))
        assert moved()
        db.relabel("a", "b")
        assert moved()
        db.recover(runtime.policy)
        assert moved()
        runtime.query(f"SELECT TOTAL FROM ALL AT {ROUTER1}")
        assert not moved()  # reading never moves it


class TestMemoEqualsFresh:
    """Text through the memo == the parsed query planned every time.

    Two identical runtimes take the same steps; one is asked by text,
    the other by an already-parsed query, which the memo never keeps.
    Partition ids differ between the two (a process-wide counter), so
    reads are compared by what they cost, not by name.
    """

    TEXTS = [
        "SELECT TOTAL FROM ALL",
        "SELECT TOPK(3) FROM TIME(0, 60) BY bytes",
        f"SELECT TOTAL FROM ALL AT {ROUTER1}",
        f"SELECT TOPK(2) FROM TIME(0, 120) AT {ROUTER1} BY packets",
        "SELECT HHH(0.1) FROM TIME(60, 120) VS TIME(0, 60)",
        "SELECT TOTAL FROM ALL AT network1/region1/router9",
    ]

    @staticmethod
    def ask(runtime, flowql):
        try:
            outcome = runtime.query(flowql)
        except FlowQLPlanningError as exc:
            return ("error", str(exc))
        plan = outcome.plan
        return (
            outcome.result.to_wire(),
            (plan.route, plan.level, tuple(plan.sites)),
            outcome.cache.hit,
            repr(outcome.cache.key),
            plan.shipped_bytes,
            plan.partitions_read,
        )

    def compare(self, memo_side, fresh_side, rounds=2):
        for _ in range(rounds):
            for text in self.TEXTS:
                assert self.ask(memo_side, text) == self.ask(
                    fresh_side, parse(text)
                ), text

    def test_across_every_kind_of_change(self):
        sides = [loaded_runtime(), loaded_runtime()]
        for runtime in sides:
            runtime.manager.enable_adaptive_replication(
                AdaptiveReplicationEngine(BreakEvenPolicy())
            )
        memo_side, fresh_side = sides

        def step(action):
            for runtime in sides:
                action(runtime)
            self.compare(memo_side, fresh_side)

        self.compare(memo_side, fresh_side)
        # a close seals new data and keeps closed windows cached
        step(close_another_epoch)
        # repeated uncached federated reads buy replicas mid-query
        for _ in range(4):
            step(lambda runtime: runtime.planner.invalidate_cache())
        assert memo_side.planner.replica_store.replicas
        # retention drops a router's oldest partition
        step(
            lambda runtime: runtime.store_for(ROUTER1).catalog.remove(
                runtime.store_for(ROUTER1).catalog.all()[0].partition_id
            )
        )
        # a reconfiguration adds a site nothing covers yet
        step(lambda runtime: runtime.site_join("network1/region1/router9"))
        # a site restart loses its retained partitions
        step(lambda runtime: runtime.restart_site(ROUTER1, 3 * EPOCH))
        memo = memo_side.planner.memo
        assert memo.hits and memo.replans
        assert len(fresh_side.planner.memo) == 0


class TestWhatTheMemoKeeps:
    def test_bad_text_is_never_kept(self):
        runtime = loaded_runtime()
        memo = runtime.planner.memo
        with pytest.raises(FlowQLSyntaxError):
            runtime.query("SELECT NOPE FROM")
        with pytest.raises(FlowQLPlanningError):
            runtime.query("SELECT TOTAL FROM TIME(900, 960)")
        assert len(memo) == 0

    def test_at_most_memo_max_texts_oldest_out(self):
        runtime = loaded_runtime(epochs=1, flows_per_epoch=40)
        memo = runtime.planner.memo
        texts = [f"SELECT TOPK({k}) FROM ALL" for k in range(MEMO_MAX + 5)]
        for text in texts:
            memo.front(text)
        assert len(memo) == MEMO_MAX
        memo.front(texts[-1])
        memo.front(texts[0])  # evicted: parsed again
        assert memo.hits == 1
        assert memo.misses == len(texts) + 1

    def test_every_lookup_counts_once_across_threads(self):
        memo = loaded_runtime(epochs=1, flows_per_epoch=40).planner.memo
        texts = [f"SELECT TOPK({k}) FROM ALL" for k in range(1, 4)]
        rounds, workers = 500, 4

        def look_up():
            for _ in range(rounds):
                for text in texts:
                    memo.front(text)
                    memo.parse(text)

        threads = [threading.Thread(target=look_up) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as it can
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert memo.hits + memo.misses + memo.replans == (
            2 * rounds * workers * len(texts)
        )

    def test_subscriptions_and_queries_share_one_parse(self, monkeypatch):
        runtime = loaded_runtime()
        calls = Calls(monkeypatch, runtime.planner)
        text = f"SELECT TOPK(3) FROM ALL AT {ROUTER1} BY bytes"
        subscription = runtime.subscribe(text)
        outcome = runtime.query(text)
        assert calls.counts["tokenize"] == 1
        assert (
            subscription.latest().result.to_wire()
            == outcome.result.to_wire()
        )
