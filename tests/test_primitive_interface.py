"""Tests of the ComputingPrimitive contract and the registry."""

import hashlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.core import default_registry
from repro.core.flowtree import FlowtreePrimitive
from repro.core.primitive import ComputingPrimitive, QueryRequest
from repro.core.registry import PrimitiveRegistry
from repro.core.sampling import RandomSamplePrimitive
from repro.core.summary import DataSummary, Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.recombine import combine_summaries
from repro.datastore.storage import HierarchicalStorage, RoundRobinStorage
from repro.datastore.store import DataStore
from repro.errors import GranularityError, PlacementError, SchemaMismatchError
from repro.flows.records import FlowRecord, Score
from repro.flows.tree import Flowtree
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

LOC_A = Location("hq/factory1/line1")
LOC_B = Location("hq/factory1/line2")
LOC_FAR = Location("hq/factory2/line9")


class TestRegistry:
    def test_default_kinds(self):
        kinds = set(default_registry().kinds())
        assert kinds == {
            "sample",
            "timebin",
            "heavy_hitter",
            "count_min",
            "reservoir",
            "flowtree",
            "hhh",
            "raw",
            "quantile",
        }

    def test_create_each_kind(self, policy):
        registry = default_registry()
        for kind in registry.kinds():
            primitive = registry.create(kind, LOC_A, {"policy": policy})
            assert primitive.kind == kind
            assert primitive.location == LOC_A

    def test_unknown_kind(self):
        with pytest.raises(PlacementError):
            default_registry().create("nope", LOC_A, {})

    def test_custom_registration(self):
        registry = PrimitiveRegistry()
        registry.register(RandomSamplePrimitive)
        assert list(registry.kinds()) == ["sample"]
        primitive = registry.create("sample", LOC_A, {"rate": 0.3})
        assert isinstance(primitive, RandomSamplePrimitive)
        assert primitive.rate == 0.3

    def test_config_flows_through(self):
        primitive = default_registry().create(
            "timebin", LOC_A, {"bin_seconds": 30.0}
        )
        assert primitive.bin_seconds == 30.0


def payload_fingerprint(payload):
    """Every bit of a summary payload a later reader could observe."""
    if isinstance(payload, Flowtree):
        return (payload.to_dict(), payload.compressions)
    return pickle.dumps(payload)


class TestEpochHandOffContract:
    """``reset_epoch`` is an ownership transfer, for every kind: the
    sealed payload never changes again and the next epoch starts empty."""

    @pytest.fixture()
    def items_for(self, random_flows):
        flows = random_flows(120, seed=3)
        numbers = [float(i % 17) for i in range(120)]
        names = [f"host-{i % 23}" for i in range(120)]
        by_kind = {
            "flowtree": flows,
            "hhh": flows,
            "sample": numbers,
            "timebin": numbers,
            "quantile": numbers,
            "heavy_hitter": names,
            "count_min": names,
            "reservoir": names,
            "raw": names,
        }
        return lambda kind, epoch: [
            (item, epoch * 60.0 + i * 0.25)
            for i, item in enumerate(by_kind[kind])
        ]

    @pytest.mark.parametrize("kind", sorted(default_registry().kinds()))
    def test_sealed_payload_is_never_touched_again(
        self, kind, policy, items_for
    ):
        config = {"policy": policy, "rate": 1.0, "node_budget": 64}
        registry = default_registry()
        primitive = registry.create(kind, LOC_A, dict(config))
        empty_footprint = primitive.footprint_bytes()
        primitive.ingest_many(items_for(kind, 0))
        assert primitive.items_ingested == 120

        sealed = primitive.reset_epoch()
        before = payload_fingerprint(sealed.payload)
        assert sealed.size_bytes > 0
        # the new epoch starts empty ...
        assert primitive.items_ingested == 0
        assert primitive.interval().duration == 0.0
        assert primitive.footprint_bytes() == empty_footprint
        # ... and nothing the primitive does from here on reaches the
        # payload it handed over: ingest, combine, a second seal
        primitive.ingest_many(items_for(kind, 1))
        other = registry.create(kind, LOC_A, dict(config))
        other.ingest_many(items_for(kind, 1))
        primitive.combine(other)
        second = primitive.reset_epoch()
        assert second.payload is not sealed.payload
        assert payload_fingerprint(sealed.payload) == before


    @pytest.mark.parametrize("kind", sorted(default_registry().kinds()))
    def test_every_kind_can_be_shipped_and_merged_on_arrival(
        self, kind, policy, items_for
    ):
        """What an export path needs of a kind: its sealed summary
        rebuilds (``from_summary``), and that combines into a fresh
        primitive of the same kind — without writing to the sealed
        payload."""
        config = {"policy": policy, "rate": 1.0, "node_budget": 64}
        registry = default_registry()
        primitive = registry.create(kind, LOC_A, dict(config))
        primitive.ingest_many(items_for(kind, 0))
        sealed = primitive.reset_epoch()
        before = payload_fingerprint(sealed.payload)

        arrived = registry.class_of(kind).from_summary(sealed)
        assert arrived.kind == kind
        assert arrived.interval() == sealed.meta.interval
        arrived.items_ingested = 120
        fresh = registry.create(kind, LOC_B, dict(config))
        fresh.combine(arrived)
        assert fresh.items_ingested == 120
        assert fresh.interval() == sealed.meta.interval
        assert fresh.footprint_bytes() > 0
        fresh.ingest_many(items_for(kind, 0))
        assert payload_fingerprint(sealed.payload) == before


# one read per kind for the windowed query below
WINDOW_READS = {
    "flowtree": QueryRequest("top_k", {"k": 5}),
    "hhh": QueryRequest("hhh", {"threshold": 10_000.0}),
    "sample": QueryRequest("select", {}),
    "timebin": QueryRequest("stats", {}),
    "quantile": QueryRequest("quantiles", {"qs": [0.1, 0.5, 0.9]}),
    "heavy_hitter": QueryRequest("top_k", {"k": 5}),
    "count_min": QueryRequest("count", {"item": "host-3"}),
    "reservoir": QueryRequest("sample", {}),
    "raw": QueryRequest("items", {}),
}


def three_epoch_reads(kind):
    """Three sealed epochs of one kind in one store, then each read the
    determinism contract covers, twice: a combine at full size, a
    combine at half size, and a windowed query."""
    location = Location("hq/factory1/line1")
    flows = TrafficGenerator(
        TrafficConfig(sites=("s",), flows_per_epoch=120, external_hosts=400),
        seed=3,
    )
    store = DataStore(location, RoundRobinStorage(10**9))
    config = {
        "rate": 0.5, "seed": 3, "node_budget": 64, "capacity": 32,
        "bin_seconds": 30.0, "k": 16, "budget_bytes": 10**6,
    }
    store.install_aggregator(
        Aggregator("agg", default_registry().create(kind, location, config))
    )
    for epoch in range(3):
        if kind in ("flowtree", "hhh"):
            items = flows.epoch("s", epoch)
        elif kind in ("heavy_hitter", "count_min", "reservoir", "raw"):
            items = [f"host-{(i * 7 + epoch) % 23}" for i in range(120)]
        else:
            items = [float((i * 37 + epoch) % 101) for i in range(120)]
        store.ingest("s", [
            (item, epoch * 60.0 + i * 0.5) for i, item in enumerate(items)
        ])
        store.close_epoch((epoch + 1) * 60.0)
    summaries = [p.summary for p in store.catalog.all()]
    assert len(summaries) == 3
    reads = []
    for shrink in (1.0, 0.5):
        reads.append([
            payload_fingerprint(combine_summaries(summaries, shrink).payload)
            for _ in range(2)
        ])
    reads.append([
        repr(store.query("agg", WINDOW_READS[kind], 0.0, 180.0).value)
        for _ in range(2)
    ])
    return reads


def reads_digest(kind):
    """One sha256 over every read of :func:`three_epoch_reads`."""
    return hashlib.sha256(pickle.dumps(three_epoch_reads(kind))).hexdigest()


class TestEveryKindIsDeterministic:
    """A combine or a windowed read is a function of the stored
    summaries alone: not of what the process drew before, nor of the
    process's string-hash salt."""

    @pytest.mark.parametrize("kind", sorted(default_registry().kinds()))
    def test_reads_repeat_exactly(self, kind):
        for first, second in three_epoch_reads(kind):
            assert first == second

    @pytest.mark.parametrize("kind", sorted(default_registry().kinds()))
    def test_another_hash_seed_reads_the_same(self, kind):
        root = pathlib.Path(__file__).resolve().parent.parent
        salt = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(
            os.environ,
            PYTHONHASHSEED=salt,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        script = (
            "from tests.test_primitive_interface import reads_digest; "
            f"print(reads_digest({kind!r}))"
        )
        printed = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert printed == reads_digest(kind)


class CountingPrimitive(ComputingPrimitive):
    """A minimal custom kind: the running sum of numeric items."""

    kind = "test_counting"

    def __init__(self, location):
        super().__init__(location)
        self.total = 0.0

    @classmethod
    def empty_like(cls, summary):
        return cls(summary.meta.location)

    def _load(self, summary):
        self.total = summary.payload

    def _ingest(self, item, timestamp):
        self.total += item

    def _reset(self):
        self.total = 0.0

    def summary(self):
        return DataSummary(self.kind, self.meta(), self.total, 8)

    def query(self, request):
        return self.total

    def combine(self, other):
        self._check_combinable(other)
        self.total += other.total

    def set_granularity(self, granularity):
        pass

    def footprint_bytes(self):
        return 8


class TestCustomKind:
    @pytest.fixture()
    def registered(self, monkeypatch):
        # the process's registry must read nine kinds again afterwards
        registry = default_registry()
        monkeypatch.setattr(registry, "_classes", dict(registry._classes))
        registry.register(CountingPrimitive)
        return CountingPrimitive.kind

    def test_registered_class_is_all_a_kind_needs(self, registered):
        """Registered as a class and nothing else, a kind is installed
        from a requirement, answers a windowed query and survives
        hierarchical compaction."""
        location = Location("hq/factory1")
        storage = HierarchicalStorage(budget_bytes=20, merge_group=2)
        store = DataStore(location, storage)
        manager = Manager({location.path: store})
        manager.submit_requirement(
            ApplicationRequirement(
                app_name="a", aggregator_name="sum", kind=registered,
                location=location,
            )
        )
        for epoch in range(4):
            store.ingest("s", [(float(epoch + 1), epoch * 60.0 + 1)])
            store.close_epoch((epoch + 1) * 60.0)
        assert storage.compactions >= 1
        assert len(store.catalog) < 4
        result = store.query("sum", QueryRequest("total"), 0.0, 240.0)
        assert result.value == 1.0 + 2.0 + 3.0 + 4.0
        assert not result.used_live


class TestCombinePreconditions:
    def test_same_location_different_time_ok(self):
        a = RandomSamplePrimitive(LOC_A, rate=1.0)
        b = RandomSamplePrimitive(LOC_A, rate=1.0)
        a.ingest(1.0, 0.0)
        b.ingest(1.0, 1000.0)  # disjoint time, same location
        a.combine(b)
        assert len(a.points) == 2

    def test_shared_time_different_location_ok(self):
        a = RandomSamplePrimitive(LOC_A, rate=1.0)
        b = RandomSamplePrimitive(LOC_B, rate=1.0)
        a.ingest(1.0, 0.0)
        a.ingest(1.0, 10.0)
        b.ingest(1.0, 5.0)
        a.combine(b)
        # location generalizes to the common ancestor
        assert a.location == Location("hq/factory1")

    def test_adjacent_intervals_count_as_shared_time(self):
        a = RandomSamplePrimitive(LOC_A, rate=1.0)
        b = RandomSamplePrimitive(LOC_FAR, rate=1.0)
        a.ingest(1.0, 0.0)
        a.ingest(1.0, 60.0)
        b.ingest(1.0, 60.0)
        b.ingest(1.0, 120.0)
        a.combine(b)
        assert a.interval().start == 0.0
        assert a.interval().end == 120.0

    def test_disjoint_everything_rejected(self):
        a = RandomSamplePrimitive(LOC_A, rate=1.0)
        b = RandomSamplePrimitive(LOC_FAR, rate=1.0)
        a.ingest(1.0, 0.0)
        b.ingest(1.0, 99999.0)
        with pytest.raises(SchemaMismatchError):
            a.combine(b)

    def test_empty_side_combines_freely(self):
        a = RandomSamplePrimitive(LOC_A, rate=1.0)
        b = RandomSamplePrimitive(LOC_FAR, rate=1.0)
        b.ingest(1.0, 99999.0)
        a.combine(b)  # a is empty: adopts b's metadata
        assert a.location == LOC_FAR
        assert a.items_ingested == 1


class TestFlowtreePrimitive:
    def test_ingest_and_query(self, policy, make_key):
        primitive = FlowtreePrimitive(LOC_A, policy, node_budget=256)
        record = FlowRecord(
            key=make_key(), packets=2, bytes=200, first_seen=0.0,
            last_seen=1.0,
        )
        primitive.ingest(record, record.first_seen)
        assert primitive.query(
            QueryRequest("query", {"key": record.key})
        ) == Score(2, 200, 1)
        assert primitive.query(QueryRequest("total", {})).flows == 1

    @pytest.mark.parametrize("operator", ["top_k", "above_x"])
    @pytest.mark.parametrize("which", ["negative", "past-the-chain"])
    def test_depth_off_the_chain_answers_empty(
        self, policy, make_key, operator, which
    ):
        """``depth`` arrives unvalidated in ``QueryRequest.params``: one
        outside ``0..policy.depth`` selects no node — never the deepest
        level through a wrapped index, never a bare ``IndexError``."""
        primitive = FlowtreePrimitive(LOC_A, policy)
        record = FlowRecord(
            key=make_key(), packets=2, bytes=200, first_seen=0.0,
            last_seen=1.0,
        )
        primitive.ingest(record, record.first_seen)
        depth = -1 if which == "negative" else policy.depth + 1
        params = {"k": 5, "x": 0, "depth": depth}
        assert primitive.query(QueryRequest(operator, params)) == []
        # the same request at a depth on the chain does answer
        params["depth"] = policy.depth
        assert len(primitive.query(QueryRequest(operator, params))) == 1

    def test_rejects_foreign_items(self, policy):
        primitive = FlowtreePrimitive(LOC_A, policy)
        with pytest.raises(SchemaMismatchError):
            primitive.ingest("not a flow", 0.0)

    def test_summary_payload_is_snapshot(self, policy, make_key):
        primitive = FlowtreePrimitive(LOC_A, policy)
        record = FlowRecord(
            key=make_key(), packets=1, bytes=100, first_seen=0.0,
            last_seen=1.0,
        )
        primitive.ingest(record, 0.0)
        snapshot = primitive.summary().payload
        primitive.ingest(record, 2.0)
        assert snapshot.total().bytes == 100
        assert primitive.tree.total().bytes == 200

    def test_set_granularity_compresses(self, policy, random_flows):
        primitive = FlowtreePrimitive(LOC_A, policy, node_budget=None)
        for record in random_flows(200):
            primitive.ingest(record, record.first_seen)
        primitive.set_granularity(50)
        assert primitive.tree.node_count <= 50

    def test_set_granularity_minimum(self, policy):
        primitive = FlowtreePrimitive(LOC_A, policy)
        with pytest.raises(GranularityError):
            primitive.set_granularity(2)

    def test_query_bound_operator(self, policy, make_key):
        primitive = FlowtreePrimitive(LOC_A, policy, node_budget=256)
        record = FlowRecord(
            key=make_key(), packets=2, bytes=200, first_seen=0.0,
            last_seen=1.0,
        )
        primitive.ingest(record, 0.0)
        lower, upper = primitive.query(
            QueryRequest("query_bound", {"key": record.key})
        )
        assert lower == upper == Score(2, 200, 1)

    def test_domain_knowledge(self, policy):
        assert FlowtreePrimitive(LOC_A, policy).uses_domain_knowledge
