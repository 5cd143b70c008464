"""Tests for the raw-access primitive (Figure 4's 'Raw Access')."""

import pytest

from repro.core.primitive import AdaptationFeedback, QueryRequest
from repro.core.rawstore import RawStorePrimitive
from repro.core.summary import Location
from repro.datastore.recombine import combine_summaries
from repro.errors import GranularityError

LOC = Location("hq/factory1/line1")


def make_store(budget=1000, size_of=lambda item: 10):
    return RawStorePrimitive(LOC, budget_bytes=budget, size_of=size_of)


class TestRetention:
    def test_keeps_everything_under_budget(self):
        store = make_store(budget=1000)
        for i in range(50):
            store.ingest(i, float(i))
        assert store.query(QueryRequest("count", {})) == 50
        assert store.dropped == 0

    def test_drops_oldest_over_budget(self):
        store = make_store(budget=100)  # room for 10 items
        for i in range(30):
            store.ingest(i, float(i))
        items = store.query(QueryRequest("items", {}))
        assert len(items) == 10
        assert items[0][1] == 20  # oldest retained
        assert store.dropped == 20

    def test_size_from_attribute(self):
        class Reading:
            size_bytes = 100

        store = RawStorePrimitive(LOC, budget_bytes=250)
        for i in range(5):
            store.ingest(Reading(), float(i))
        assert store.query(QueryRequest("count", {})) == 2

    def test_invalid_budget(self):
        with pytest.raises(GranularityError):
            RawStorePrimitive(LOC, budget_bytes=0)


class TestQueries:
    def test_window(self):
        store = make_store()
        for i in range(10):
            store.ingest(i, float(i))
        window = store.query(QueryRequest("items", {"start": 3.0, "end": 7.0}))
        assert [item for _, item in window] == [3, 4, 5, 6]

    def test_replay(self):
        store = make_store()
        for i in range(5):
            store.ingest(i, float(i))
        replayed = []
        count = store.query(QueryRequest("replay", {"consumer": replayed.append}))
        assert count == 5
        assert replayed == [0, 1, 2, 3, 4]

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            make_store().query(QueryRequest("nope", {}))


class TestLifecycle:
    def test_combine_merges_time_ordered(self):
        a, b = make_store(budget=10**6), make_store(budget=10**6)
        a.ingest("a0", 0.0)
        a.ingest("a2", 2.0)
        b.ingest("b1", 1.0)
        a.combine(b)
        items = a.query(QueryRequest("items", {}))
        assert [item for _, item in items] == ["a0", "b1", "a2"]

    def test_set_granularity_shrinks(self):
        store = make_store(budget=1000)
        for i in range(50):
            store.ingest(i, float(i))
        store.set_granularity(100)
        assert store.query(QueryRequest("count", {})) == 10

    def test_adapt_halves_budget(self):
        store = make_store(budget=4096)
        store.adapt(AdaptationFeedback(storage_pressure=0.9))
        assert store.budget_bytes == 2048

    def test_epoch_reset(self):
        store = make_store()
        store.ingest("x", 1.0)
        summary = store.reset_epoch()
        assert summary.kind == "raw"
        assert summary.payload == [(1.0, "x")]
        assert store.query(QueryRequest("count", {})) == 0

    def test_recombine_and_rehydrate(self):
        a, b = make_store(budget=10**6), make_store(budget=10**6)
        a.ingest("early", 0.0)
        b.ingest("late", 100.0)
        combined = combine_summaries([a.summary(), b.summary()], shrink=1.0)
        assert combined.kind == "raw"
        primitive = RawStorePrimitive.from_summary(combined)
        items = primitive.query(QueryRequest("items", {}))
        assert [item for _, item in items] == ["early", "late"]

    def test_recombine_shrink_drops_oldest(self):
        a = make_store(budget=10**6)
        for i in range(10):
            a.ingest(i, float(i))
        combined = combine_summaries([a.summary()], shrink=0.5)
        assert len(combined.payload) == 5
        assert combined.payload[0][1] == 5  # oldest half dropped
