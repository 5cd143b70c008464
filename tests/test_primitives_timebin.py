"""Unit tests for time-binned statistics."""


import pytest

from repro.core.primitive import AdaptationFeedback, QueryRequest
from repro.core.summary import Location
from repro.core.timebin import BinStats, TimeBinStatistics
from repro.errors import GranularityError

LOC = Location("factory1/line1/machine2")


def make_primitive(bin_seconds=1.0, seed=1):
    return TimeBinStatistics(LOC, bin_seconds=bin_seconds, seed=seed)


class TestBinStats:
    def test_moments(self):
        stats = BinStats()
        import random

        rng = random.Random(0)
        for value in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            stats.observe(value, rng, 32)
        assert stats.count == 8
        assert stats.mean == pytest.approx(5.0)
        assert stats.stddev == pytest.approx(2.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0
        assert stats.median == pytest.approx(5.0)

    def test_merge_matches_pooled_moments(self):
        import random

        rng = random.Random(0)
        a, b, pooled = BinStats(), BinStats(), BinStats()
        values_a = [1.0, 2.0, 3.0]
        values_b = [10.0, 20.0]
        for v in values_a:
            a.observe(v, rng, 32)
            pooled.observe(v, rng, 32)
        for v in values_b:
            b.observe(v, rng, 32)
            pooled.observe(v, rng, 32)
        a.merge(b, rng, 32)
        assert a.count == pooled.count
        assert a.mean == pytest.approx(pooled.mean)
        assert a.variance == pytest.approx(pooled.variance)
        assert a.minimum == pooled.minimum
        assert a.maximum == pooled.maximum

    def test_merge_empty(self):
        import random

        rng = random.Random(0)
        a, b = BinStats(), BinStats()
        a.merge(b, rng, 32)
        assert a.count == 0
        b.observe(5.0, rng, 32)
        a.merge(b, rng, 32)
        assert a.count == 1
        assert a.mean == 5.0

    def test_empty_quantile(self):
        assert BinStats().median is None
        assert BinStats().variance == 0.0


class TestPrimitive:
    def test_binning(self):
        primitive = make_primitive(bin_seconds=10.0)
        for t in (0.0, 5.0, 9.9, 10.0, 19.9, 20.0):
            primitive.ingest(1.0, t)
        bins = primitive.bins()
        assert list(bins.keys()) == [0.0, 10.0, 20.0]
        assert bins[0.0].count == 3
        assert bins[10.0].count == 2
        assert bins[20.0].count == 1

    def test_series_query(self):
        primitive = make_primitive(bin_seconds=1.0)
        for t in range(5):
            primitive.ingest(float(t * 10), float(t))
        series = primitive.query(QueryRequest("series", {"field": "mean"}))
        assert series == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0), (3.0, 30.0),
                          (4.0, 40.0)]

    def test_series_window(self):
        primitive = make_primitive(bin_seconds=1.0)
        for t in range(10):
            primitive.ingest(1.0, float(t))
        series = primitive.query(
            QueryRequest("series", {"start": 3.0, "end": 7.0})
        )
        assert [s for s, _ in series] == [3.0, 4.0, 5.0, 6.0]

    def test_stats_aggregate(self):
        primitive = make_primitive(bin_seconds=1.0)
        for t in range(10):
            primitive.ingest(float(t), float(t))
        stats = primitive.query(QueryRequest("stats", {}))
        assert stats.count == 10
        assert stats.mean == pytest.approx(4.5)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            make_primitive().query(QueryRequest("nope", {}))

    def test_invalid_bin_width(self):
        with pytest.raises(GranularityError):
            make_primitive(bin_seconds=0.0)


class TestReadsDoNotWrite:
    """A ``stats`` read merges the window's reservoirs with an RNG drawn
    from the window, never with the primitive's ingest RNG."""

    @staticmethod
    def ingest(primitive, epoch):
        # 80 values per 10 s bin: every reservoir is full, so merging
        # two bins must subsample
        for i in range(400):
            primitive.ingest(float((i * 37 + epoch) % 101), epoch * 50 + i / 8)

    def test_same_query_twice_same_answer(self):
        primitive = TimeBinStatistics(LOC, bin_seconds=10.0, seed=5)
        self.ingest(primitive, 0)
        request = QueryRequest("stats", {"start": 0.0, "end": 50.0})
        first = primitive.query(request)
        second = primitive.query(request)
        assert first.reservoir == second.reservoir
        assert first == second

    def test_ingest_after_a_query_matches_a_run_without_it(self):
        asked = TimeBinStatistics(LOC, bin_seconds=10.0, seed=5)
        silent = TimeBinStatistics(LOC, bin_seconds=10.0, seed=5)
        for primitive in (asked, silent):
            self.ingest(primitive, 0)
        asked.query(QueryRequest("stats", {}))
        for primitive in (asked, silent):
            self.ingest(primitive, 1)
        assert asked.summary().payload == silent.summary().payload


class TestGranularity:
    def test_rebin_to_multiple(self):
        primitive = make_primitive(bin_seconds=1.0)
        for t in range(60):
            primitive.ingest(1.0, float(t))
        primitive.set_granularity(10.0)
        bins = primitive.bins()
        assert len(bins) == 6
        assert all(stats.count == 10 for stats in bins.values())

    def test_rebin_preserves_total(self):
        primitive = make_primitive(bin_seconds=1.0)
        for t in range(100):
            primitive.ingest(float(t), float(t))
        total_before = primitive.query(QueryRequest("stats", {})).total
        primitive.set_granularity(7.0)  # ragged multiple still integer
        assert primitive.query(QueryRequest("stats", {})).total == (
            pytest.approx(total_before)
        )

    def test_non_multiple_rejected(self):
        primitive = make_primitive(bin_seconds=2.0)
        primitive.ingest(1.0, 0.0)
        with pytest.raises(GranularityError):
            primitive.set_granularity(3.0)
        with pytest.raises(GranularityError):
            primitive.set_granularity(1.0)  # cannot sharpen

    def test_adapt_widens_under_pressure(self):
        primitive = make_primitive(bin_seconds=1.0)
        primitive.ingest(1.0, 0.0)
        primitive.adapt(AdaptationFeedback(storage_pressure=0.9))
        assert primitive.bin_seconds == 2.0

    def test_adapt_follows_queries(self):
        primitive = make_primitive(bin_seconds=1.0)
        primitive.ingest(1.0, 0.0)
        primitive.adapt(AdaptationFeedback(requested_granularity=60.0))
        assert primitive.bin_seconds == 60.0


class TestCombine:
    def test_combine_same_width(self):
        a = make_primitive(bin_seconds=1.0)
        b = make_primitive(bin_seconds=1.0, seed=2)
        for t in range(5):
            a.ingest(1.0, float(t))
            b.ingest(3.0, float(t))
        a.combine(b)
        bins = a.bins()
        assert all(stats.count == 2 for stats in bins.values())
        assert all(stats.mean == 2.0 for stats in bins.values())

    def test_combine_mixed_width_coarsens(self):
        a = make_primitive(bin_seconds=1.0)
        b = make_primitive(bin_seconds=10.0, seed=2)
        for t in range(20):
            a.ingest(1.0, float(t))
            b.ingest(1.0, float(t))
        a.combine(b)
        assert a.bin_seconds == 10.0
        assert sum(s.count for s in a.bins().values()) == 40

    def test_epoch_reset(self):
        primitive = make_primitive()
        primitive.ingest(1.0, 0.5)
        summary = primitive.reset_epoch()
        assert summary.kind == "timebin"
        assert summary.attrs["bin_seconds"] == 1.0
        assert primitive.bins() == {}
