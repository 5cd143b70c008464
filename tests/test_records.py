"""Unit tests for scores and flow/packet records."""

import pytest

from repro.flows.records import FlowRecord, PacketRecord, Score


class TestScore:
    def test_addition(self):
        assert Score(1, 2, 3) + Score(4, 5, 6) == Score(5, 7, 9)

    def test_subtraction_and_negation(self):
        assert Score(5, 7, 9) - Score(4, 5, 6) == Score(1, 2, 3)
        assert -Score(1, 2, 3) == Score(-1, -2, -3)

    def test_zero_identity(self):
        s = Score(3, 4, 5)
        assert s + Score.zero() == s
        assert Score.zero().is_zero()
        assert not s.is_zero()

    def test_scale(self):
        assert Score(1, 100, 1).scale(10) == Score(10, 1000, 10)
        assert Score(3, 3, 3).scale(0.5) == Score(2, 2, 2)  # bankers' round

    def test_metric_lookup(self):
        s = Score(1, 2, 3)
        assert s.metric("packets") == 1
        assert s.metric("bytes") == 2
        assert s.metric("flows") == 3
        with pytest.raises(ValueError):
            s.metric("nope")


class TestFlowRecord:
    def test_score(self, make_key):
        record = FlowRecord(
            key=make_key(), packets=10, bytes=1000, first_seen=0.0,
            last_seen=5.0,
        )
        assert record.score() == Score(10, 1000, 1)
        assert record.duration == 5.0

    def test_rejects_negative_duration(self, make_key):
        with pytest.raises(ValueError):
            FlowRecord(
                key=make_key(), packets=1, bytes=1, first_seen=5.0,
                last_seen=0.0,
            )


class TestPacketRecord:
    def test_unsampled_score(self, make_key):
        packet = PacketRecord(key=make_key(), bytes=1500, timestamp=1.0)
        assert packet.score() == Score(1, 1500, 0)

    def test_sampled_score_rescales(self, make_key):
        packet = PacketRecord(
            key=make_key(), bytes=100, timestamp=1.0, sampled_1_in=10_000
        )
        score = packet.score()
        assert score.packets == 10_000
        assert score.bytes == 1_000_000
        assert score.flows == 0
