"""Tests for the analytics toolset."""

import pytest

from repro.analytics.inference import (
    CusumDetector,
    EwmaAnomalyDetector,
    LinearTrend,
    time_to_threshold,
)


class TestInference:
    def test_ewma_flags_spike(self):
        detector = EwmaAnomalyDetector(alpha=0.1, z_threshold=4.0, warmup=10)
        import random

        rng = random.Random(0)
        for i in range(100):
            assert not detector.observe(10.0 + rng.gauss(0, 0.5), float(i))
        assert detector.observe(50.0, 100.0)
        assert len(detector.anomalies) == 1

    def test_ewma_baseline_not_polluted_by_anomaly(self):
        detector = EwmaAnomalyDetector(alpha=0.5, z_threshold=3.0, warmup=5)
        import random

        rng = random.Random(1)
        for i in range(50):
            detector.observe(10.0 + rng.gauss(0, 0.1), float(i))
        mean_before = detector.mean
        detector.observe(1000.0, 50.0)
        assert detector.mean == mean_before

    def test_cusum_detects_shift(self):
        detector = CusumDetector(target=10.0, slack=0.5, threshold=5.0)
        changes = [detector.observe(10.0, float(i)) for i in range(20)]
        assert not any(changes)
        for i in range(20):
            result = detector.observe(12.0, 20.0 + i)
            if result == "up":
                break
        else:
            pytest.fail("CUSUM never detected the upward shift")

    def test_cusum_direction(self):
        detector = CusumDetector(target=10.0, slack=0.1, threshold=3.0)
        for i in range(30):
            result = detector.observe(8.0, float(i))
            if result:
                assert result == "down"
                return
        pytest.fail("no detection")

    def test_cusum_validation(self):
        with pytest.raises(ValueError):
            CusumDetector(0, -1, 1)
        with pytest.raises(ValueError):
            CusumDetector(0, 0, 0)

    def test_linear_trend_exact_fit(self):
        points = [(t, 2.0 * t + 1.0) for t in range(10)]
        trend = LinearTrend.fit(points)
        assert trend.slope == pytest.approx(2.0)
        assert trend.intercept == pytest.approx(1.0)
        assert trend.r_squared == pytest.approx(1.0)
        assert trend.value_at(100.0) == pytest.approx(201.0)

    def test_trend_needs_two_points(self):
        with pytest.raises(ValueError):
            LinearTrend.fit([(0.0, 1.0)])

    def test_trend_degenerate_time(self):
        trend = LinearTrend.fit([(1.0, 5.0), (1.0, 7.0)])
        assert trend.slope == 0.0
        assert trend.intercept == 6.0

    def test_time_to_threshold(self):
        trend = LinearTrend(slope=2.0, intercept=0.0, r_squared=1.0)
        assert time_to_threshold(trend, current_time=0.0, threshold=10.0) == (
            pytest.approx(5.0)
        )

    def test_time_to_threshold_already_crossed(self):
        trend = LinearTrend(slope=1.0, intercept=100.0, r_squared=1.0)
        assert time_to_threshold(trend, 0.0, 50.0) == 0.0

    def test_time_to_threshold_receding(self):
        trend = LinearTrend(slope=-1.0, intercept=0.0, r_squared=1.0)
        assert time_to_threshold(trend, 0.0, 50.0) is None
