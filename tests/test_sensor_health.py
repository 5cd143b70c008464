"""Tests for faulty-sensor detection via anomalies + lineage."""

import random


from repro.apps.sensor_health import SensorHealthApp
from repro.control.manager import Manager
from repro.core.summary import LineageLog, Location

LINE = Location("hq/factory1/line1")


def feed_normal(app, sensor_id, count, base=10.0, seed=0, start=0.0):
    rng = random.Random(seed)
    t = start
    for _ in range(count):
        t += 1.0
        app.observe(sensor_id, base + rng.gauss(0, 0.3), t, location=LINE)
    return t


class TestDetection:
    def test_stuck_sensor_flagged(self):
        app = SensorHealthApp(LineageLog(), consecutive_required=5)
        t = feed_normal(app, "s1", 100)
        fault = None
        for i in range(10):
            fault = app.observe("s1", 99.0, t + i, location=LINE) or fault
        assert fault is not None
        assert fault.sensor_id == "s1"
        assert app.faults

    def test_noise_not_flagged(self):
        app = SensorHealthApp(LineageLog(), consecutive_required=5)
        rng = random.Random(1)
        t = feed_normal(app, "s1", 200, seed=2)
        for i in range(200):
            result = app.observe(
                "s1", 10.0 + rng.gauss(0, 0.3), t + i, location=LINE
            )
            assert result is None

    def test_single_glitch_not_flagged(self):
        app = SensorHealthApp(LineageLog(), consecutive_required=5)
        t = feed_normal(app, "s1", 100)
        assert app.observe("s1", 99.0, t + 1, location=LINE) is None
        # back to normal: counter resets
        feed_normal(app, "s1", 20, start=t + 2)
        assert not app.faults

    def test_flagged_once_until_cleared(self):
        app = SensorHealthApp(LineageLog(), consecutive_required=3)
        t = feed_normal(app, "s1", 100)
        for i in range(10):
            app.observe("s1", 99.0, t + i, location=LINE)
        assert len(app.faults) == 1
        app.clear_flag("s1")
        for i in range(10):
            app.observe("s1", 99.0, t + 20 + i, location=LINE)
        assert len(app.faults) == 2


class TestPeerAgreement:
    def test_coherent_physical_event_not_a_fault(self):
        """All sensors on the machine spike together: real event."""
        app = SensorHealthApp(LineageLog(), consecutive_required=3)
        t = 0.0
        for sensor in ("s1", "s2", "s3"):
            t = max(t, feed_normal(app, sensor, 100, seed=hash(sensor) % 100))
        for i in range(10):
            for sensor in ("s1", "s2", "s3"):
                app.observe(sensor, 99.0, t + i, location=LINE)
        assert not app.faults

    def test_lone_dissenter_is_a_fault(self):
        app = SensorHealthApp(LineageLog(), consecutive_required=3)
        t = 0.0
        for sensor in ("s1", "s2", "s3"):
            t = max(t, feed_normal(app, sensor, 100, seed=hash(sensor) % 100))
        for i in range(10):
            app.observe("s1", 99.0, t + i, location=LINE)
            app.observe("s2", 10.0, t + i, location=LINE)
            app.observe("s3", 10.0, t + i, location=LINE)
        assert [fault.sensor_id for fault in app.faults] == ["s1"]


class TestContaminationTrace:
    def test_descendant_summaries_enumerated(self):
        lineage = LineageLog()
        app = SensorHealthApp(lineage, consecutive_required=3)
        app.watch("s1", LINE)
        ingest = lineage.record("ingest", location=LINE, timestamp=0.0)
        aggregate = lineage.record(
            "aggregate", inputs=[ingest.lineage_id], timestamp=60.0
        )
        merged = lineage.record(
            "merge", inputs=[aggregate.lineage_id], timestamp=120.0
        )
        unrelated = lineage.record("ingest", timestamp=0.0)
        app.note_ingest_lineage("s1", ingest.lineage_id)
        t = feed_normal(app, "s1", 100)
        fault = None
        for i in range(10):
            fault = app.observe("s1", 99.0, t + i, location=LINE) or fault
        assert fault is not None
        assert set(fault.contaminated_lineage_ids) == {
            aggregate.lineage_id,
            merged.lineage_id,
        }
        assert unrelated.lineage_id not in fault.contaminated_lineage_ids

    def test_epoch_summary_reports_open_faults(self):
        app = SensorHealthApp(LineageLog(), consecutive_required=3)
        t = feed_normal(app, "s1", 100)
        for i in range(10):
            app.observe("s1", 99.0, t + i, location=LINE)
        reports = app.on_epoch(Manager({}), now=t + 20)
        assert reports
        assert reports[0].body["open_faults"] == ["s1"]
        app.clear_flag("s1")
        # a cleared sensor with no new anomalies reports nothing
        assert app.on_epoch(Manager({}), now=t + 40) == []
