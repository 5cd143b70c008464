"""The observability layer: metrics registry, tracer, exposition.

The obs subsystem is the telemetry half of the paper's Fig. 3 adaptive
cycle, under two contracts these tests pin: **zero behavioral
footprint** (instrumented and uninstrumented runs produce bit-identical
volume/WAN/export numbers) and **one source of truth** (the Prometheus
exposition is synced from ``VolumeStats``/fabric/cache counters at
collection time, so it can never drift from the numbers the rest of
the suite asserts on).
"""

import json

import pytest

from repro.errors import PlacementError
from repro.faults import FaultPlan, LinkOutage
from repro.obs import (
    NULL_SPAN,
    Family,
    MetricsRegistry,
    Observability,
    Tracer,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM
from repro.runtime.presets import network_4level_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

ROUTER1 = "network1/region1/router1"


def build_runtime(observability=None):
    return network_4level_runtime(
        networks=1,
        regions_per_network=2,
        routers_per_region=1,
        retain_partitions=True,
        observability=observability,
    )


def drive(runtime, epochs=2, flows_per_epoch=80, seed=11,
          recovery_closes=8):
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows_per_epoch),
        seed=seed,
    )
    for epoch in range(epochs):
        for site in sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * 60.0)
    closes = epochs
    while runtime.pending_exports() and closes < epochs + recovery_closes:
        closes += 1
        runtime.close_epoch(closes * 60.0)
    return runtime


def row(name, kind=COUNTER, labels=(), read=None, **extra):
    """One family-table row: sourced when it has a ``read``."""
    return Family(name, kind, labels, read, "help", **extra)


class TestMetricsRegistry:
    def test_labeled_series_materialize_per_combination(self):
        registry = MetricsRegistry()
        registry.install(
            [row("c_total", labels=("level",), read=lambda c: c.items())],
            {("router",): 5, ("region",): 7},
        )
        registry.collect()
        family = registry.get("c_total")
        assert family.labels(level="router").value == 5
        assert len(family.series()) == 2
        with pytest.raises(PlacementError):
            family.labels(wrong="router")

    def test_reregistration_idempotent_but_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.install([row("c_total", labels=("a",))], None)
        first = registry.get("c_total")
        registry.install([row("c_total", labels=("a",))], None)
        assert registry.get("c_total") is first
        with pytest.raises(PlacementError):
            registry.install([row("c_total", GAUGE, ("a",))], None)
        with pytest.raises(PlacementError):
            registry.install([row("c_total", labels=("b",))], None)

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(PlacementError):
            registry.install([row("bad name")], None)
        with pytest.raises(PlacementError):
            registry.install([row("ok_total", labels=("bad-label",))], None)

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.install(
            [row("h_seconds", HISTOGRAM, buckets=(0.1, 1.0))], None
        )
        histogram = registry.get("h_seconds").labels()
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (0.1, 1), (1.0, 2), (float("inf"), 3)
        ]
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)

    def test_collectors_run_at_collection_time(self):
        registry = MetricsRegistry()
        source = {"value": 0}
        registry.install(
            [row("g", GAUGE, read=lambda c: [((), c["value"])])], source
        )
        source["value"] = 41
        registry.collect()
        assert registry.get("g").labels().value == 41

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.install([row("h_seconds", HISTOGRAM)], None)
        registry.get("h_seconds").labels().observe(0.2)
        snapshot = registry.snapshot()
        text = json.dumps(snapshot)  # must not need allow_nan tricks
        buckets = snapshot["h_seconds"]["series"][0]["buckets"]
        assert buckets[-1]["le"] == "+Inf"
        assert "Infinity" not in text


class TestTracer:
    def test_span_trees_nest_and_finish(self):
        tracer = Tracer()
        with tracer.span("root", epoch=1):
            with tracer.span("child", site="a"):
                pass
            with tracer.span("child", site="b") as span:
                span.fail("link-down")
        root = tracer.last("root")
        assert [child.name for child in root.children] == ["child", "child"]
        failed = [s for s in root.find("child") if s.status == "error"]
        assert [s.error for s in failed] == ["link-down"]
        assert root.duration_s >= 0

    def test_exception_marks_span_failed_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("root"):
                raise ValueError("boom")
        root = tracer.last("root")
        assert root.status == "error"
        assert "boom" in root.error

    def test_disabled_tracer_hands_out_null_span(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything") as span:
            span.set_attr("k", "v")  # all no-ops
            span.fail("ignored")
        assert span is NULL_SPAN
        assert tracer.traces() == []

    def test_finished_roots_are_bounded(self):
        tracer = Tracer(max_traces=2)
        for index in range(5):
            with tracer.span("op", n=index):
                pass
        roots = tracer.traces("op")
        assert [root.attrs["n"] for root in roots] == [3, 4]

    def test_to_dict_and_render(self):
        tracer = Tracer()
        with tracer.span("root", site="a"):
            with tracer.span("child") as span:
                span.fail("drop")
        node = tracer.last("root").to_dict()
        assert node["children"][0]["error"] == "drop"
        rendered = tracer.last("root").render()
        assert "root" in rendered and "!drop" in rendered


class TestExposition:
    def test_round_trip_with_label_escaping(self):
        registry = MetricsRegistry()
        registry.install(
            [row("c_total", labels=("path",), read=lambda c: c)],
            [(('we"ird\\label',), 3)],
        )
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed[
            ("c_total", frozenset({("path", 'we"ird\\label')}))
        ] == 3

    def test_help_and_type_lines_present(self):
        registry = MetricsRegistry()
        registry.install(
            [Family("g", GAUGE, (), lambda c: [((), c)], "live entries")], 2
        )
        text = render_prometheus(registry)
        assert "# HELP g live entries" in text
        assert "# TYPE g gauge" in text
        assert "g 2" in text.splitlines()


class TestRuntimeInstrumentation:
    def test_exposition_in_lockstep_with_volume_stats(self):
        runtime = drive(build_runtime())
        runtime.query("SELECT TOTAL FROM ALL")
        parsed = parse_prometheus(
            render_prometheus(runtime.obs.registry)
        )

        def total(name):
            return sum(
                value for (n, _), value in parsed.items() if n == name
            )

        assert total("repro_raw_bytes_total") == runtime.stats.raw_bytes
        assert total("repro_raw_items_total") == runtime.stats.raw_records
        assert (
            total("repro_fabric_carried_bytes_total")
            == runtime.fabric.total_bytes()
        )
        assert (
            total("repro_flowdb_exported_bytes_total")
            == runtime.stats.exported_bytes
        )
        cache = runtime.planner.cache
        assert parsed[
            ("repro_query_cache_events_total", frozenset({("result", "hit")}))
        ] == cache.hits
        assert parsed[
            ("repro_query_cache_events_total", frozenset({("result", "miss")}))
        ] == cache.misses

    def test_latency_histograms_observe_rollups_and_queries(self):
        runtime = drive(build_runtime())
        runtime.query("SELECT TOTAL FROM ALL")
        runtime.query("SELECT TOTAL FROM ALL")  # cache hit
        parsed = parse_prometheus(
            render_prometheus(runtime.obs.registry)
        )
        rollups = sum(
            value
            for (name, _), value in parsed.items()
            if name == "repro_rollup_seconds_count"
        )
        # one observation per store per close:
        # (2 routers + 2 regions + 1 network) x 2 closes
        assert rollups == 10
        assert parsed[
            ("repro_query_seconds_count", frozenset({("route", "cloud")}))
        ] == 1
        assert parsed[
            ("repro_query_seconds_count", frozenset({("route", "cached")}))
        ] == 1

    def test_parked_and_recovered_round_trip(self):
        runtime = build_runtime()
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        drive(runtime)
        stats = runtime.stats
        assert stats.exports_parked >= 1
        assert stats.exports_recovered == stats.exports_parked
        parsed = parse_prometheus(
            render_prometheus(runtime.obs.registry)
        )
        parked = sum(
            value
            for (name, labels), value in parsed.items()
            if name == "repro_exports_total"
            and ("outcome", "parked") in labels
        )
        recovered = sum(
            value
            for (name, labels), value in parsed.items()
            if name == "repro_exports_total"
            and ("outcome", "recovered") in labels
        )
        assert parked == stats.exports_parked
        assert recovered == stats.exports_recovered

    def test_failed_attempt_spans_carry_transfer_error_reason(self):
        runtime = build_runtime()
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        drive(runtime, recovery_closes=0)
        failed = [
            span
            for root in runtime.obs.tracer.traces("close_epoch")
            for span in root.find("attempt")
            if span.status == "error"
        ]
        assert failed, "the outage must produce failed attempt spans"
        assert all(span.error == "outage" for span in failed)
        # the failed attempts sit under the parked forward of router1
        parked_forwards = [
            span
            for root in runtime.obs.tracer.traces("close_epoch")
            for span in root.find("forward")
            if span.attrs.get("outcome") == "parked"
        ]
        assert parked_forwards
        assert any(span.find("attempt") for span in parked_forwards)

    def test_redelivery_spans_record_recovery(self):
        runtime = build_runtime()
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        drive(runtime)
        redeliveries = [
            span
            for root in runtime.obs.tracer.traces("close_epoch")
            for span in root.find("redeliver")
        ]
        assert any(
            span.attrs.get("outcome") == "recovered"
            for span in redeliveries
        )

    def test_query_spans_carry_route_and_cache_verdict(self):
        runtime = drive(build_runtime())
        runtime.query("SELECT TOTAL FROM ALL")
        runtime.query("SELECT TOTAL FROM ALL")
        roots = runtime.obs.tracer.traces("query")
        assert [root.attrs["cache_hit"] for root in roots] == [False, True]
        assert roots[0].attrs["route"] == "cloud"
        drill = runtime.query(f"SELECT TOTAL FROM ALL AT {ROUTER1}")
        assert drill.plan.route == "federated"
        federated = runtime.obs.tracer.last("query")
        fetches = federated.find("fetch")
        assert fetches and all(
            "shipped_bytes" in span.attrs for span in fetches
        )

    def test_disabled_observability_identical_behavior(self):
        instrumented = drive(build_runtime())
        disabled = drive(build_runtime(Observability.disabled()))
        assert disabled.wan_bytes() == instrumented.wan_bytes()
        assert disabled.stats.raw_bytes == instrumented.stats.raw_bytes
        assert (
            disabled.stats.exported_bytes
            == instrumented.stats.exported_bytes
        )
        assert disabled.obs.tracer.traces() == []
        # the disabled registry has no collectors and stays empty
        assert disabled.obs.registry.collect() == []
