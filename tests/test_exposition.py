"""The serve and subscribe metric families, end to end.

Every counter and gauge of the ``repro metrics`` exposition reads a
count its component keeps (``repro.obs.bridge``); only the latency
histograms are fed at the event.  These tests drive two small runs to
rest — a served run with one answer of every outcome, and a standing
query run with an init, deltas and a rebuild — and compare
``parse_prometheus`` of the exposition with the values the event-fed
families of the earlier design produced on the same runs.  Counters
and histogram counts must match exactly; a gauge the earlier design had
not set yet (a queue that never held a request) may read 0.  One value
is restated: a shed (429) request is counted by status but never timed,
so the served run's ``repro_serve_request_seconds`` counts the three
answers, where the earlier design also counted the shed one as 0.0 s.
"""

from __future__ import annotations

import re
import threading
import time

from repro.client import FlowQLClient
from repro.errors import AdmissionError, FlowQLPlanningError
from repro.obs import parse_prometheus, render_prometheus
from repro.runtime.presets import network_4level_runtime
from repro.serve import ServePlane
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

ROUTER1 = "network1/region1/router1"
#: blocks on the data executor past the deadline: a degraded answer
SLOW = "SELECT TOTAL FROM ALL"
#: fails at the node: an error answer
FAILING = "SELECT TOTAL FROM TIME(0, 60)"
ANSWERED = "SELECT TOPK(3) FROM ALL"


def small_runtime():
    return network_4level_runtime(
        networks=1, regions_per_network=2, routers_per_region=1,
        retain_partitions=True,
    )


def close_epochs(runtime, generator, first, count):
    for epoch in range(first, first + count):
        for site in generator.config.sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * 60.0)


def exposition(runtime):
    """``(# TYPE lines, parsed series)`` of the runtime's registry."""
    text = render_prometheus(runtime.obs.registry)
    types = {line for line in text.splitlines() if line.startswith("# TYPE")}
    return types, parse_prometheus(text)


def served_run():
    """One ok, one degraded, one error answer, one backpressure 429 and
    one admission 429 at the root node, then rest."""
    runtime = small_runtime()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(runtime.ingest_sites()),
                      flows_per_epoch=80), seed=11)
    close_epochs(runtime, generator, 0, 1)
    plane = ServePlane(
        runtime, queue_limit=1, timeout_s=1.0,
        admission_rate_per_s=1e-9, admission_burst=1.0,
    )
    entered, release = threading.Event(), threading.Event()
    real_execute = plane.execute_on_node

    def execute(label, text, trace_id):
        if text == SLOW:
            entered.set()
            release.wait(30)
        elif text == FAILING:
            raise FlowQLPlanningError("refused at the node")
        return real_execute(label, text, trace_id)

    plane.execute_on_node = execute
    root = plane.nodes[plane.root_label]
    results = {}

    def ask(client_id, text):
        with FlowQLClient(endpoint=plane.endpoint,
                          client_id=client_id) as client:
            try:
                answer = client.query(text)
            except Exception as error:  # noqa: BLE001 - kept for asserts
                answer = error
        results.setdefault(client_id, []).append(answer)

    with plane:
        plane.start_background()
        slow = threading.Thread(target=ask, args=("slow", SLOW))
        slow.start()
        assert entered.wait(30)
        failing = threading.Thread(target=ask, args=("failing", FAILING))
        failing.start()
        deadline = time.monotonic() + 30
        while root.queue_depth() < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        ask("shed", ANSWERED)
        slow.join(30)
        release.set()
        failing.join(30)
        assert not slow.is_alive() and not failing.is_alive()
        ask("client", ANSWERED)
        ask("client", ANSWERED)  # its second request: over its budget
    (slow_answer,), (failed,), (shed,) = (
        results["slow"], results["failing"], results["shed"])
    answered, refused = results["client"]
    assert slow_answer.is_degraded
    assert isinstance(failed, FlowQLPlanningError)
    assert isinstance(shed, AdmissionError) and shed.reason == "backpressure"
    assert not answered.is_degraded
    assert isinstance(refused, AdmissionError)
    assert refused.reason == "admission"
    return runtime


def standing_run():
    """Two standing queries: init, two deltas each, then a rebuild."""
    runtime = small_runtime()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(runtime.ingest_sites()),
                      flows_per_epoch=80), seed=11)
    close_epochs(runtime, generator, 0, 1)
    runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
    runtime.subscribe(f"SUBSCRIBE SELECT TOPK(3) FROM ALL AT {ROUTER1}")
    close_epochs(runtime, generator, 1, 2)
    runtime.site_join("network1/region1/router9")
    close_epochs(runtime, generator, 3, 1)
    return runtime


def check(runtime, types, expected_text):
    """Counters, histogram counts and set gauges equal the expected;
    a series the expected lacks is a gauge that reads 0."""
    actual_types, actual = exposition(runtime)
    assert actual_types == set(types.splitlines())
    kinds = {line.split()[2]: line.split()[3] for line in actual_types}
    expected = parse_prometheus(expected_text)
    assert {k: actual.get(k) for k in expected} == expected
    for (name, labels), value in actual.items():
        if (name, labels) in expected or re.search(r"_(bucket|sum)$", name):
            continue
        assert kinds.get(name) == "gauge" and value == 0, (name, labels)


class TestExpositionParity:
    def test_served_run(self):
        runtime = served_run()
        try:
            check(runtime, TYPES + SERVE_TYPES, SERVED)
        finally:
            runtime.shutdown()

    def test_standing_query_run(self):
        runtime = standing_run()
        try:
            check(runtime, TYPES, STANDING)
        finally:
            runtime.shutdown()


#: every family a runtime exposes, and the five a serving plane adds
TYPES = """\
# TYPE repro_epochs_closed_total counter
# TYPE repro_exports_pending gauge
# TYPE repro_exports_pending_bytes gauge
# TYPE repro_exports_total counter
# TYPE repro_fabric_carried_bytes_total counter
# TYPE repro_fabric_hop_attempts_total counter
# TYPE repro_fabric_hop_failures_total counter
# TYPE repro_fabric_wasted_bytes_total counter
# TYPE repro_flowdb_exported_bytes_total counter
# TYPE repro_flowdb_exported_summaries_total counter
# TYPE repro_ingest_seconds histogram
# TYPE repro_queries_served_total counter
# TYPE repro_queries_total counter
# TYPE repro_query_bytes_total counter
# TYPE repro_query_cache_entries gauge
# TYPE repro_query_cache_events_total counter
# TYPE repro_query_memo_events_total counter
# TYPE repro_query_seconds histogram
# TYPE repro_raw_bytes_total counter
# TYPE repro_raw_items_total counter
# TYPE repro_reconfig_migrated_bytes_total counter
# TYPE repro_reconfig_pending_migrations gauge
# TYPE repro_reconfig_total counter
# TYPE repro_retried_bytes_total counter
# TYPE repro_rollup_seconds histogram
# TYPE repro_storage_compactions_total counter
# TYPE repro_storage_manifest_writes_total counter
# TYPE repro_storage_not_durable gauge
# TYPE repro_storage_reclaimed_bytes_total counter
# TYPE repro_storage_records gauge
# TYPE repro_storage_recovered_records_total counter
# TYPE repro_storage_recoveries_total counter
# TYPE repro_storage_restarts_total counter
# TYPE repro_storage_segment_bytes gauge
# TYPE repro_storage_segments gauge
# TYPE repro_store_ingest_bytes_total counter
# TYPE repro_store_ingest_items_total counter
# TYPE repro_subscribe_active gauge
# TYPE repro_subscribe_rebuilds_total counter
# TYPE repro_subscribe_refresh_seconds histogram
# TYPE repro_subscribe_shipped_bytes_total counter
# TYPE repro_subscribe_updates_total counter
# TYPE repro_summary_bytes_total counter
# TYPE repro_topology_generation gauge
# TYPE repro_transfer_attempts_total counter
# TYPE repro_transfer_failures_total counter
"""
SERVE_TYPES = """\
# TYPE repro_serve_queue_depth gauge
# TYPE repro_serve_queue_peak gauge
# TYPE repro_serve_rejections_total counter
# TYPE repro_serve_request_seconds histogram
# TYPE repro_serve_requests_total counter
"""

#: the served run's counters, histogram counts and set gauges
SERVED = """\
repro_epochs_closed_total 1
repro_exports_total{level="network",outcome="delivered"} 1
repro_exports_total{level="network",outcome="parked"} 0
repro_exports_total{level="network",outcome="recovered"} 0
repro_exports_total{level="region",outcome="delivered"} 2
repro_exports_total{level="region",outcome="parked"} 0
repro_exports_total{level="region",outcome="recovered"} 0
repro_exports_total{level="router",outcome="delivered"} 2
repro_exports_total{level="router",outcome="parked"} 0
repro_exports_total{level="router",outcome="recovered"} 0
repro_fabric_carried_bytes_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 38592
repro_fabric_carried_bytes_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 40392
repro_fabric_carried_bytes_total{link="cloud/network1|cloud/network1/region1"} 38592
repro_fabric_carried_bytes_total{link="cloud/network1|cloud/network1/region2"} 40392
repro_fabric_carried_bytes_total{link="cloud|cloud/network1"} 76752
repro_fabric_hop_attempts_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 1
repro_fabric_hop_attempts_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 1
repro_fabric_hop_attempts_total{link="cloud/network1|cloud/network1/region1"} 1
repro_fabric_hop_attempts_total{link="cloud/network1|cloud/network1/region2"} 1
repro_fabric_hop_attempts_total{link="cloud|cloud/network1"} 1
repro_fabric_hop_failures_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 0
repro_fabric_hop_failures_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 0
repro_fabric_hop_failures_total{link="cloud/network1|cloud/network1/region1"} 0
repro_fabric_hop_failures_total{link="cloud/network1|cloud/network1/region2"} 0
repro_fabric_hop_failures_total{link="cloud|cloud/network1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1|cloud/network1/region1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1|cloud/network1/region2"} 0
repro_fabric_wasted_bytes_total{link="cloud|cloud/network1"} 0
repro_flowdb_exported_bytes_total 76752
repro_flowdb_exported_summaries_total 1
repro_ingest_seconds_count{level="router"} 2
repro_queries_served_total{level="network"} 0
repro_queries_served_total{level="region"} 0
repro_queries_served_total{level="router"} 0
repro_queries_total{route="cached"} 0
repro_queries_total{route="cloud"} 2
repro_queries_total{route="degraded"} 0
repro_queries_total{route="federated"} 0
repro_query_bytes_total{level="network"} 0
repro_query_bytes_total{level="region"} 0
repro_query_bytes_total{level="router"} 0
repro_query_cache_entries 2
repro_query_cache_events_total{result="hit"} 0
repro_query_cache_events_total{result="miss"} 2
repro_query_memo_events_total{result="hit"} 4
repro_query_memo_events_total{result="miss"} 3
repro_query_memo_events_total{result="replan"} 0
repro_query_seconds_count{route="cloud"} 2
repro_raw_bytes_total{level="network"} 0
repro_raw_bytes_total{level="region"} 0
repro_raw_bytes_total{level="router"} 2747007
repro_raw_items_total{level="network"} 0
repro_raw_items_total{level="region"} 0
repro_raw_items_total{level="router"} 160
repro_reconfig_migrated_bytes_total 0
repro_reconfig_pending_migrations 0
repro_retried_bytes_total{level="network"} 0
repro_retried_bytes_total{level="region"} 0
repro_retried_bytes_total{level="router"} 0
repro_rollup_seconds_count{level="network"} 1
repro_rollup_seconds_count{level="region"} 2
repro_rollup_seconds_count{level="router"} 2
repro_serve_queue_depth{node="cloud"} 0
repro_serve_queue_peak{node="cloud"} 1
repro_serve_rejections_total{scope="admission"} 1
repro_serve_rejections_total{scope="backpressure"} 1
repro_serve_request_seconds_count{node="cloud"} 3
repro_serve_requests_total{node="cloud",status="degraded"} 1
repro_serve_requests_total{node="cloud",status="error"} 1
repro_serve_requests_total{node="cloud",status="ok"} 1
repro_serve_requests_total{node="cloud",status="rejected"} 1
repro_storage_compactions_total 0
repro_storage_manifest_writes_total 1
repro_storage_not_durable 0
repro_storage_reclaimed_bytes_total 0
repro_storage_records 1
repro_storage_recovered_records_total 0
repro_storage_recoveries_total 0
repro_storage_restarts_total 0
repro_storage_segment_bytes 0
repro_storage_segments 0
repro_store_ingest_bytes_total{site="network1"} 0
repro_store_ingest_bytes_total{site="network1/region1"} 0
repro_store_ingest_bytes_total{site="network1/region1/router1"} 3840
repro_store_ingest_bytes_total{site="network1/region2"} 0
repro_store_ingest_bytes_total{site="network1/region2/router1"} 3840
repro_store_ingest_items_total{site="network1"} 0
repro_store_ingest_items_total{site="network1/region1"} 0
repro_store_ingest_items_total{site="network1/region1/router1"} 80
repro_store_ingest_items_total{site="network1/region2"} 0
repro_store_ingest_items_total{site="network1/region2/router1"} 80
repro_summary_bytes_total{direction="in",level="network"} 78984
repro_summary_bytes_total{direction="in",level="region"} 78984
repro_summary_bytes_total{direction="in",level="router"} 0
repro_summary_bytes_total{direction="out",level="network"} 76752
repro_summary_bytes_total{direction="out",level="region"} 78984
repro_summary_bytes_total{direction="out",level="router"} 78984
repro_topology_generation 0
repro_transfer_attempts_total{level="network"} 1
repro_transfer_attempts_total{level="region"} 2
repro_transfer_attempts_total{level="router"} 2
repro_transfer_failures_total{level="network"} 0
repro_transfer_failures_total{level="region"} 0
repro_transfer_failures_total{level="router"} 0
"""

#: the standing-query run's counters, histogram counts and set gauges
STANDING = """\
repro_epochs_closed_total 4
repro_exports_total{level="network",outcome="delivered"} 4
repro_exports_total{level="network",outcome="parked"} 0
repro_exports_total{level="network",outcome="recovered"} 0
repro_exports_total{level="region",outcome="delivered"} 8
repro_exports_total{level="region",outcome="parked"} 0
repro_exports_total{level="region",outcome="recovered"} 0
repro_exports_total{level="router",outcome="delivered"} 8
repro_exports_total{level="router",outcome="parked"} 0
repro_exports_total{level="router",outcome="recovered"} 0
repro_fabric_carried_bytes_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 408096
repro_fabric_carried_bytes_total{link="cloud/network1/region1|cloud/network1/region1/router9"} 0
repro_fabric_carried_bytes_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 157032
repro_fabric_carried_bytes_total{link="cloud/network1|cloud/network1/region1"} 408096
repro_fabric_carried_bytes_total{link="cloud/network1|cloud/network1/region2"} 157032
repro_fabric_carried_bytes_total{link="cloud|cloud/network1"} 556416
repro_fabric_hop_attempts_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 8
repro_fabric_hop_attempts_total{link="cloud/network1/region1|cloud/network1/region1/router9"} 0
repro_fabric_hop_attempts_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 4
repro_fabric_hop_attempts_total{link="cloud/network1|cloud/network1/region1"} 8
repro_fabric_hop_attempts_total{link="cloud/network1|cloud/network1/region2"} 4
repro_fabric_hop_attempts_total{link="cloud|cloud/network1"} 8
repro_fabric_hop_failures_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 0
repro_fabric_hop_failures_total{link="cloud/network1/region1|cloud/network1/region1/router9"} 0
repro_fabric_hop_failures_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 0
repro_fabric_hop_failures_total{link="cloud/network1|cloud/network1/region1"} 0
repro_fabric_hop_failures_total{link="cloud/network1|cloud/network1/region2"} 0
repro_fabric_hop_failures_total{link="cloud|cloud/network1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1/region1|cloud/network1/region1/router1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1/region1|cloud/network1/region1/router9"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1/region2|cloud/network1/region2/router1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1|cloud/network1/region1"} 0
repro_fabric_wasted_bytes_total{link="cloud/network1|cloud/network1/region2"} 0
repro_fabric_wasted_bytes_total{link="cloud|cloud/network1"} 0
repro_flowdb_exported_bytes_total 303408
repro_flowdb_exported_summaries_total 4
repro_ingest_seconds_count{level="router"} 8
repro_queries_served_total{level="network"} 0
repro_queries_served_total{level="region"} 0
repro_queries_served_total{level="router"} 0
repro_queries_total{route="cached"} 0
repro_queries_total{route="cloud"} 0
repro_queries_total{route="degraded"} 0
repro_queries_total{route="federated"} 0
repro_query_bytes_total{level="network"} 0
repro_query_bytes_total{level="region"} 0
repro_query_bytes_total{level="router"} 0
repro_query_cache_entries 0
repro_query_cache_events_total{result="hit"} 0
repro_query_cache_events_total{result="miss"} 0
repro_query_memo_events_total{result="hit"} 0
repro_query_memo_events_total{result="miss"} 2
repro_query_memo_events_total{result="replan"} 0
repro_raw_bytes_total{level="network"} 0
repro_raw_bytes_total{level="region"} 0
repro_raw_bytes_total{level="router"} 10837230
repro_raw_items_total{level="network"} 0
repro_raw_items_total{level="region"} 0
repro_raw_items_total{level="router"} 640
repro_reconfig_migrated_bytes_total 0
repro_reconfig_pending_migrations 0
repro_reconfig_total{op="site_join"} 1
repro_retried_bytes_total{level="network"} 0
repro_retried_bytes_total{level="region"} 0
repro_retried_bytes_total{level="router"} 0
repro_rollup_seconds_count{level="network"} 4
repro_rollup_seconds_count{level="region"} 8
repro_rollup_seconds_count{level="router"} 9
repro_storage_compactions_total 0
repro_storage_manifest_writes_total 4
repro_storage_not_durable 0
repro_storage_reclaimed_bytes_total 0
repro_storage_records 4
repro_storage_recovered_records_total 0
repro_storage_recoveries_total 0
repro_storage_restarts_total 0
repro_storage_segment_bytes 0
repro_storage_segments 0
repro_store_ingest_bytes_total{site="network1"} 0
repro_store_ingest_bytes_total{site="network1/region1"} 0
repro_store_ingest_bytes_total{site="network1/region1/router1"} 15360
repro_store_ingest_bytes_total{site="network1/region1/router9"} 0
repro_store_ingest_bytes_total{site="network1/region2"} 0
repro_store_ingest_bytes_total{site="network1/region2/router1"} 15360
repro_store_ingest_items_total{site="network1"} 0
repro_store_ingest_items_total{site="network1/region1"} 0
repro_store_ingest_items_total{site="network1/region1/router1"} 320
repro_store_ingest_items_total{site="network1/region1/router9"} 0
repro_store_ingest_items_total{site="network1/region2"} 0
repro_store_ingest_items_total{site="network1/region2/router1"} 320
repro_subscribe_active 2
repro_subscribe_rebuilds_total{reason="generation"} 2
repro_subscribe_refresh_seconds_count 8
repro_subscribe_shipped_bytes_total 253008
repro_subscribe_updates_total{mode="delta"} 4
repro_subscribe_updates_total{mode="init"} 2
repro_subscribe_updates_total{mode="rebuild"} 2
repro_summary_bytes_total{direction="in",level="network"} 312120
repro_summary_bytes_total{direction="in",level="region"} 312120
repro_summary_bytes_total{direction="in",level="router"} 0
repro_summary_bytes_total{direction="out",level="network"} 303408
repro_summary_bytes_total{direction="out",level="region"} 312120
repro_summary_bytes_total{direction="out",level="router"} 312120
repro_topology_generation 1
repro_transfer_attempts_total{level="network"} 4
repro_transfer_attempts_total{level="region"} 8
repro_transfer_attempts_total{level="router"} 8
repro_transfer_failures_total{level="network"} 0
repro_transfer_failures_total{level="region"} 0
repro_transfer_failures_total{level="router"} 0
"""
