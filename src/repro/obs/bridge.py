"""Wires a :class:`HierarchyRuntime` into a metrics registry.

:func:`install_runtime_metrics` registers every metric family the
``repro metrics`` exposition promises and one *collector* that syncs
the sourced families — per-level volume from
:class:`~repro.runtime.stats.VolumeStats`, per-link traffic from the
fabric, cache hit/miss counts, pending-export depth, and per-store
ingest totals — from their authoritative in-process counters at
collection time.  Nothing here runs on the hot path: the sync happens
only when somebody asks for the exposition/snapshot, which is how the
instrumented runtime stays within the <5% overhead budget while the
exposition can never drift from the numbers the tests pin.

Only the latency histograms (rollup, ingest, query) are event-fed from
the instrumented call sites, because a latency distribution cannot be
reconstructed from totals after the fact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import COUNTER
from repro.obs.observability import Observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import HierarchyRuntime

#: Event-fed histogram family names (referenced by the call sites).
ROLLUP_SECONDS = "repro_rollup_seconds"
INGEST_SECONDS = "repro_ingest_seconds"
QUERY_SECONDS = "repro_query_seconds"

#: one family per ``storage_stats()`` key: (key, is a counter, help)
_STORAGE_FAMILIES = (
    ("records", False, "Summary records held by the storage engine"),
    ("segments", False, "Sealed segments the storage engine currently lists"),
    ("segment_bytes", False,
     "On-disk bytes across the engine's sealed segments"),
    ("manifest_writes", True,
     "Manifest checkpoints committed by the storage engine"),
    ("compactions", True, "Segment compactions run by the storage engine"),
    ("reclaimed_bytes", True, "Bytes reclaimed by segment compactions"),
    ("restarts", True, "Store/runtime kill+recover drills executed"),
    ("recoveries", True,
     "Full recoveries (open-from-manifest or whole-runtime restart)"),
    ("recovered_records", True,
     "FlowDB records re-indexed from the engine during recoveries"),
    ("not_durable", False,
     "Parked exports and replicas the last checkpoint could not encode"),
)


def install_runtime_metrics(
    obs: Observability, runtime: "HierarchyRuntime"
) -> None:
    """Register the runtime's metric families and their collector."""
    if not obs.enabled:
        return
    registry = obs.registry

    # -- per-level volume (sourced from VolumeStats) --------------------------
    raw_bytes = registry.counter(
        "repro_raw_bytes_total",
        "Raw bytes ingested at each hierarchy level",
        ("level",),
    )
    raw_items = registry.counter(
        "repro_raw_items_total",
        "Raw records ingested at each hierarchy level",
        ("level",),
    )
    summary_bytes = registry.counter(
        "repro_summary_bytes_total",
        "Summary bytes entering (in) and leaving (out) each level",
        ("level", "direction"),
    )
    exports = registry.counter(
        "repro_exports_total",
        "Summary exports by outcome: delivered, parked, recovered",
        ("level", "outcome"),
    )
    transfer_attempts = registry.counter(
        "repro_transfer_attempts_total",
        "Rollup transfer attempts per level (including retries)",
        ("level",),
    )
    transfer_failures = registry.counter(
        "repro_transfer_failures_total",
        "Rollup transfer attempts refused by the fault plan",
        ("level",),
    )
    retried_bytes = registry.counter(
        "repro_retried_bytes_total",
        "Bytes re-sent in retry/redelivery attempts per level",
        ("level",),
    )
    queries_served = registry.counter(
        "repro_queries_served_total",
        "Federated queries answered (at least partially) per level",
        ("level",),
    )
    query_bytes = registry.counter(
        "repro_query_bytes_total",
        "Partial-result bytes shipped to the query plane per level",
        ("level",),
    )

    # -- runtime-wide accounting ----------------------------------------------
    epochs_closed = registry.counter(
        "repro_epochs_closed_total", "Epoch closes completed"
    )
    flowdb_bytes = registry.counter(
        "repro_flowdb_exported_bytes_total",
        "Summary bytes delivered into FlowDB at the root",
    )
    flowdb_summaries = registry.counter(
        "repro_flowdb_exported_summaries_total",
        "Summaries delivered into FlowDB at the root",
    )
    queries_total = registry.counter(
        "repro_queries_total",
        "FlowQL queries by route (cloud, federated, cached, degraded)",
        ("route",),
    )

    # -- fabric links (sourced from Link fields) ------------------------------
    fabric_carried = registry.counter(
        "repro_fabric_carried_bytes_total",
        "Bytes delivered across each fabric link",
        ("link",),
    )
    fabric_wasted = registry.counter(
        "repro_fabric_wasted_bytes_total",
        "Bytes burned by failed transfer attempts on each link",
        ("link",),
    )
    fabric_attempts = registry.counter(
        "repro_fabric_hop_attempts_total",
        "Hop traversals attempted on each link",
        ("link",),
    )
    fabric_failures = registry.counter(
        "repro_fabric_hop_failures_total",
        "Hop traversals refused by the fault plan on each link",
        ("link",),
    )

    # -- query cache (sourced from QueryCache counters) -----------------------
    cache_events = registry.counter(
        "repro_query_cache_events_total",
        "Query cache lookups by result (hit, miss)",
        ("result",),
    )
    cache_entries = registry.gauge(
        "repro_query_cache_entries", "Live entries in the query cache"
    )
    memo_events = registry.counter(
        "repro_query_memo_events_total",
        "Query memo lookups by result (hit, miss: parsed, replan: "
        "planned again after a close or reconfiguration)",
        ("result",),
    )

    # -- pending exports (sourced from the park queues) -----------------------
    pending = registry.gauge(
        "repro_exports_pending",
        "Parked exports awaiting redelivery, by origin site",
        ("site",),
    )
    pending_bytes = registry.gauge(
        "repro_exports_pending_bytes",
        "Bytes parked awaiting redelivery, by origin site",
        ("site",),
    )

    # -- per-store ingest (sourced from DataStore.ingest_stats) ---------------
    store_items = registry.counter(
        "repro_store_ingest_items_total",
        "Items ingested into each store",
        ("site",),
    )
    store_bytes = registry.counter(
        "repro_store_ingest_bytes_total",
        "Bytes ingested into each store",
        ("site",),
    )

    # -- elastic topology (sourced from the TopologyModel) --------------------
    topology_generation = registry.gauge(
        "repro_topology_generation",
        "Live topology generation (bumped by every reconfiguration)",
    )
    reconfig_ops = registry.counter(
        "repro_reconfig_total",
        "Live reconfiguration ops applied, by op",
        ("op",),
    )
    reconfig_migrated = registry.counter(
        "repro_reconfig_migrated_bytes_total",
        "Summary and partition bytes migrated by reconfiguration ops",
    )
    reconfig_pending = registry.gauge(
        "repro_reconfig_pending_migrations",
        "Migration summaries parked on pending queues awaiting redelivery",
    )

    # -- storage engine / durability (sourced from storage_stats()) -----------
    storage = {
        key: (
            registry.counter(f"repro_storage_{key}_total", text)
            if is_counter
            else registry.gauge(f"repro_storage_{key}", text)
        )
        for key, is_counter, text in _STORAGE_FAMILIES
    }

    # -- event-fed latency histograms (observed at the call sites) ------------
    registry.histogram(
        ROLLUP_SECONDS,
        "Wall-clock seconds one epoch close spent per level",
        ("level",),
    )
    registry.histogram(
        INGEST_SECONDS,
        "Wall-clock seconds per raw ingest batch, by level",
        ("level",),
    )
    registry.histogram(
        QUERY_SECONDS,
        "Wall-clock seconds per planner query, by route",
        ("route",),
    )

    def collect() -> None:
        stats = runtime.stats
        for volume in stats.levels():
            level = volume.level
            raw_bytes.labels(level=level).set_from_source(volume.raw_bytes)
            raw_items.labels(level=level).set_from_source(volume.raw_items)
            summary_bytes.labels(
                level=level, direction="in"
            ).set_from_source(volume.summary_bytes_in)
            summary_bytes.labels(
                level=level, direction="out"
            ).set_from_source(volume.summary_bytes_out)
            exports.labels(
                level=level, outcome="delivered"
            ).set_from_source(volume.exports)
            exports.labels(level=level, outcome="parked").set_from_source(
                volume.exports_parked
            )
            exports.labels(
                level=level, outcome="recovered"
            ).set_from_source(volume.exports_recovered)
            transfer_attempts.labels(level=level).set_from_source(
                volume.transfer_attempts
            )
            transfer_failures.labels(level=level).set_from_source(
                volume.transfer_failures
            )
            retried_bytes.labels(level=level).set_from_source(
                volume.retried_bytes
            )
            queries_served.labels(level=level).set_from_source(
                volume.queries_served
            )
            query_bytes.labels(level=level).set_from_source(
                volume.query_bytes_out
            )
        epochs_closed.labels().set_from_source(stats.epochs_closed)
        flowdb_bytes.labels().set_from_source(stats.exported_bytes)
        flowdb_summaries.labels().set_from_source(stats.exported_summaries)
        queries_total.labels(route="cloud").set_from_source(
            stats.queries_cloud
        )
        queries_total.labels(route="federated").set_from_source(
            stats.queries_federated
        )
        queries_total.labels(route="cached").set_from_source(
            stats.queries_cached
        )
        queries_total.labels(route="degraded").set_from_source(
            stats.queries_degraded
        )
        for link in runtime.fabric.links():
            name = f"{link.upper.path}|{link.lower.path}"
            fabric_carried.labels(link=name).set_from_source(
                link.bytes_carried
            )
            fabric_wasted.labels(link=name).set_from_source(
                link.wasted_bytes
            )
            fabric_attempts.labels(link=name).set_from_source(link.attempts)
            fabric_failures.labels(link=name).set_from_source(link.failures)
        cache = runtime.planner.cache
        cache_events.labels(result="hit").set_from_source(cache.hits)
        cache_events.labels(result="miss").set_from_source(cache.misses)
        cache_entries.labels().set(len(cache))
        memo = runtime.planner.memo
        memo_events.labels(result="hit").set_from_source(memo.hits)
        memo_events.labels(result="miss").set_from_source(memo.misses)
        memo_events.labels(result="replan").set_from_source(memo.replans)
        for path, queue in runtime.exports.queues.items():
            site = runtime._labels.get(path, path)
            pending.labels(site=site).set(len(queue))
            pending_bytes.labels(site=site).set(queue.pending_bytes)
        for store in runtime.stores():
            site = runtime._labels[store.location.path]
            store_items.labels(site=site).set_from_source(
                store.ingest_stats.items
            )
            store_bytes.labels(site=site).set_from_source(
                store.ingest_stats.bytes
            )
        model = getattr(runtime, "model", None)
        if model is not None:
            topology_generation.labels().set(model.generation)
            for op, count in model.ledger.op_counts.items():
                reconfig_ops.labels(op=op).set_from_source(count)
            reconfig_migrated.labels().set_from_source(
                model.ledger.migrated_bytes
            )
            reconfig_pending.labels().set(len(model.ledger.pending))
        storage_stats = runtime.storage_stats()
        for key, family in storage.items():
            series = family.labels()
            if family.kind == COUNTER:
                series.set_from_source(storage_stats[key])
            else:
                series.set(storage_stats[key])

    registry.add_collector(collect)
