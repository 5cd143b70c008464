"""The one table of ``repro_*`` metric families.

Every family is one :class:`~repro.obs.metrics.Family` row, declared
here once.  A counter or gauge row reads the census count its component
already keeps; a component installs its rows when it is built (the
runtime's :data:`RUNTIME` at construction, :data:`SERVE` with a
:class:`~repro.serve.plane.ServePlane`) and the registry syncs them at
collection time, so nothing is counted twice or on the hot path.  Only
the five latency histograms are fed at the event, through
:meth:`~repro.obs.observability.Observability.observe`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Tuple

from repro.obs.metrics import COUNTER, GAUGE, HISTOGRAM, Family, Read

#: event-fed histogram family names (referenced by the call sites)
ROLLUP_SECONDS = "repro_rollup_seconds"
INGEST_SECONDS = "repro_ingest_seconds"
QUERY_SECONDS = "repro_query_seconds"
SERVE_REQUEST_SECONDS = "repro_serve_request_seconds"
SUBSCRIBE_REFRESH_SECONDS = "repro_subscribe_refresh_seconds"

Pairs = Iterable[Tuple[Tuple[str, ...], float]]


def _one(path: str, measure: Callable[[Any], float] = lambda v: v) -> Read:
    """An unlabeled family's one series: ``measure`` of a dotted path."""
    get = attrgetter(path)
    return lambda component: [((), measure(get(component)))]


def _split(**paths: str) -> Read:
    """One series per label value, each read from its dotted path."""
    gets = [((label,), attrgetter(path)) for label, path in paths.items()]
    return lambda component: [(values, get(component)) for values, get in gets]


def _keyed(path: str) -> Read:
    """One series per key of the count dict at a dotted path (copied in
    one call: another thread may add a key meanwhile)."""
    get = attrgetter(path)
    return lambda c: [((key,), n) for key, n in list(get(c).items())]


def _counted(pairs: Pairs) -> Pairs:
    """The pairs that counted: a series is born at its first count."""
    return [(values, value) for values, value in pairs if value]


def _levels(*columns) -> Read:
    """``VolumeStats`` per level; a column is a field name, or a
    ``(label value, field name)`` pair for the second label."""
    pairs = [((), c) if isinstance(c, str) else ((c[0],), c[1])
             for c in columns]
    return lambda runtime: [
        ((volume.level,) + extra, getattr(volume, field))
        for volume in runtime.stats.levels() for extra, field in pairs
    ]


def _links(field: str) -> Read:
    return lambda runtime: [
        ((f"{link.upper.path}|{link.lower.path}",), getattr(link, field))
        for link in runtime.fabric.links()
    ]


def _pending(read: Callable[[Any], float]) -> Read:
    return lambda runtime: [
        ((runtime._labels.get(path, path),), read(queue))
        for path, queue in runtime.exports.queues.items()
    ]


def _stores(field: str) -> Read:
    return lambda runtime: [
        ((runtime._labels[store.location.path],),
         getattr(store.ingest_stats, field)) for store in runtime.stores()
    ]


def _storage(name: str, text: str) -> Family:
    """One ``storage_stats()`` key's family (a counter's ends ``_total``)."""
    key = name.removesuffix("_total")
    return Family(f"repro_storage_{name}", COUNTER if key != name else GAUGE,
                  (), lambda runtime: [((), runtime.storage_stats()[key])],
                  text)


def _nodes(read: Read) -> Read:
    """Per serving node; ``read(node)`` yields its other label values."""
    return lambda plane: [
        ((label,) + values, value)
        for label, node in plane.nodes.items()
        for values, value in read(node)
    ]


RUNTIME: Tuple[Family, ...] = (
    Family("repro_raw_bytes_total", COUNTER, ("level",), _levels(
        "raw_bytes"), "Raw bytes ingested at each hierarchy level"),
    Family("repro_raw_items_total", COUNTER, ("level",), _levels(
        "raw_items"), "Raw records ingested at each hierarchy level"),
    Family("repro_summary_bytes_total", COUNTER, ("level", "direction"),
           _levels(("in", "summary_bytes_in"), ("out", "summary_bytes_out")),
           "Summary bytes entering (in) and leaving (out) each level"),
    Family("repro_exports_total", COUNTER, ("level", "outcome"), _levels(
        ("delivered", "exports"), ("parked", "exports_parked"),
        ("recovered", "exports_recovered")),
        "Summary exports by outcome: delivered, parked, recovered"),
    Family("repro_transfer_attempts_total", COUNTER, ("level",),
           _levels("transfer_attempts"),
           "Rollup transfer attempts per level (including retries)"),
    Family("repro_transfer_failures_total", COUNTER, ("level",),
           _levels("transfer_failures"),
           "Rollup transfer attempts refused by the fault plan"),
    Family("repro_retried_bytes_total", COUNTER, ("level",),
           _levels("retried_bytes"),
           "Bytes re-sent in retry/redelivery attempts per level"),
    Family("repro_queries_served_total", COUNTER, ("level",),
           _levels("queries_served"),
           "Federated queries answered (at least partially) per level"),
    Family("repro_query_bytes_total", COUNTER, ("level",),
           _levels("query_bytes_out"),
           "Partial-result bytes shipped to the query plane per level"),
    Family("repro_epochs_closed_total", COUNTER, (),
           _one("stats.epochs_closed"), "Epoch closes completed"),
    Family("repro_flowdb_exported_bytes_total", COUNTER, (),
           _one("stats.exported_bytes"),
           "Summary bytes delivered into FlowDB at the root"),
    Family("repro_flowdb_exported_summaries_total", COUNTER, (),
           _one("stats.exported_summaries"),
           "Summaries delivered into FlowDB at the root"),
    Family("repro_queries_total", COUNTER, ("route",), _split(**{
        route: f"stats.queries_{route}"
        for route in ("cloud", "federated", "cached", "degraded")
    }), "FlowQL queries by route (cloud, federated, cached, degraded)"),
    Family("repro_fabric_carried_bytes_total", COUNTER, ("link",),
           _links("bytes_carried"), "Bytes delivered across each fabric link"),
    Family("repro_fabric_wasted_bytes_total", COUNTER, ("link",),
           _links("wasted_bytes"),
           "Bytes burned by failed transfer attempts on each link"),
    Family("repro_fabric_hop_attempts_total", COUNTER, ("link",),
           _links("attempts"), "Hop traversals attempted on each link"),
    Family("repro_fabric_hop_failures_total", COUNTER, ("link",),
           _links("failures"),
           "Hop traversals refused by the fault plan on each link"),
    Family("repro_query_cache_events_total", COUNTER, ("result",),
           _split(hit="planner.cache.hits", miss="planner.cache.misses"),
           "Query cache lookups by result (hit, miss)"),
    Family("repro_query_cache_entries", GAUGE, (), _one("planner.cache", len),
           "Live entries in the query cache"),
    Family("repro_query_memo_events_total", COUNTER, ("result",),
           _split(hit="planner.memo.hits", miss="planner.memo.misses",
                  replan="planner.memo.replans"),
           "Query memo lookups by result (hit, miss: parsed, replan: "
           "planned again after a close or reconfiguration)"),
    Family("repro_exports_pending", GAUGE, ("site",), _pending(len),
           "Parked exports awaiting redelivery, by origin site"),
    Family("repro_exports_pending_bytes", GAUGE, ("site",),
           _pending(lambda queue: queue.pending_bytes),
           "Bytes parked awaiting redelivery, by origin site"),
    Family("repro_store_ingest_items_total", COUNTER, ("site",),
           _stores("items"), "Items ingested into each store"),
    Family("repro_store_ingest_bytes_total", COUNTER, ("site",),
           _stores("bytes"), "Bytes ingested into each store"),
    Family("repro_topology_generation", GAUGE, (), _one("model.generation"),
           "Live topology generation (bumped by every reconfiguration)"),
    Family("repro_reconfig_total", COUNTER, ("op",),
           _keyed("model.ledger.op_counts"),
           "Live reconfiguration ops applied, by op"),
    Family("repro_reconfig_migrated_bytes_total", COUNTER, (),
           _one("model.ledger.migrated_bytes"),
           "Summary and partition bytes migrated by reconfiguration ops"),
    Family("repro_reconfig_pending_migrations", GAUGE, (),
           _one("model.ledger.pending", len),
           "Migration summaries parked on pending queues awaiting "
           "redelivery"),
    _storage("records", "Summary records held by the storage engine"),
    _storage("segments",
             "Sealed segments the storage engine currently lists"),
    _storage("segment_bytes",
             "On-disk bytes across the engine's sealed segments"),
    _storage("manifest_writes_total",
             "Manifest checkpoints committed by the storage engine"),
    _storage("compactions_total",
             "Segment compactions run by the storage engine"),
    _storage("reclaimed_bytes_total",
             "Bytes reclaimed by segment compactions"),
    _storage("restarts_total", "Store/runtime kill+recover drills executed"),
    _storage("recoveries_total",
             "Full recoveries (open-from-manifest or whole-runtime restart)"),
    _storage("recovered_records_total",
             "FlowDB records re-indexed from the engine during recoveries"),
    _storage("not_durable",
             "Parked exports and replicas the last checkpoint could not "
             "encode"),
    Family("repro_subscribe_active", GAUGE, (),
           _one("planner.subscriptions", len),
           "Standing queries currently registered"),
    Family("repro_subscribe_updates_total", COUNTER, ("mode",),
           _keyed("planner.subscriptions.updates_by_mode"),
           "Subscription updates published, by mode (init, delta, rebuild)"),
    Family("repro_subscribe_shipped_bytes_total", COUNTER, (),
           lambda runtime: _counted(
               [((), runtime.planner.subscriptions.shipped_bytes_total)]),
           "Fabric bytes moved by subscription refreshes"),
    Family("repro_subscribe_rebuilds_total", COUNTER, ("reason",),
           _keyed("planner.subscriptions.rebuild_reasons"),
           "Full view rebuilds, by reason (generation, entry-prefix, "
           "partition-prefix, replica-served, privacy-guard, degraded, "
           "route-changed)"),
    Family(ROLLUP_SECONDS, HISTOGRAM, ("level",), None,
           "Wall-clock seconds one epoch close spent per level"),
    Family(INGEST_SECONDS, HISTOGRAM, ("level",), None,
           "Wall-clock seconds per raw ingest batch, by level"),
    Family(QUERY_SECONDS, HISTOGRAM, ("route",), None,
           "Wall-clock seconds per planner query, by route"),
    Family(SUBSCRIBE_REFRESH_SECONDS, HISTOGRAM, (), None,
           "Per-subscription refresh latency at each epoch close",
           (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
            0.05, 0.1, 0.25, 0.5, 1.0)),
)

SERVE: Tuple[Family, ...] = (
    Family("repro_serve_requests_total", COUNTER, ("node", "status"),
           _nodes(_keyed("statuses")),
           "Requests served per node, by outcome "
           "(ok, degraded, error, rejected)"),
    Family("repro_serve_queue_depth", GAUGE, ("node",),
           _nodes(lambda node: [((), node.queue_depth())]),
           "Live request-queue depth per serving node"),
    Family("repro_serve_queue_peak", GAUGE, ("node",),
           _nodes(lambda node: [((), node.queue_peak)]),
           "High-water request-queue depth per serving node"),
    Family("repro_serve_rejections_total", COUNTER, ("scope",),
           lambda plane: _counted([
               (("admission",), plane.admission.rejected),
               (("backpressure",), sum(node.backpressure_rejections
                                       for node in plane.nodes.values()))]),
           "Requests shed, by mechanism (admission, backpressure)"),
    Family(SERVE_REQUEST_SECONDS, HISTOGRAM, ("node",), None,
           "End-to-end request latency per serving node",
           (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
            1.0, 2.5, 5.0)),
)
