"""Serving-plane metric families over :mod:`repro.obs`.

One :class:`ServeMetrics` per :class:`~repro.serve.plane.ServePlane`
registers the ``repro_serve_*`` families on the runtime's existing
metrics registry, so ``repro metrics`` / the gateway's ``/v1/metrics``
exposition carries the serving plane next to the data plane.  All of
these are event-fed (a latency distribution or a queue-depth peak
cannot be reconstructed from totals), which is why they live at the
serving call sites rather than behind a collector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observability import Observability

REQUESTS_TOTAL = "repro_serve_requests_total"
REQUEST_SECONDS = "repro_serve_request_seconds"
QUEUE_DEPTH = "repro_serve_queue_depth"
QUEUE_PEAK = "repro_serve_queue_peak"
REJECTIONS_TOTAL = "repro_serve_rejections_total"

#: latency buckets tuned for sub-millisecond cached answers up to
#: multi-second degraded fan-outs
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0,
)


class ServeMetrics:
    """Event-fed serving metrics; a no-op shell when obs is disabled."""

    def __init__(self, obs: "Observability") -> None:
        self.enabled = obs.enabled
        if not self.enabled:
            return
        registry = obs.registry
        self.requests = registry.counter(
            REQUESTS_TOTAL,
            "Requests served per node, by outcome "
            "(ok, degraded, error, rejected)",
            ("node", "status"),
        )
        self.latency = registry.histogram(
            REQUEST_SECONDS,
            "End-to-end request latency per serving node",
            ("node",),
            buckets=_LATENCY_BUCKETS,
        )
        self.queue_depth = registry.gauge(
            QUEUE_DEPTH,
            "Live request-queue depth per serving node",
            ("node",),
        )
        self.queue_peak = registry.gauge(
            QUEUE_PEAK,
            "High-water request-queue depth per serving node",
            ("node",),
        )
        self.rejections = registry.counter(
            REJECTIONS_TOTAL,
            "Requests shed, by mechanism (admission, backpressure)",
            ("scope",),
        )

    # -- recording (each guarded so disabled obs costs one branch) ----------

    def request(self, node: str, status: str, seconds: float) -> None:
        if not self.enabled:
            return
        self.requests.labels(node=node, status=status).inc()
        self.latency.labels(node=node).observe(seconds)

    def set_queue_depth(self, node: str, depth: int, peak: int) -> None:
        if not self.enabled:
            return
        self.queue_depth.labels(node=node).set(depth)
        self.queue_peak.labels(node=node).set(peak)

    def rejection(self, scope: str) -> None:
        if not self.enabled:
            return
        self.rejections.labels(scope=scope).inc()
