"""Observability: metrics and tracing for the hierarchy runtime.

The paper's per-level control plane (Figure 3) closes an *adaptive
cycle*: a Manager tunes budgets, aggregators, and replication from live
telemetry.  This package is that telemetry made real — a
:class:`MetricsRegistry` of labeled counters, gauges, and histograms
with Prometheus-style text exposition and a JSON snapshot, plus a
lightweight :class:`Tracer` producing span trees for every epoch
rollup and every planner query.

Two design rules keep it honest:

* **Zero behavioral footprint** — instrumentation never changes what
  the runtime does; byte counters, WAN volume, and query answers are
  bit-identical with observability on, off, or absent.
* **One source of truth** — every family is one row of one table
  (:mod:`repro.obs.bridge`).  A counter or gauge reads the count its
  component already keeps (:class:`~repro.runtime.stats.VolumeStats`,
  the fabric's links, the query cache, a node server's statuses, the
  subscription registry) at every collection, so the exposition can
  never drift from the counters the tests and benchmarks pin.  Only
  latency histograms and span trees are event-fed, because they cannot
  be reconstructed after the fact.
"""

from repro.obs.export import parse_prometheus, render_prometheus
from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.observability import Observability
from repro.obs.tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "Span",
    "Tracer",
    "parse_prometheus",
    "render_prometheus",
]
