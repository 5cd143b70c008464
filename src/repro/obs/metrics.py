"""Labeled counters, gauges, and histograms behind one registry.

The model is deliberately Prometheus-shaped: a :class:`MetricFamily`
owns a name, a help string, and a tuple of label names; each distinct
label-value combination materializes one child series on first use.
:class:`MetricsRegistry` holds the families and a list of *collectors*
— callbacks run before every collection that sync sourced families
from authoritative in-process state (``VolumeStats``, fabric links,
the query cache), which is how the exposition stays in lockstep with
the counters the rest of the repository pins.

No external client library is used (the container has none); the
subset implemented here — counter, gauge, cumulative-bucket histogram,
text exposition — is exactly what the adaptive-cycle consumers and the
``repro metrics`` CLI need.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import PlacementError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bounds, tuned for sub-second rollup/query latency.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class Counter:
    """A monotonically increasing series (one label combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add to the counter (amounts must not be negative)."""
        if amount < 0:
            raise PlacementError(
                f"counters only go up; got inc({amount})"
            )
        self.value += amount

    def set_from_source(self, value: float) -> None:
        """Overwrite from authoritative state (collector use only).

        Sourced counter families are synced wholesale from in-process
        accounting at collection time; this bypasses the monotonicity
        guard because the *source* is the monotone quantity.
        """
        self.value = value


class Gauge:
    """A series that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram with a running sum and count.

    An observation lands in the one bucket of the first bound it does
    not exceed (a bisection); reads sum the buckets up, so a hot path
    pays for one bucket, not for every bound.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        #: per-bucket counts, ``+Inf`` last (not cumulative)
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ``+Inf`` last."""
        return list(
            zip(
                self.bounds + (float("inf"),),
                accumulate(self.bucket_counts),
            )
        )


class MetricFamily:
    """One named metric and all of its labeled series."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not _NAME_RE.match(name):
            raise PlacementError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise PlacementError(f"invalid label name {label!r}")
        if kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise PlacementError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets))
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == COUNTER:
            return Counter()
        if self.kind == GAUGE:
            return Gauge()
        return Histogram(self.buckets)

    def labels(self, **labels: str):
        """The child series for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise PlacementError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Every ``(label values, child)`` pair, insertion order."""
        return list(self._children.items())

    def clear(self) -> None:
        """Drop every child series (sourced families re-fill on sync)."""
        self._children.clear()


class MetricsRegistry:
    """All metric families plus the collectors that keep them fresh."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- family registration -------------------------------------------------

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(
                labelnames
            ):
                raise PlacementError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels "
                    f"{list(existing.labelnames)}"
                )
            return existing
        family = MetricFamily(name, help_text, kind, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, help_text, COUNTER, tuple(labelnames))

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, help_text, GAUGE, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family."""
        return self._register(
            name, help_text, HISTOGRAM, tuple(labelnames), buckets
        )

    def get(self, name: str) -> Optional[MetricFamily]:
        """A registered family, or None."""
        return self._families.get(name)

    # -- collection ----------------------------------------------------------

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a sync callback run before every collection."""
        self._collectors.append(collector)

    def collect(self) -> List[MetricFamily]:
        """Sync sourced families, then return every family."""
        for collector in self._collectors:
            collector()
        return list(self._families.values())

    def snapshot(self) -> Dict[str, dict]:
        """A machine-readable (JSON-able) view of every series."""
        snap: Dict[str, dict] = {}
        for family in self.collect():
            series = []
            for labelvalues, child in family.series():
                labels = dict(zip(family.labelnames, labelvalues))
                if isinstance(child, Histogram):
                    series.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                {
                                    "le": (
                                        "+Inf"
                                        if le == float("inf")
                                        else le
                                    ),
                                    "count": count,
                                }
                                for le, count in child.cumulative_buckets()
                            ],
                        }
                    )
                else:
                    series.append(
                        {"labels": labels, "value": child.value}
                    )
            snap[family.name] = {
                "kind": family.kind,
                "help": family.help_text,
                "series": series,
            }
        return snap
