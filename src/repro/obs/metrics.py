"""Labeled counters, gauges, and histograms behind one registry.

The model is deliberately Prometheus-shaped: a :class:`MetricFamily`
owns a name, a help string, and a tuple of label names; each distinct
label-value combination materializes one child series on first use.
:class:`MetricsRegistry` holds the families and, for each *sourced*
family, the read that syncs it from the count a component already
keeps (``VolumeStats``, fabric links, the query cache, a node server's
statuses): one loop runs every read at collection time, which is how
the exposition stays in lockstep with the counters the rest of the
repository pins.

No external client library is used (the container has none); the
subset implemented here — counter, gauge, cumulative-bucket histogram,
text exposition — is exactly what the adaptive-cycle consumers and the
``repro metrics`` CLI need.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

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
    """A monotonically increasing series (one label combination),
    written only by its family's read at collection time."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0


class Gauge:
    """A series that can go up and down, written only by its family's
    read at collection time."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0


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
        return self.child(
            tuple(str(labels[name]) for name in self.labelnames)
        )

    def child(self, values: Tuple[str, ...]):
        """The child series for label values in ``labelnames`` order."""
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make_child()
        return child

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Every ``(label values, child)`` pair, insertion order."""
        return list(self._children.items())


#: a sourced family's read: component -> ``(label values, value)`` pairs
Read = Callable[[Any], Iterable[Tuple[Tuple[str, ...], float]]]


class Family(NamedTuple):
    """One row of a family table (:mod:`repro.obs.bridge`): a counter or
    gauge has the ``read`` of its component's census count, a histogram
    has none and is fed at its event."""

    name: str
    kind: str
    labels: Tuple[str, ...]
    read: Optional[Read]
    help: str
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS


class MetricsRegistry:
    """All metric families plus the reads that keep the sourced fresh."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._sources: List[Tuple[MetricFamily, Read, Any]] = []

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

    def get(self, name: str) -> Optional[MetricFamily]:
        """A registered family, or None."""
        return self._families.get(name)

    # -- collection ----------------------------------------------------------

    def install(self, rows: Iterable[Family], component: Any) -> None:
        """Declare every row; sourced rows read ``component`` when
        collected."""
        for name, kind, labels, read, help_text, buckets in rows:
            family = self._register(name, help_text, kind, labels, buckets)
            if read is not None:
                self._sources.append((family, read, component))

    def collect(self) -> List[MetricFamily]:
        """Sync sourced families, then return every family."""
        for family, read, component in self._sources:
            for values, value in read(component):
                family.child(values).value = value
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
