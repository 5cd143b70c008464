"""Rehydrating stored summaries into queryable primitives.

Stored partitions are snapshots; queries are defined on primitives.
``rehydrate`` rebuilds a live primitive around a snapshot payload so the
same :class:`~repro.core.primitive.QueryRequest` vocabulary works on
history, on local replicas of remote partitions, and on freshly merged
window summaries alike.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.flowtree import FlowtreePrimitive
from repro.core.heavy_hitters import HeavyHitterPrimitive
from repro.core.hhh_primitive import HierarchicalHeavyHitterPrimitive
from repro.core.primitive import ComputingPrimitive
from repro.core.reservoir import ReservoirPrimitive
from repro.core.sampling import RandomSamplePrimitive
from repro.core.sketches import CountMinPrimitive
from repro.core.summary import DataSummary
from repro.core.timebin import TimeBinStatistics
from repro.errors import StorageError

Rehydrator = Callable[[DataSummary], ComputingPrimitive]


def _rehydrate_flowtree(summary: DataSummary) -> ComputingPrimitive:
    tree = summary.payload
    primitive = FlowtreePrimitive(
        summary.meta.location,
        policy=tree.policy,
        node_budget=tree.node_budget,
        metric=tree.metric,
    )
    primitive.tree = tree
    return primitive


def _rehydrate_sample(summary: DataSummary) -> ComputingPrimitive:
    primitive = RandomSamplePrimitive(
        summary.meta.location, rate=max(summary.attrs["rate"], 1e-9)
    )
    primitive._points = list(summary.payload)
    return primitive


def _rehydrate_timebin(summary: DataSummary) -> ComputingPrimitive:
    primitive = TimeBinStatistics(
        summary.meta.location, bin_seconds=summary.attrs["bin_seconds"]
    )
    width = summary.attrs["bin_seconds"]
    primitive._bins = {
        int(round(bin_start / width)): stats
        for bin_start, stats in summary.payload.items()
    }
    return primitive


def _rehydrate_heavy_hitter(summary: DataSummary) -> ComputingPrimitive:
    primitive = HeavyHitterPrimitive(
        summary.meta.location, capacity=summary.payload.capacity
    )
    primitive.sketch = summary.payload
    return primitive


def _rehydrate_reservoir(summary: DataSummary) -> ComputingPrimitive:
    primitive = ReservoirPrimitive(
        summary.meta.location, capacity=max(1, summary.attrs["capacity"])
    )
    primitive.reservoir._items = list(summary.payload)
    primitive.reservoir.seen = summary.attrs.get("seen", len(summary.payload))
    return primitive


def _rehydrate_count_min(summary: DataSummary) -> ComputingPrimitive:
    sketch = summary.payload
    primitive = CountMinPrimitive(
        summary.meta.location,
        width=sketch.width,
        depth=sketch.depth,
        seed=sketch.seed,
    )
    primitive.sketch = sketch
    return primitive


def _rehydrate_hhh(summary: DataSummary) -> ComputingPrimitive:
    primitive = HierarchicalHeavyHitterPrimitive(
        summary.meta.location,
        policy=summary.attrs["policy"],
        capacity_per_level=summary.attrs["capacity_per_level"],
    )
    primitive._sketches = summary.payload
    return primitive


def _rehydrate_quantile(summary: DataSummary) -> ComputingPrimitive:
    from repro.core.quantiles import QuantilePrimitive

    primitive = QuantilePrimitive(
        summary.meta.location, k=summary.payload.k
    )
    primitive.sketch = summary.payload
    return primitive


def _rehydrate_raw(summary: DataSummary) -> ComputingPrimitive:
    from repro.core.rawstore import RawStorePrimitive

    primitive = RawStorePrimitive(
        summary.meta.location,
        budget_bytes=max(1, summary.attrs["budget_bytes"]),
    )
    for timestamp, item in summary.payload:
        primitive._items.append((timestamp, item, primitive._item_size(item)))
    primitive._stored_bytes = summary.size_bytes
    return primitive


_REHYDRATORS: Dict[str, Rehydrator] = {
    "flowtree": _rehydrate_flowtree,
    "sample": _rehydrate_sample,
    "timebin": _rehydrate_timebin,
    "heavy_hitter": _rehydrate_heavy_hitter,
    "reservoir": _rehydrate_reservoir,
    "count_min": _rehydrate_count_min,
    "hhh": _rehydrate_hhh,
    "raw": _rehydrate_raw,
    "quantile": _rehydrate_quantile,
}


def can_rehydrate(kind: str) -> bool:
    """Whether stored summaries of ``kind`` support queries."""
    return kind in _REHYDRATORS


def rehydrate(summary: DataSummary) -> ComputingPrimitive:
    """Wrap a stored summary in a queryable primitive."""
    rehydrator = _REHYDRATORS.get(summary.kind)
    if rehydrator is None:
        raise StorageError(
            f"summaries of kind {summary.kind!r} cannot be rehydrated"
        )
    primitive = rehydrator(summary)
    primitive._epoch_start = summary.meta.interval.start
    primitive._epoch_end = summary.meta.interval.end
    return primitive


def register_rehydrator(kind: str, rehydrator: Rehydrator) -> None:
    """Register a rehydrator for a custom summary kind."""
    _REHYDRATORS[kind] = rehydrator

