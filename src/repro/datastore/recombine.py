"""Re-aggregation of stored summaries to a coarser granularity.

The third storage strategy of Section IV ("round-robin mechanism and
hierarchical aggregation") does not delete old partitions — it merges
several old summaries into one coarser summary with a smaller footprint.
Live primitives know how to combine themselves; stored summaries are
snapshots, so this module provides per-kind combiners over the snapshot
payloads.

Each combiner takes the summaries oldest-first plus a ``shrink`` factor
(the target footprint relative to the combined inputs) and returns one
coarser :class:`~repro.core.summary.DataSummary` whose metadata is the
fold of the inputs' metadata.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Sequence

from repro.core.heavy_hitters import SpaceSaving
from repro.core.summary import DataSummary, SummaryMeta
from repro.core.timebin import BinStats
from repro.errors import StorageError
from repro.flows.tree import Flowtree

SummaryCombiner = Callable[[Sequence[DataSummary], float], DataSummary]

_rng = random.Random(20190707)


def _fold_meta(summaries: Sequence[DataSummary]) -> SummaryMeta:
    meta = summaries[0].meta
    for summary in summaries[1:]:
        meta = meta.combined(summary.meta)
    return meta


def combine_flowtrees(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Merge Flowtree snapshots, then compress to the shrink target."""
    # the merge target: later summaries fold into it, then it compresses
    merged: Flowtree = summaries[0].payload.copy()
    for summary in summaries[1:]:
        merged.merge(summary.payload)
    target = max(
        merged.policy.depth + 1, int(merged.node_count * shrink)
    )
    merged.compress(target_nodes=target)
    return DataSummary(
        kind="flowtree",
        meta=_fold_meta(summaries),
        payload=merged,
        size_bytes=merged.estimated_size_bytes(),
        attrs=dict(summaries[-1].attrs, nodes=merged.node_count),
    )


def combine_timebins(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Merge bin tables, widening bins by the inverse shrink factor."""
    widths = [s.attrs["bin_seconds"] for s in summaries]
    base = max(widths)
    factor = max(1, int(round(1.0 / shrink)))
    new_width = base * factor
    merged: Dict[float, BinStats] = {}
    for summary in summaries:
        for bin_start, stats in summary.payload.items():
            slot = (bin_start // new_width) * new_width
            target = merged.setdefault(slot, BinStats())
            target.merge(stats, _rng, reservoir_size=32)
    size = 48 * len(merged) + 8 * sum(
        len(b.reservoir) for b in merged.values()
    )
    return DataSummary(
        kind="timebin",
        meta=_fold_meta(summaries),
        payload=dict(sorted(merged.items())),
        size_bytes=size,
        attrs={"bin_seconds": new_width},
    )


def combine_samples(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Concatenate sampled series, thinning to the shrink target.

    The output's effective sampling rate is the minimum input rate times
    the thinning factor, recorded in ``attrs["rate"]`` so estimates stay
    unbiased.
    """
    rate = min(s.attrs["rate"] for s in summaries)
    points = []
    for summary in summaries:
        keep = rate / summary.attrs["rate"]
        for point in summary.payload:
            if keep >= 1.0 or _rng.random() < keep:
                points.append(point)
    kept = [p for p in points if _rng.random() < shrink]
    kept.sort(key=lambda p: p.timestamp)
    return DataSummary(
        kind="sample",
        meta=_fold_meta(summaries),
        payload=kept,
        size_bytes=16 * len(kept),
        attrs={"rate": rate * shrink},
    )


def combine_heavy_hitters(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Merge Space-Saving sketches and shrink the counter budget."""
    first: SpaceSaving = summaries[0].payload
    merged = SpaceSaving(first.capacity)
    merged.merge(first)
    for summary in summaries[1:]:
        merged.merge(summary.payload)
    merged.resize(max(16, int(merged.capacity * shrink)))
    return DataSummary(
        kind="heavy_hitter",
        meta=_fold_meta(summaries),
        payload=merged,
        size_bytes=merged.footprint_bytes(),
        attrs={"capacity": merged.capacity},
    )


def combine_reservoirs(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Subsample the union of reservoir snapshots."""
    pool = [item for summary in summaries for item in summary.payload]
    seen = sum(summary.attrs.get("seen", len(summary.payload)) for summary in summaries)
    capacity = max(16, int(len(pool) * shrink))
    if len(pool) > capacity:
        pool = _rng.sample(pool, capacity)
    return DataSummary(
        kind="reservoir",
        meta=_fold_meta(summaries),
        payload=pool,
        size_bytes=24 * max(len(pool), 1),
        attrs={"capacity": capacity, "seen": seen},
    )


def combine_count_min(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Merge Count-Min sketches (cell-wise; no lossless shrink exists)."""
    first = summaries[0].payload
    import copy

    merged = copy.deepcopy(first)
    for summary in summaries[1:]:
        merged.merge(summary.payload)
    return DataSummary(
        kind="count_min",
        meta=_fold_meta(summaries),
        payload=merged,
        size_bytes=merged.footprint_bytes(),
        attrs={"width": merged.width, "depth": merged.depth},
    )


def combine_hhh(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Merge per-depth sketch stacks and shrink each level's budget."""
    first: Dict[int, SpaceSaving] = summaries[0].payload
    merged: Dict[int, SpaceSaving] = {}
    for depth, sketch in first.items():
        clone = SpaceSaving(sketch.capacity)
        clone.merge(sketch)
        merged[depth] = clone
    for summary in summaries[1:]:
        for depth, sketch in summary.payload.items():
            merged[depth].merge(sketch)
    capacity = max(16, int(first[0].capacity * shrink))
    for sketch in merged.values():
        sketch.resize(capacity)
    size = sum(sketch.footprint_bytes() for sketch in merged.values())
    return DataSummary(
        kind="hhh",
        meta=_fold_meta(summaries),
        payload=merged,
        size_bytes=size,
        attrs=dict(summaries[0].attrs, capacity_per_level=capacity),
    )


def combine_quantiles(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Merge KLL sketches, shrinking the accuracy parameter ``k``."""
    from repro.core.quantiles import KLLSketch

    first: KLLSketch = summaries[0].payload
    merged = KLLSketch(k=first.k, seed=20190709)
    merged.merge(first)
    for summary in summaries[1:]:
        merged.merge(summary.payload)
    if shrink < 1.0:
        merged.resize(max(16, int(first.k * shrink)))
    return DataSummary(
        kind="quantile",
        meta=_fold_meta(summaries),
        payload=merged,
        size_bytes=merged.footprint_bytes(),
        attrs={"k": merged.k, "count": merged.count},
    )


def combine_raw(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Concatenate raw items oldest-first, then keep the newest fraction.

    Raw data cannot be aggregated without losing its point; shrinking a
    raw summary means dropping the oldest items (matching the
    primitive's own round-robin behaviour).
    """
    items = sorted(
        (pair for summary in summaries for pair in summary.payload),
        key=lambda pair: pair[0],
    )
    total_bytes = sum(summary.size_bytes for summary in summaries)
    dropped = sum(summary.attrs.get("dropped", 0) for summary in summaries)
    if shrink < 1.0 and items:
        keep = max(1, int(len(items) * shrink))
        dropped += len(items) - keep
        items = items[-keep:]
        total_bytes = int(total_bytes * shrink)
    budget = max(summary.attrs["budget_bytes"] for summary in summaries)
    return DataSummary(
        kind="raw",
        meta=_fold_meta(summaries),
        payload=items,
        size_bytes=total_bytes,
        attrs={"budget_bytes": budget, "dropped": dropped},
    )


_COMBINERS: Dict[str, SummaryCombiner] = {
    "flowtree": combine_flowtrees,
    "timebin": combine_timebins,
    "sample": combine_samples,
    "heavy_hitter": combine_heavy_hitters,
    "reservoir": combine_reservoirs,
    "count_min": combine_count_min,
    "hhh": combine_hhh,
    "raw": combine_raw,
    "quantile": combine_quantiles,
}


def combine_summaries(
    summaries: Sequence[DataSummary], shrink: float = 0.5
) -> DataSummary:
    """Combine same-kind summaries into one coarser summary."""
    if not summaries:
        raise StorageError("cannot combine zero summaries")
    kinds = {summary.kind for summary in summaries}
    if len(kinds) != 1:
        raise StorageError(f"cannot combine mixed summary kinds {kinds}")
    kind = summaries[0].kind
    combiner = _COMBINERS.get(kind)
    if combiner is None:
        raise StorageError(f"no combiner registered for kind {kind!r}")
    return combiner(summaries, shrink)


def register_combiner(kind: str, combiner: SummaryCombiner) -> None:
    """Register a combiner for a custom summary kind."""
    _COMBINERS[kind] = combiner
