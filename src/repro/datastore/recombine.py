"""Re-aggregation of stored summaries to a coarser granularity.

The third storage strategy of Section IV ("round-robin mechanism and
hierarchical aggregation") does not delete old partitions — it merges
several old summaries into one coarser summary with a smaller footprint.
Each primitive class coarsens its own kind
(:meth:`~repro.core.primitive.ComputingPrimitive.coarsen`); this module
checks the input and hands it to the class the registry names.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.flowtree import FlowtreePrimitive
from repro.core.registry import default_registry
from repro.core.summary import DataSummary
from repro.errors import PlacementError, StorageError


def combine_summaries(
    summaries: Sequence[DataSummary], shrink: float = 0.5
) -> DataSummary:
    """Combine same-kind summaries (oldest first) into one coarser
    summary at ``shrink`` times their footprint."""
    if not summaries:
        raise StorageError("cannot combine zero summaries")
    kinds = {summary.kind for summary in summaries}
    if len(kinds) != 1:
        raise StorageError(f"cannot combine mixed summary kinds {kinds}")
    try:
        cls = default_registry().class_of(summaries[0].kind)
    except PlacementError as exc:
        raise StorageError(str(exc)) from exc
    return cls.coarsen(summaries, shrink)


def combine_flowtrees(
    summaries: Sequence[DataSummary], shrink: float
) -> DataSummary:
    """Merge Flowtree snapshots, then compress to the shrink target."""
    return FlowtreePrimitive.coarsen(summaries, shrink)
