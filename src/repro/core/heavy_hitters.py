"""Heavy-hitter detection via the Space-Saving algorithm.

This is one of the "more complicated streaming algorithms" Section V
lists among existing aggregation methods.  Space-Saving keeps exactly
``capacity`` counters; each counter carries the item's estimated count
and the maximum overestimation error, so answers come with guarantees:
``estimate - error <= true count <= estimate``.

Summaries are mergeable (counter-wise sum, then truncation back to
capacity), which is what lets heavy-hitter reports combine across the
data-store hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Tuple

from repro.errors import GranularityError
from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
)
from repro.core.summary import DataSummary, Location

_COUNTER_BYTES = 32


@dataclass
class _Counter:
    count: float
    error: float


class SpaceSaving:
    """The Metwally et al. Space-Saving sketch over hashable items."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise GranularityError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counters: Dict[Hashable, _Counter] = {}
        self.total_weight = 0.0

    def __len__(self) -> int:
        return len(self._counters)

    def offer(self, item: Hashable, weight: float = 1.0) -> None:
        """Count one occurrence (or ``weight`` of them) of ``item``."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.total_weight += weight
        counter = self._counters.get(item)
        if counter is not None:
            counter.count += weight
            return
        if len(self._counters) < self.capacity:
            self._counters[item] = _Counter(count=weight, error=0.0)
            return
        victim_item = min(self._counters, key=lambda i: self._counters[i].count)
        victim = self._counters.pop(victim_item)
        self._counters[item] = _Counter(
            count=victim.count + weight, error=victim.count
        )

    def estimate(self, item: Hashable) -> Tuple[float, float]:
        """``(estimated count, max error)`` for an item.

        For untracked items the estimate is the minimum counter value
        (the classic upper bound), with an equal error term.
        """
        counter = self._counters.get(item)
        if counter is not None:
            return counter.count, counter.error
        if not self._counters or len(self._counters) < self.capacity:
            return 0.0, 0.0
        floor = min(c.count for c in self._counters.values())
        return floor, floor

    def top(self, k: int) -> List[Tuple[Hashable, float, float]]:
        """The ``k`` largest items as ``(item, count, error)`` triples."""
        ordered = sorted(
            self._counters.items(),
            key=lambda pair: (-pair[1].count, repr(pair[0])),
        )
        return [(item, c.count, c.error) for item, c in ordered[:k]]

    def heavy_hitters(
        self, phi: float, guaranteed_only: bool = False
    ) -> List[Tuple[Hashable, float, float]]:
        """Items whose frequency exceeds ``phi * total_weight``.

        With ``guaranteed_only`` the lower bound (count − error) must
        clear the threshold, eliminating false positives.
        """
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        threshold = phi * self.total_weight
        hitters = []
        for item, counter in self._counters.items():
            bound = counter.count - counter.error if guaranteed_only else counter.count
            if bound > threshold:
                hitters.append((item, counter.count, counter.error))
        hitters.sort(key=lambda triple: (-triple[1], repr(triple[0])))
        return hitters

    def merge(self, other: "SpaceSaving") -> None:
        """Fold another sketch in; capacity stays at this sketch's value.

        Counts and errors add for shared items; an item tracked on only
        one side inherits the other side's minimum counter as additional
        error (it may have been evicted there).  The union is then
        truncated back to capacity, with evicted mass folded into the
        survivors' error bounds implicitly via the standard argument.
        """
        self.total_weight += other.total_weight
        other_floor = (
            min((c.count for c in other._counters.values()), default=0.0)
            if len(other._counters) >= other.capacity
            else 0.0
        )
        my_floor = (
            min((c.count for c in self._counters.values()), default=0.0)
            if len(self._counters) >= self.capacity
            else 0.0
        )
        merged: Dict[Hashable, _Counter] = {}
        for item, counter in self._counters.items():
            extra = other._counters.get(item)
            if extra is not None:
                merged[item] = _Counter(
                    count=counter.count + extra.count,
                    error=counter.error + extra.error,
                )
            else:
                merged[item] = _Counter(
                    count=counter.count + other_floor,
                    error=counter.error + other_floor,
                )
        for item, counter in other._counters.items():
            if item in merged:
                continue
            merged[item] = _Counter(
                count=counter.count + my_floor, error=counter.error + my_floor
            )
        survivors = sorted(
            merged.items(), key=lambda pair: (-pair[1].count, repr(pair[0]))
        )[: self.capacity]
        self._counters = {item: counter for item, counter in survivors}

    def resize(self, capacity: int) -> None:
        """Shrink (or grow) the counter budget."""
        if capacity < 1:
            raise GranularityError(f"capacity must be >= 1, got {capacity}")
        if capacity < len(self._counters):
            survivors = sorted(
                self._counters.items(),
                key=lambda pair: (-pair[1].count, repr(pair[0])),
            )[:capacity]
            self._counters = {item: counter for item, counter in survivors}
        self.capacity = capacity

    def footprint_bytes(self) -> int:
        """Approximate memory footprint."""
        return _COUNTER_BYTES * max(len(self._counters), 1)


class HeavyHitterPrimitive(ComputingPrimitive):
    """Space-Saving wrapped as a computing primitive.

    Stream items must be hashable (flow keys, machine ids …) or reduced
    to something hashable by the optional ``key_of`` extractor; the
    optional ``weight_of`` callable extracts a weight (e.g. bytes) per
    item.  Both see the *raw* stream item.

    Supported query operators: ``"top_k"`` (param ``k``), ``"count"``
    (param ``item``), ``"heavy_hitters"`` (params ``phi``,
    ``guaranteed_only``), ``"total"``.
    """

    kind = "heavy_hitter"
    granularity_param = "capacity"

    def __init__(
        self,
        location: Location,
        capacity: int = 256,
        weight_of=None,
        key_of=None,
    ) -> None:
        super().__init__(location)
        self._weight_of = weight_of
        self._key_of = key_of
        self.sketch = SpaceSaving(capacity)

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "HeavyHitterPrimitive":
        return cls(summary.meta.location, capacity=summary.payload.capacity)

    def _load(self, summary: DataSummary) -> None:
        self.sketch = summary.payload

    def _shrink(self, shrink: float) -> None:
        """The counter budget shrinks, to no fewer than 16."""
        self.set_granularity(max(16, int(self.sketch.capacity * shrink)))

    def _ingest(self, item: Any, timestamp: float) -> None:
        weight = float(self._weight_of(item)) if self._weight_of else 1.0
        key = self._key_of(item) if self._key_of else item
        self.sketch.offer(key, weight)

    def _reset(self) -> None:
        self.sketch = SpaceSaving(self.sketch.capacity)

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=self.sketch,
            size_bytes=self.footprint_bytes(),
            attrs={"capacity": self.sketch.capacity},
        )

    def footprint_bytes(self) -> int:
        return self.sketch.footprint_bytes()

    def query(self, request: QueryRequest) -> Any:
        params = request.params
        if request.operator == "top_k":
            return self.sketch.top(params.get("k", 10))
        if request.operator == "count":
            return self.sketch.estimate(params["item"])
        if request.operator == "heavy_hitters":
            return self.sketch.heavy_hitters(
                params.get("phi", 0.01),
                guaranteed_only=params.get("guaranteed_only", False),
            )
        if request.operator == "total":
            return self.sketch.total_weight
        raise ValueError(
            f"heavy-hitter primitive does not support operator "
            f"{request.operator!r}"
        )

    def combine(self, other: "ComputingPrimitive") -> None:
        self._check_combinable(other)
        assert isinstance(other, HeavyHitterPrimitive)
        self.sketch.merge(other.sketch)

    def set_granularity(self, granularity: float) -> None:
        """Granularity is the counter budget (a positive integer)."""
        self.sketch.resize(int(granularity))

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Shrink the counter budget under storage pressure."""
        if feedback.storage_pressure > 0.5 and self.sketch.capacity > 16:
            self.sketch.resize(max(16, self.sketch.capacity // 2))
