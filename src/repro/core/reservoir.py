"""Reservoir sampling: a fixed-size uniform sample of a stream.

Complements the rate-based :mod:`repro.core.sampling` primitive: where
Bernoulli sampling bounds the *rate*, the reservoir bounds the *size*,
which is what a data store wants when its storage budget is fixed and
the stream rate is not.
"""

from __future__ import annotations

import random
from typing import Any, Generic, List, Optional, TypeVar

from repro.errors import GranularityError
from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
    stable_seed,
)
from repro.core.summary import DataSummary, Location

T = TypeVar("T")

_ITEM_BYTES = 24


class ReservoirSample(Generic[T]):
    """Algorithm R over arbitrary items."""

    def __init__(self, capacity: int, seed: Optional[int] = None) -> None:
        if capacity < 1:
            raise GranularityError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._items: List[T] = []
        self.seen = 0

    def offer(self, item: T) -> None:
        """Consider one stream item for the reservoir."""
        self.seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self._items[slot] = item

    @property
    def items(self) -> List[T]:
        """The current sample (order is not meaningful)."""
        return list(self._items)

    def merge(self, other: "ReservoirSample[T]") -> None:
        """Combine two reservoirs into a sample of the united stream.

        Items are drawn, without replacement, from each side
        proportionally to how much of the combined stream it saw,
        preserving uniformity; merging into an empty reservoir keeps
        the other side's sample.
        """
        combined_seen = self.seen + other.seen
        if combined_seen == 0:
            return
        mine, theirs = list(self._items), list(other._items)
        pool: List[T] = []
        while len(pool) < self.capacity and (mine or theirs):
            pick_mine = mine and (
                not theirs or self._rng.random() < self.seen / combined_seen
            )
            source = mine if pick_mine else theirs
            # draw without replacement: swap the pick to the end, pop it
            slot = self._rng.randrange(len(source))
            source[slot], source[-1] = source[-1], source[slot]
            pool.append(source.pop())
        self._items = pool
        self.seen = combined_seen

    def resize(self, capacity: int) -> None:
        """Change the reservoir size, subsampling if shrinking."""
        if capacity < 1:
            raise GranularityError(f"capacity must be >= 1, got {capacity}")
        if capacity < len(self._items):
            self._items = self._rng.sample(self._items, capacity)
        self.capacity = capacity

    def footprint_bytes(self) -> int:
        """Approximate memory footprint."""
        return _ITEM_BYTES * max(len(self._items), 1)


class ReservoirPrimitive(ComputingPrimitive):
    """A reservoir sample as a computing primitive.

    Supported query operators: ``"sample"`` (the retained items),
    ``"seen"`` (stream length), ``"estimate_fraction"`` (param
    ``predicate``: fraction of stream items matching, estimated from the
    sample).
    """

    kind = "reservoir"
    granularity_param = "capacity"

    def __init__(
        self,
        location: Location,
        capacity: int = 1024,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(location)
        self._seed = seed
        self.reservoir: ReservoirSample[Any] = ReservoirSample(capacity, seed)

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "ReservoirPrimitive":
        meta = summary.meta
        return cls(
            meta.location,
            capacity=max(1, summary.attrs["capacity"]),
            seed=stable_seed(meta.location.path, meta.interval),
        )

    def _load(self, summary: DataSummary) -> None:
        self.reservoir._items = list(summary.payload)
        self.reservoir.seen = summary.attrs.get("seen", len(summary.payload))

    def _shrink(self, shrink: float) -> None:
        """The reservoir shrinks, to no fewer than 16 items."""
        self.set_granularity(max(16, int(self.reservoir.capacity * shrink)))

    def _ingest(self, item: Any, timestamp: float) -> None:
        self.reservoir.offer(item)

    def _reset(self) -> None:
        self.reservoir = ReservoirSample(self.reservoir.capacity, self._seed)

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=self.reservoir.items,
            size_bytes=self.footprint_bytes(),
            attrs={
                "capacity": self.reservoir.capacity,
                "seen": self.reservoir.seen,
            },
        )

    def footprint_bytes(self) -> int:
        return self.reservoir.footprint_bytes()

    def query(self, request: QueryRequest) -> Any:
        if request.operator == "sample":
            return self.reservoir.items
        if request.operator == "seen":
            return self.reservoir.seen
        if request.operator == "estimate_fraction":
            predicate = request.params["predicate"]
            items = self.reservoir.items
            if not items:
                return 0.0
            return sum(1 for item in items if predicate(item)) / len(items)
        raise ValueError(
            f"reservoir primitive does not support operator "
            f"{request.operator!r}"
        )

    def combine(self, other: "ComputingPrimitive") -> None:
        self._check_combinable(other)
        assert isinstance(other, ReservoirPrimitive)
        self.reservoir.merge(other.reservoir)

    def set_granularity(self, granularity: float) -> None:
        """Granularity is the reservoir capacity."""
        self.reservoir.resize(int(granularity))

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Shrink the reservoir under storage pressure."""
        if feedback.storage_pressure > 0.5 and self.reservoir.capacity > 16:
            self.reservoir.resize(max(16, self.reservoir.capacity // 2))
