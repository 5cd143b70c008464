"""Mergeable quantile sketches (KLL-style compactors).

Section V's "simple statistics over time bins (e.g., sum, mean, median,
and standard deviation)" needs a *mergeable* median/percentile summary
to work across the hierarchy — exact medians do not combine.  This is a
simplified KLL sketch: a stack of capacity-bounded compactors, where
level ``h`` stores items each standing for ``2^h`` stream items.  When
a level overflows, it sorts itself and promotes every other element
(random offset) to the level above — halving its footprint while
keeping rank estimates unbiased.

Accuracy is controlled by the per-level capacity ``k``: rank error
concentrates around ``O(1/k)`` of the stream length, verified
empirically in the tests.  Merging concatenates levels pairwise and
re-compacts, which is what lets quantile summaries roll up data stores.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional

from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
    stable_seed,
)
from repro.core.summary import DataSummary, Location
from repro.errors import GranularityError

_ITEM_BYTES = 8


class KLLSketch:
    """A KLL-style quantile sketch over floats."""

    def __init__(self, k: int = 128, seed: Optional[int] = None) -> None:
        if k < 8:
            raise GranularityError(f"k must be >= 8, got {k}")
        self.k = k
        self._rng = random.Random(seed)
        self._levels: List[List[float]] = [[]]
        self.count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- ingest ----------------------------------------------------------

    def add(self, value: float) -> None:
        """Insert one value."""
        value = float(value)
        self.count += 1
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        self._levels[0].append(value)
        self._compact_if_needed()

    def _capacity(self, level: int) -> int:
        # geometrically decaying capacities, floor of 8
        height = len(self._levels)
        return max(8, int(self.k * (2.0 / 3.0) ** (height - 1 - level)))

    def _compact_if_needed(self) -> None:
        level = 0
        while level < len(self._levels):
            if len(self._levels[level]) <= self._capacity(level):
                level += 1
                continue
            items = sorted(self._levels[level])
            offset = self._rng.randrange(2)
            promoted = items[offset::2]
            self._levels[level] = []
            if level + 1 == len(self._levels):
                self._levels.append([])
            self._levels[level + 1].extend(promoted)
            level += 1

    # -- queries ---------------------------------------------------------

    def _weighted_items(self) -> List[tuple]:
        pairs = []
        for level, items in enumerate(self._levels):
            weight = 1 << level
            for value in items:
                pairs.append((value, weight))
        pairs.sort(key=lambda pair: pair[0])
        return pairs

    def quantile(self, q: float) -> Optional[float]:
        """The value at quantile ``q`` in [0, 1] (None when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        target = q * self.count
        running = 0
        pairs = self._weighted_items()
        for value, weight in pairs:
            running += weight
            if running >= target:
                return value
        return pairs[-1][0]

    def rank(self, value: float) -> float:
        """Estimated number of stream items <= ``value``."""
        return float(
            sum(weight for item, weight in self._weighted_items()
                if item <= value)
        )

    def cdf(self, value: float) -> float:
        """Estimated fraction of stream items <= ``value``."""
        if self.count == 0:
            return 0.0
        return min(1.0, self.rank(value) / self.count)

    # -- merge / resize -----------------------------------------------------

    def merge(self, other: "KLLSketch") -> None:
        """Fold another sketch in (level-wise concatenation + compaction)."""
        while len(self._levels) < len(other._levels):
            self._levels.append([])
        for level, items in enumerate(other._levels):
            self._levels[level].extend(items)
        self.count += other.count
        if other._min is not None:
            self._min = (
                other._min if self._min is None
                else min(self._min, other._min)
            )
        if other._max is not None:
            self._max = (
                other._max if self._max is None
                else max(self._max, other._max)
            )
        self._compact_if_needed()

    def resize(self, k: int) -> None:
        """Change the accuracy parameter (shrinking compacts eagerly)."""
        if k < 8:
            raise GranularityError(f"k must be >= 8, got {k}")
        self.k = k
        self._compact_if_needed()

    def retained(self) -> int:
        """Number of items physically stored."""
        return sum(len(items) for items in self._levels)

    def footprint_bytes(self) -> int:
        """Approximate memory footprint."""
        return _ITEM_BYTES * max(1, self.retained())


class QuantilePrimitive(ComputingPrimitive):
    """A KLL sketch as a computing primitive.

    Supported query operators: ``"quantile"`` (param ``q``),
    ``"quantiles"`` (param ``qs``: list), ``"median"``, ``"cdf"`` (param
    ``value``), ``"count"``.
    """

    kind = "quantile"
    granularity_param = "k"

    def __init__(
        self,
        location: Location,
        k: int = 128,
        seed: Optional[int] = None,
        value_of=None,
    ) -> None:
        super().__init__(location)
        self._seed = seed
        self._value_of = value_of
        self.sketch = KLLSketch(k=k, seed=seed)

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "QuantilePrimitive":
        meta = summary.meta
        return cls(
            meta.location,
            k=summary.payload.k,
            seed=stable_seed(meta.location.path, meta.interval),
        )

    def _load(self, summary: DataSummary) -> None:
        self.sketch = summary.payload

    def _shrink(self, shrink: float) -> None:
        """``k`` shrinks (to no less than 16) when asked to shrink."""
        if shrink < 1.0:
            self.set_granularity(max(16, int(self.sketch.k * shrink)))

    def _ingest(self, item: Any, timestamp: float) -> None:
        value = self._value_of(item) if self._value_of else item
        self.sketch.add(float(value))

    def _reset(self) -> None:
        self.sketch = KLLSketch(k=self.sketch.k, seed=self._seed)

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=self.sketch,
            size_bytes=self.footprint_bytes(),
            attrs={"k": self.sketch.k, "count": self.sketch.count},
        )

    def footprint_bytes(self) -> int:
        return self.sketch.footprint_bytes()

    def query(self, request: QueryRequest) -> Any:
        params = request.params
        if request.operator == "quantile":
            return self.sketch.quantile(params["q"])
        if request.operator == "quantiles":
            return [self.sketch.quantile(q) for q in params["qs"]]
        if request.operator == "median":
            return self.sketch.quantile(0.5)
        if request.operator == "cdf":
            return self.sketch.cdf(params["value"])
        if request.operator == "count":
            return self.sketch.count
        raise ValueError(
            f"quantile primitive does not support operator "
            f"{request.operator!r}"
        )

    def combine(self, other: "ComputingPrimitive") -> None:
        self._check_combinable(other)
        assert isinstance(other, QuantilePrimitive)
        self.sketch.merge(other.sketch)

    def set_granularity(self, granularity: float) -> None:
        """Granularity is the accuracy parameter ``k``."""
        self.sketch.resize(int(granularity))

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Halve ``k`` under storage pressure (floor 16)."""
        if feedback.storage_pressure > 0.5 and self.sketch.k > 16:
            self.sketch.resize(max(16, self.sketch.k // 2))
