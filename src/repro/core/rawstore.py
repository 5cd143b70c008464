"""Raw access: the no-aggregation aggregator of Figure 4.

The data-store figure lists "Raw Access" alongside Sample/HHH/Flowtree:
some applications need original items (e.g. to replay an incident).
This primitive retains raw items verbatim up to a byte budget, dropping
oldest-first once full — the in-primitive analogue of round-robin
storage.  It exists mainly as the baseline the other primitives are
measured against: maximal fidelity, maximal footprint, no combination
across sites beyond concatenation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
)
from repro.core.summary import DataSummary, Location
from repro.errors import GranularityError

_DEFAULT_ITEM_BYTES = 48


class RawStorePrimitive(ComputingPrimitive):
    """Verbatim retention under a byte budget.

    Supported query operators:

    * ``"items"`` — params ``start``/``end``: the retained (timestamp,
      item) pairs in a window.
    * ``"count"`` — retained item count.
    * ``"replay"`` — param ``consumer``: feed every retained item to a
      callable, oldest first; returns how many were replayed.
    """

    kind = "raw"
    granularity_param = "budget_bytes"

    def __init__(
        self,
        location: Location,
        budget_bytes: int = 1_000_000,
        size_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        super().__init__(location)
        if budget_bytes <= 0:
            raise GranularityError(
                f"budget must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._size_of = size_of
        self._items: Deque[Tuple[float, Any, int]] = deque()
        self._stored_bytes = 0
        self.dropped = 0

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "RawStorePrimitive":
        return cls(
            summary.meta.location,
            budget_bytes=max(1, summary.attrs["budget_bytes"]),
        )

    def _load(self, summary: DataSummary) -> None:
        for timestamp, item in summary.payload:
            self._items.append((timestamp, item, self._item_size(item)))
        self._stored_bytes = summary.size_bytes
        self.dropped = summary.attrs.get("dropped", 0)

    def _shrink(self, shrink: float) -> None:
        """Keep the newest ``shrink`` fraction of the items (raw data
        cannot be aggregated without losing its point)."""
        if shrink >= 1.0 or not self._items:
            return
        keep = max(1, int(len(self._items) * shrink))
        for _ in range(len(self._items) - keep):
            self._items.popleft()
            self.dropped += 1
        self._stored_bytes = int(self._stored_bytes * shrink)

    def _item_size(self, item: Any) -> int:
        if self._size_of is not None:
            return int(self._size_of(item))
        return getattr(item, "size_bytes", None) or _DEFAULT_ITEM_BYTES

    def _ingest(self, item: Any, timestamp: float) -> None:
        size = self._item_size(item)
        self._items.append((timestamp, item, size))
        self._stored_bytes += size
        while self._stored_bytes > self.budget_bytes and len(self._items) > 1:
            _, _, dropped_size = self._items.popleft()
            self._stored_bytes -= dropped_size
            self.dropped += 1

    def _reset(self) -> None:
        self._items.clear()
        self._stored_bytes = 0

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=[(t, item) for t, item, _ in self._items],
            size_bytes=self._stored_bytes,
            attrs={"budget_bytes": self.budget_bytes,
                   "dropped": self.dropped},
        )

    def footprint_bytes(self) -> int:
        return self._stored_bytes

    def query(self, request: QueryRequest) -> Any:
        params = request.params
        if request.operator == "items":
            start, end = params.get("start"), params.get("end")
            selected: List[Tuple[float, Any]] = []
            for timestamp, item, _size in self._items:
                if start is not None and timestamp < start:
                    continue
                if end is not None and timestamp >= end:
                    continue
                selected.append((timestamp, item))
            return selected
        if request.operator == "count":
            return len(self._items)
        if request.operator == "replay":
            consumer = params["consumer"]
            for _timestamp, item, _size in self._items:
                consumer(item)
            return len(self._items)
        raise ValueError(
            f"raw primitive does not support operator {request.operator!r}"
        )

    def combine(self, other: "ComputingPrimitive") -> None:
        """Concatenate retained items (time-ordered), re-applying the
        budget."""
        self._check_combinable(other)
        assert isinstance(other, RawStorePrimitive)
        self.dropped += other.dropped
        merged = sorted(
            list(self._items) + list(other._items), key=lambda t: t[0]
        )
        self._items = deque()
        self._stored_bytes = 0
        for timestamp, item, size in merged:
            self._items.append((timestamp, item, size))
            self._stored_bytes += size
        while self._stored_bytes > self.budget_bytes and len(self._items) > 1:
            _, _, dropped_size = self._items.popleft()
            self._stored_bytes -= dropped_size
            self.dropped += 1

    def set_granularity(self, granularity: float) -> None:
        """Granularity is the byte budget."""
        budget = int(granularity)
        if budget <= 0:
            raise GranularityError(f"budget must be positive, got {budget}")
        self.budget_bytes = budget
        while self._stored_bytes > self.budget_bytes and len(self._items) > 1:
            _, _, dropped_size = self._items.popleft()
            self._stored_bytes -= dropped_size
            self.dropped += 1

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Halve the budget under storage pressure."""
        if feedback.storage_pressure > 0.5 and self.budget_bytes > 1024:
            self.set_granularity(self.budget_bytes // 2)
