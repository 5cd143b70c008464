"""Aggregators: named primitive instances subscribed to streams.

Figure 4 shows a data store feeding sensor streams into several
aggregators ("Sample", "HHH", "Flow Tree", "Raw Access").  An
:class:`Aggregator` binds one computing primitive to a stream-id
predicate, tracks its observed ingest rate (an input to
self-adaptation), and cuts epoch summaries.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.primitive import AdaptationFeedback, ComputingPrimitive
from repro.core.summary import DataSummary

#: Decides whether a stream belongs to this aggregator.
StreamFilter = Callable[[str], bool]


def match_all(stream_id: str) -> bool:
    """The default stream filter: subscribe to everything."""
    return True


def prefix_filter(prefix: str) -> StreamFilter:
    """A filter matching stream ids beginning with ``prefix``."""

    def matches(stream_id: str) -> bool:
        return stream_id.startswith(prefix)

    return matches


class Aggregator:
    """One installed primitive plus its subscription and statistics."""

    def __init__(
        self,
        name: str,
        primitive: ComputingPrimitive,
        stream_filter: StreamFilter = match_all,
        item_of: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.name = name
        self.primitive = primitive
        self.stream_filter = stream_filter
        #: Optional projection from the raw stream item to what the
        #: primitive ingests (e.g. ``reading.value`` for numeric
        #: primitives fed from :class:`SensorReading` objects).
        self.item_of = item_of
        self.items_this_epoch = 0
        self.epoch_opened_at: Optional[float] = None
        self.epochs_closed = 0

    def wants(self, stream_id: str) -> bool:
        """Whether this aggregator subscribes to the stream."""
        return self.stream_filter(stream_id)

    def ingest_many(self, timed_items) -> int:
        """Feed a batch of ``(item, timestamp)`` pairs to the primitive.

        Delegates to the primitive's batched path (which amortizes
        budget checks); returns how many items were consumed.  The
        epoch's opening time is taken only once the primitive has
        accepted the batch, so a rejected one leaves no trace here.
        """
        if self.item_of:
            projection = self.item_of
            timed_items = [
                (projection(item), timestamp) for item, timestamp in timed_items
            ]
        else:
            timed_items = list(timed_items)
        if not timed_items:
            return 0
        count = self.primitive.ingest_many(timed_items)
        if self.epoch_opened_at is None:
            self.epoch_opened_at = timed_items[0][1]
        self.items_this_epoch += count
        return count

    def close_epoch(self, now: float, storage_pressure: float) -> DataSummary:
        """Seal the epoch summary, let the primitive adapt to the epoch's
        ingest rate and the store's storage pressure, start a new epoch."""
        opened = now if self.epoch_opened_at is None else self.epoch_opened_at
        feedback = AdaptationFeedback(
            ingest_rate=self.items_this_epoch / max(1e-9, now - opened),
            storage_pressure=storage_pressure,
        )
        summary = self.primitive.reset_epoch()
        self.primitive.adapt(feedback)
        self.items_this_epoch = 0
        self.epoch_opened_at = now
        self.epochs_closed += 1
        return summary
