"""Reactive result caching (Section VII).

"The performance can be improved both by reactively caching earlier
results and by proactively replicating data ...  Note, that the
approaches are not mutually exclusive, but can be combined."

A :class:`QueryCache` memoizes federated FlowQL results within a TTL,
under the key :meth:`~repro.query.planner.FederatedQueryPlanner.
cache_key` builds from the parsed query and its plan.  Caching only
helps *repeat* queries — the paper's stated reason to focus on
replication — which the hit/miss counters make measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple


@dataclass
class CacheEntry:
    """One memoized result.

    ``window`` is the query's effective time window (for ``VS``
    queries, the hull of both windows): epoch-scoped invalidation keeps
    entries whose window was already fully closed when they were cached
    — new epochs cannot change them — and drops the rest.  The default
    ``(None, None)`` marks an unbounded window, which is always dropped
    at a boundary.
    """

    value: Any
    stored_at: float
    window: Tuple[Optional[float], Optional[float]] = (None, None)


@dataclass
class QueryCache:
    """A TTL-bounded, size-bounded result cache.

    **TTL contract:** an entry is live strictly *less than*
    ``ttl_seconds`` after it was stored — at exactly
    ``now - stored_at == ttl_seconds`` the entry has expired and
    :meth:`get` misses.  This matches
    :class:`~repro.datastore.storage.ExpirationStorage`, whose epochs
    age out on the same closed boundary.

    **Eviction:** insertion-ordered.  ``_entries`` is a plain dict, so
    iteration order *is* storage order; :meth:`put` drops the entry at
    the front when full — O(1) per insert instead of the full
    ``min()`` scan over timestamps this cache used to do, which made a
    hot cache at ``max_entries`` O(n) per insert.  Overwriting a key
    re-inserts it at the back, keeping dict order aligned with
    ``stored_at`` order.
    """

    ttl_seconds: float = 300.0
    max_entries: int = 1024
    _entries: Dict[Hashable, CacheEntry] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, key: Hashable, now: float) -> Optional[CacheEntry]:
        """A live entry, or None (counts hit/miss)."""
        entry = self._entries.get(key)
        if entry is None or now - entry.stored_at >= self.ttl_seconds:
            if entry is not None:
                del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        key: Hashable,
        value: Any,
        now: float,
        window: Tuple[Optional[float], Optional[float]] = (None, None),
    ) -> None:
        """Store one result (evicting the oldest entry past the cap)."""
        if key in self._entries:
            # re-insert at the back so dict order stays storage order
            del self._entries[key]
        elif len(self._entries) >= self.max_entries:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = CacheEntry(
            value=value, stored_at=now, window=window
        )

    def invalidate(self) -> int:
        """Drop everything (topology change, explicit flush); count."""
        count = len(self._entries)
        self._entries.clear()
        return count

    def invalidate_open(self, boundary: float) -> int:
        """Epoch-scoped invalidation: drop entries still open at
        ``boundary`` (the previous close), keep fully-closed windows.

        An entry whose window end is at or before the boundary that
        held when it was cached already saw every record its window
        will ever cover — a new epoch seals strictly later data — so it
        survives the close and keeps answering historical repeats with
        zero bytes shipped.  Unbounded windows (``end=None``) and
        windows reaching past the boundary are dropped, exactly as the
        old wholesale invalidation dropped them.
        """
        doomed = [
            key
            for key, entry in self._entries.items()
            if entry.window[1] is None or entry.window[1] > boundary
        ]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def invalidate_window(
        self, start: Optional[float], end: Optional[float]
    ) -> int:
        """Drop entries whose window overlaps ``[start, end)``.

        The late-delivery hook: when a parked export finally lands, its
        (historical) interval re-opens every cached window it touches —
        those answers are stale even though their windows were closed.
        ``None`` bounds are unbounded on that side.
        """
        doomed = []
        for key, entry in self._entries.items():
            win_start, win_end = entry.window
            if start is not None and win_end is not None and win_end <= start:
                continue
            if end is not None and win_start is not None and win_start >= end:
                continue
            doomed.append(key)
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)
