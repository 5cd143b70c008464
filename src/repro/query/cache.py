"""Reactive result caching (Section VII).

"The performance can be improved both by reactively caching earlier
results and by proactively replicating data ...  Note, that the
approaches are not mutually exclusive, but can be combined."

A :class:`QueryCache` memoizes FlowQL results within a TTL, under the
key :meth:`~repro.query.planner.FederatedQueryPlanner.cache_key` builds
from the parsed query and its plan.  Caching only helps *repeat*
queries — the paper's stated reason to focus on replication — which the
hit/miss counters make measurable.

**The currency rule.**  An entry keeps its result and the ids of the
inputs its window folds consumed (:meth:`~repro.query.fold.WindowFold.
inputs`, one per window).  It is current exactly while those windows
read the same inputs: a lookup re-lists them when
:func:`~repro.core.summary.stores_version` has moved since the entry
was last confirmed — otherwise no store gained or lost a summary and
the ids cannot differ — and drops the entry on any difference.  A new
epoch in an open window, a late FlowDB entry, a retention eviction or
compaction and a recovery re-id all change the list; a close that
sealed nothing the window reads does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional

from repro.core.summary import stores_version
from repro.query.memo import MEMO_MAX

#: an entry is live strictly less than this long after it was stored
TTL_SECONDS = 300.0


@dataclass
class CacheEntry:
    """One memoized result and the inputs it was folded from."""

    value: Any
    stored_at: float
    #: the window inputs the result consumed, by id
    inputs: Any
    #: the stores version at which ``inputs`` were last confirmed
    version: int = field(default_factory=stores_version)


class QueryCache:
    """A TTL-bounded, size-bounded result cache.

    **TTL contract:** an entry is live strictly *less than*
    :data:`TTL_SECONDS` after it was first stored — at exactly
    ``now - stored_at == TTL_SECONDS`` the entry has expired and
    :meth:`get` misses.  This matches
    :class:`~repro.datastore.storage.ExpirationStorage`, whose epochs
    age out on the same closed boundary.

    **Eviction:** insertion-ordered, at most :data:`~repro.query.memo.
    MEMO_MAX` entries (the memo's text count).  ``_entries`` is a plain
    dict, so iteration order *is* storage order; :meth:`put` drops the
    entry at the front when full, O(1) per insert.  Overwriting a key
    re-inserts it at the back, keeping dict order aligned with
    ``stored_at`` order.
    """

    def __init__(self, inputs: Callable[[Any], Any]) -> None:
        #: request -> its windows' current inputs (called only on a
        #: lookup after the stores moved)
        self._inputs = inputs
        self._entries: Dict[Hashable, CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self, key: Hashable, now: float, request: Any
    ) -> Optional[CacheEntry]:
        """A live, current entry for ``request`` under ``key``, or None
        (counts hit/miss)."""
        entry = self._entries.get(key)
        if entry is not None:
            version = stores_version()
            if now - entry.stored_at >= TTL_SECONDS:
                entry = None
            elif entry.version != version:
                if self._inputs(request) == entry.inputs:
                    entry.version = version
                else:
                    entry = None
            if entry is None:
                del self._entries[key]
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: Any, now: float, inputs: Any) -> None:
        """Store one result and its inputs (evicting the oldest entry
        past the cap)."""
        if key in self._entries:
            # re-insert at the back so dict order stays storage order
            del self._entries[key]
        elif len(self._entries) >= MEMO_MAX:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = CacheEntry(value, now, inputs)

    def invalidate(self) -> int:
        """Drop everything (topology change, explicit flush); count."""
        count = len(self._entries)
        self._entries.clear()
        return count

    def __len__(self) -> int:
        return len(self._entries)
