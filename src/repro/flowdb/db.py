"""FlowDB: storage, indexing, and merged views of Flowtree summaries.

FlowDB is deliberately simple: an append-only table of (location, time
interval, Flowtree) entries with an index by location and a sorted index
by interval start.  Its one non-trivial operation — :meth:`merged_tree`
— is where the paper's combination property pays off: any subset of
sites and any span of epochs collapses into a single queryable tree via
Merge + Compress (``A12 = compress(A1 U A2)``).

Where the entries *live* is delegated to a pluggable
:class:`~repro.storage.engine.StorageEngine`: every insert is logged to
the engine, and :meth:`recover` rebuilds the whole index from it —
lazily, where the engine stores records on disk (an entry's tree is
loaded on first access, not at recovery time).  The default
:class:`~repro.storage.engine.MemoryEngine` keeps references to the
live trees, which preserves the historical in-memory behavior exactly.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.summary import DataSummary, TimeInterval, stores_changed
from repro.errors import FlowQLPlanningError, SchemaMismatchError
from repro.flows.flowkey import GeneralizationPolicy
from repro.flows.tree import Flowtree
from repro.storage.engine import MemoryEngine, StorageEngine

_entry_counter = itertools.count(1)


class FlowDBEntry:
    """One indexed Flowtree summary, possibly not yet materialized.

    ``tree`` loads lazily through the storage engine's record loader
    when the entry was recovered from disk; entries created by a live
    :meth:`FlowDB.insert` hold their tree directly.  Everything else
    (identity, location, interval) is plain indexed state.
    """

    __slots__ = ("entry_id", "location", "interval", "_tree", "_loader")

    def __init__(
        self,
        entry_id: int,
        location: str,
        interval: TimeInterval,
        tree: Optional[Flowtree] = None,
        loader: Optional[Callable[[], Flowtree]] = None,
    ) -> None:
        if tree is None and loader is None:
            raise ValueError("FlowDBEntry needs a tree or a loader")
        self.entry_id = entry_id
        self.location = location
        self.interval = interval
        self._tree = tree
        self._loader = loader

    @property
    def tree(self) -> Flowtree:
        """The summary tree (loaded from the engine on first access)."""
        if self._tree is None:
            self._tree = self._loader()
        return self._tree

    @property
    def loaded(self) -> bool:
        """Whether the tree is materialized in memory."""
        return self._tree is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlowDBEntry(id={self.entry_id}, location={self.location!r}, "
            f"interval={self.interval}, loaded={self.loaded})"
        )


class FlowDB:
    """An indexed store of Flowtree summaries answering merged queries."""

    def __init__(
        self,
        merge_node_budget: Optional[int] = 65536,
        engine: Optional[StorageEngine] = None,
    ) -> None:
        self.merge_node_budget = merge_node_budget
        #: where entries are made durable (memory by default)
        self.engine = engine or MemoryEngine()
        self._entries: List[FlowDBEntry] = []
        self._by_location: Dict[str, List[FlowDBEntry]] = {}
        self._starts: List[float] = []  # parallel to _entries (sorted)

    def __len__(self) -> int:
        return len(self._entries)

    # -- ingest ------------------------------------------------------------

    def insert_summary(self, summary: DataSummary) -> FlowDBEntry:
        """Index one exported Flowtree summary."""
        if summary.kind != "flowtree":
            raise SchemaMismatchError(
                f"FlowDB stores flowtree summaries, got {summary.kind!r}"
            )
        return self.insert(
            location=summary.meta.location.path,
            interval=summary.meta.interval,
            tree=summary.payload,
        )

    def insert(
        self, location: str, interval: TimeInterval, tree: Flowtree
    ) -> FlowDBEntry:
        """Index one Flowtree for a location and time interval."""
        if self._entries and not self._entries[0].tree.policy.compatible_with(
            tree.policy
        ):
            raise SchemaMismatchError(
                "tree policy incompatible with trees already in FlowDB"
            )
        entry = FlowDBEntry(
            entry_id=next(_entry_counter),
            location=location,
            interval=interval,
            tree=tree,
        )
        self._index(entry)
        self.engine.append_summary(location, interval, tree)
        return entry

    def _index(self, entry: FlowDBEntry) -> None:
        index = bisect.bisect(self._starts, entry.interval.start)
        self._starts.insert(index, entry.interval.start)
        self._entries.insert(index, entry)
        self._by_location.setdefault(entry.location, []).append(entry)
        stores_changed()

    # -- recovery ----------------------------------------------------------

    def recover(self, policy: GeneralizationPolicy) -> int:
        """Drop the in-memory index and rebuild it from the engine.

        Trees recovered from a durable engine stay unmaterialized until
        first access; ``policy`` is needed to decode them (schemas hold
        feature objects that do not round-trip through JSON).  Returns
        the number of entries indexed.
        """
        self._entries = []
        self._by_location = {}
        self._starts = []
        stores_changed()
        for record in self.engine.iter_summaries(policy):
            self._index(
                FlowDBEntry(
                    entry_id=next(_entry_counter),
                    location=record.location,
                    interval=record.interval,
                    loader=record.load,
                )
            )
        return len(self._entries)

    def relabel(self, old: str, new: str) -> int:
        """Re-home every entry of one location under a new label.

        Elastic reconfigurations rename sites; the index moves the
        entries immediately and the engine records the rename for its
        own storage (a segment log applies it physically at the next
        compaction).  Returns how many entries moved.
        """
        if old == new:
            return 0
        self.engine.relabel(old, new)
        moved = self._by_location.pop(old, None)
        if not moved:
            return 0
        for entry in moved:
            entry.location = new
        stores_changed()
        merged = self._by_location.get(new, []) + moved
        merged.sort(key=lambda e: e.entry_id)
        self._by_location[new] = merged
        return len(moved)

    # -- lookup ------------------------------------------------------------

    def locations(self) -> List[str]:
        """All indexed locations."""
        return sorted(self._by_location)

    def entries(
        self,
        locations: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[FlowDBEntry]:
        """Entries matching a location set and/or time window."""
        if locations is not None:
            # a repeated site must not contribute its entries twice
            locations = list(dict.fromkeys(locations))
            unknown = [l for l in locations if l not in self._by_location]
            if unknown:
                raise FlowQLPlanningError(
                    f"unknown locations {unknown}; indexed: {self.locations()}"
                )
            pool: Iterable[FlowDBEntry] = (
                entry
                for location in locations
                for entry in self._by_location[location]
            )
        else:
            pool = self._entries
        selected = []
        for entry in pool:
            if start is not None and entry.interval.end <= start:
                continue
            if end is not None and entry.interval.start >= end:
                continue
            selected.append(entry)
        selected.sort(key=lambda e: (e.interval.start, e.location))
        return selected

    # -- merged views ---------------------------------------------------------

    def merged_tree(
        self,
        locations: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Flowtree:
        """``compress(union of matching trees)`` — the Section VI recipe,
        by :meth:`Flowtree.union` under :attr:`merge_node_budget` (a lone
        entry's tree comes back itself: read-only).

        Raises :class:`FlowQLPlanningError` when nothing matches, since
        an empty merge would silently answer every query with zero.
        """
        matching = self.entries(locations=locations, start=start, end=end)
        if not matching:
            raise FlowQLPlanningError(
                "no Flowtree summaries match the requested sites/window "
                f"(locations={locations}, start={start}, end={end})"
            )
        return Flowtree.union(
            (((e.interval.start, e.location), e.tree) for e in matching),
            self.merge_node_budget,
        )

    def stats(self) -> Dict[str, int]:
        """Index statistics (entries, locations, total nodes).

        ``total_nodes`` counts materialized trees only — it must not
        defeat lazy segment reads by loading every entry.
        """
        return {
            "entries": len(self._entries),
            "locations": len(self._by_location),
            "loaded_entries": sum(1 for e in self._entries if e.loaded),
            "total_nodes": sum(
                e.tree.node_count for e in self._entries if e.loaded
            ),
        }
