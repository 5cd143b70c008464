"""Exports as values, and where they wait: *delayed, never lost*.

Every summary that leaves a store is one :class:`PendingExport`, built
once and shipped by :mod:`repro.runtime.export`.  One that exhausts its
retry budget inside an epoch close is parked, as is, in the store's
:class:`PendingExportQueue`.  The next epoch close drains the queue
before shipping fresh exports — deepest-first rollup order means a
recovered child summary still reaches the root in the same close.

Delivery is at-least-once per epoch partition; the queue dedups by
``export_id`` so a crashy redelivery path cannot double-count mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import StorageError


@dataclass
class PendingExport:
    """One epoch export: sealed once, guarded once, id and size fixed.

    ``summary`` is the :class:`~repro.core.primitive.DataSummary`
    exactly as it crosses the link — the epoch's sealed summary itself,
    or its privacy-degraded view where the origin has a guard — so a
    redelivery never re-applies privacy rules and never observes
    post-close mutations of the source aggregator.  Receivers only
    read it.
    """

    export_id: str
    #: ``"forward"`` (child → parent combine) or ``"flowdb"`` (root → DB)
    kind: str
    summary: Any
    items: int
    size_bytes: int
    #: hierarchy path of the origin store
    origin: str
    #: aggregator name ("forward") or partition id ("flowdb")
    label: str
    created_at: float
    attempts: int = 0


@dataclass
class PendingExportQueue:
    """FIFO of parked exports for one store, deduped by export id."""

    entries: List[PendingExport] = field(default_factory=list)
    _queued_ids: Set[str] = field(default_factory=set, repr=False)
    _delivered_ids: Set[str] = field(default_factory=set, repr=False)

    def park(self, export: PendingExport) -> bool:
        """Queue an export unless it is already queued or delivered."""
        if (
            export.export_id in self._queued_ids
            or export.export_id in self._delivered_ids
        ):
            return False
        self.entries.append(export)
        self._queued_ids.add(export.export_id)
        return True

    def pop(self) -> Optional[PendingExport]:
        """Take the oldest parked export (``entries[0]``) off the queue,
        or ``None`` when empty; the drain does so once it has landed."""
        if not self.entries:
            return None
        export = self.entries.pop(0)
        self._queued_ids.discard(export.export_id)
        return export

    def mark_delivered(self, export_id: str) -> None:
        self._delivered_ids.add(export_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    @property
    def has_state(self) -> bool:
        """Whether a checkpoint must carry this queue: parked entries,
        or delivered ids a replay after recovery still dedups against."""
        return bool(self.entries or self._delivered_ids)

    @property
    def pending_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries)

    @property
    def pending_items(self) -> int:
        return sum(entry.items for entry in self.entries)

    # -- durability --------------------------------------------------------

    def to_state(
        self, encode_summary: Callable[[Any], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """A JSON-safe snapshot of the queue for a storage manifest.

        Everything round-trips through :meth:`from_state`: entry order,
        every entry field (``size_bytes`` is carried verbatim so queue
        byte accounting is identical after a reload, not re-derived
        from a re-encoded payload), the queued-id set, and — crucially
        for at-least-once delivery — the delivered-id set, so a replay
        after recovery cannot double-count mass.  Entries whose summary
        has no durable codec are skipped and counted in ``"skipped"``.
        """
        entries = []
        skipped = 0
        for entry in self.entries:
            try:
                summary = encode_summary(entry.summary)
            except StorageError:
                skipped += 1
                continue
            entries.append(
                {
                    "export_id": entry.export_id,
                    "kind": entry.kind,
                    "summary": summary,
                    "items": entry.items,
                    "size_bytes": entry.size_bytes,
                    "origin": entry.origin,
                    "label": entry.label,
                    "created_at": entry.created_at,
                    "attempts": entry.attempts,
                }
            )
        return {
            "entries": entries,
            "queued_ids": sorted(self._queued_ids),
            "delivered_ids": sorted(self._delivered_ids),
            "skipped": skipped,
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, Any],
        decode_summary: Callable[[Dict[str, Any]], Any],
    ) -> "PendingExportQueue":
        """Rebuild a queue snapshotted with :meth:`to_state`."""
        queue = cls()
        for record in state.get("entries", []):
            queue.entries.append(
                PendingExport(
                    export_id=record["export_id"],
                    kind=record["kind"],
                    summary=decode_summary(record["summary"]),
                    items=record["items"],
                    size_bytes=record["size_bytes"],
                    origin=record["origin"],
                    label=record["label"],
                    created_at=record["created_at"],
                    attempts=record.get("attempts", 0),
                )
            )
        # not the saved ``queued_ids``: ids of skipped (non-durable)
        # entries must not linger as queued — they are gone, and a
        # future park of the same id should be allowed to re-queue
        queue._queued_ids = {entry.export_id for entry in queue.entries}
        queue._delivered_ids = set(state.get("delivered_ids", []))
        return queue
