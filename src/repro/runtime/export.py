"""The one export path: a summary leaves a store as one value, through
one function (Figure 5 step 3, Table II *Merge*).

Every door out of a store — a fresh child→parent forward, a fresh
top-store→FlowDB export, the redelivery of either after an outage, the
aggregator hand-off of a reconfiguration — builds its export **once**
(:meth:`ExportPath.build`: sealed by the caller, privacy-guarded here,
id/items/size fixed) and ships it through :meth:`ExportPath.deliver`:
the hop under the retry policy, the landing, the accounting.  The doors
differ only in what they do around that call:

* fresh — build, deliver, park on ``False``;
* drain — peek, deliver, pop on ``True``;
* migration — build, deliver to the target, park on the target's queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.summary import DataSummary
from repro.datastore.store import DataStore
from repro.errors import TransferError
from repro.faults.pending import PendingExport, PendingExportQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import HierarchyRuntime

#: span name of a fresh export, by kind (a redelivery is ``redeliver``)
_FRESH_SPANS = {"forward": "forward", "flowdb": "flowdb_export"}
#: span ``outcome``: [redelivery?][delivered?]
_OUTCOMES = (("parked", "delivered"), ("requeued", "recovered"))


class ExportPath:
    """Builds, ships and parks the exports of one runtime's stores."""

    def __init__(self, runtime: "HierarchyRuntime") -> None:
        self.runtime = runtime
        #: parked exports awaiting redelivery, by holding store path
        self.queues: Dict[str, PendingExportQueue] = {}

    def queue_for(self, store: DataStore) -> PendingExportQueue:
        """The pending-export queue held at ``store``."""
        path = store.location.path
        return self.queues.setdefault(path, PendingExportQueue())

    def _volume(self, store: DataStore):
        """The volume bucket of the level ``store`` sits at."""
        node = self.runtime.hierarchy.node(store.location)
        return self.runtime.stats.level(node.level.name)

    def transfer(self, volume, send, size_bytes, now):
        """Run one transfer through the bounded retry/backoff schedule.

        ``send(at_time)`` performs the transfer at a simulated time;
        attempt *n* runs at ``now`` plus the accumulated backoff.
        Returns ``(result, True)`` on delivery or ``(last_error,
        False)`` when the retry budget is exhausted; every attempt is
        accounted in the level's volume bucket.
        """
        runtime = self.runtime
        last_error: Optional[TransferError] = None
        for attempt, at_time in runtime.retry_policy.attempt_times(now):
            volume.transfer_attempts += 1
            if attempt > 0:
                volume.retried_bytes += size_bytes
            with runtime.obs.span(
                "attempt", n=attempt, at=at_time, size_bytes=size_bytes
            ) as span:
                try:
                    return send(at_time), True
                except TransferError as exc:
                    volume.transfer_failures += 1
                    span.fail(getattr(exc, "reason", None) or str(exc))
                    link = getattr(exc, "link", None)
                    if link is not None:
                        span.set_attr("link", link)
                    last_error = exc
        return last_error, False

    def build(
        self,
        store: DataStore,
        kind: str,
        export_id: str,
        aggregator: str,
        sealed: DataSummary,
        items: int,
        now: float,
    ) -> PendingExport:
        """Fix what leaves ``store``: the one place an export is made.

        ``sealed`` is the epoch's sealed summary (the retained
        partition itself where the store keeps one).  The hop leaves the
        store's trust domain, so a guarded store ships the
        policy-degraded view — computed here, once, however many
        attempts and closes the delivery takes.
        """
        outgoing = sealed
        if store.privacy is not None:
            outgoing = store.privacy.export(aggregator, sealed)
        return PendingExport(
            export_id=export_id,
            kind=kind,
            summary=outgoing,
            items=items,
            size_bytes=outgoing.size_bytes,
            origin=store.location.path,
            label=aggregator if kind == "forward" else export_id,
            created_at=now,
        )

    def deliver(
        self,
        export: PendingExport,
        origin: DataStore,
        target: Optional[DataStore],
        now: float,
    ) -> bool:
        """Ship ``export`` from ``origin`` into ``target`` (``None``:
        FlowDB at the root): the hop, the landing, the accounting.

        An export on its way again (``attempts > 0``) arrives *delayed*:
        it joins the target's current epoch window, so the shared-time
        merge precondition holds against this close's fresh exports.
        Returns ``False`` — nothing landed, nothing counted but the
        attempts — when the link stayed down through every retry.
        """
        runtime = self.runtime
        late = export.attempts > 0
        size = export.size_bytes
        root = runtime.hierarchy.root.location
        destination = root if target is None else target.location
        volume = self._volume(origin)
        with runtime.obs.span(
            "redeliver" if late else _FRESH_SPANS[export.kind],
            export_id=export.export_id,
            kind=export.kind,
            target=destination.path,
            size_bytes=size,
        ) as span:
            # a store at the root hands its partitions over in place
            delivered = origin.location == destination
            if not delivered:
                _, delivered = self.transfer(
                    volume,
                    lambda at: runtime.fabric.transfer(
                        origin.location, destination, size, at
                    ),
                    size,
                    now,
                )
            span.set_attr("outcome", _OUTCOMES[late][delivered])
        if not delivered:
            return False
        if target is None:
            runtime.db.insert(
                location=runtime.site_label(origin.location),
                interval=export.summary.meta.interval,
                tree=export.summary.payload,
            )
            runtime.stats.exported_bytes += size
            runtime.stats.exported_summaries += 1
        else:
            target.receive_summary(
                origin, export.label, export.summary, export.items, now,
                window=(runtime._last_close, now) if late else None,
            )
            self._volume(target).summary_bytes_in += size
        volume.summary_bytes_out += size
        volume.exports += 1
        if late:
            volume.exports_recovered += 1
        return True

    def park(
        self, export: PendingExport, origin: DataStore, holder: DataStore
    ) -> bool:
        """Queue an undelivered export at ``holder`` for a later close."""
        parked = self.queue_for(holder).park(export)
        if parked:
            self._volume(origin).exports_parked += 1
        return parked

    def drain(
        self, store: DataStore, parent: Optional[DataStore], now: float
    ) -> int:
        """Redeliver the exports parked at ``store``, oldest first.

        Runs before the store's fresh export so recovered mass joins
        the current rollup.  An entry leaves the queue only once it has
        landed; one that fails again stops the drain — the entries
        behind it would cross the same links.  A forward whose level
        lost its ancestor store (``parent`` is ``None`` after a
        reconfiguration) goes straight to FlowDB rather than strand the
        data.  Returns how many parked summaries reached FlowDB.
        """
        queue = self.queues.get(store.location.path)
        exported = 0
        while queue:
            entry = queue.entries[0]
            entry.attempts += 1
            target = parent if entry.kind == "forward" else None
            if not self.deliver(entry, store, target, now):
                break
            queue.pop()
            queue.mark_delivered(entry.export_id)
            # a delivered re-homed migration is no longer in flight
            self.runtime.model.ledger.resolve(entry.export_id)
            if target is None:
                exported += 1
        return exported
