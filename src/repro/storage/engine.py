"""The pluggable storage seam: where FlowDB state lives.

:class:`StorageEngine` is the interface the runtime and FlowDB
program against:

* **record log** — :meth:`append_summary` receives every sealed
  Flowtree summary FlowDB indexes; :meth:`iter_summaries` streams them
  back (lazily where the engine can) for recovery.
* **epoch seals** — :meth:`seal_epoch` marks an epoch boundary, the
  durability point of the whole system: everything appended since the
  previous seal becomes a unit (a segment, on disk).
* **manifest** — :meth:`write_manifest` / :meth:`read_manifest`
  checkpoint the runtime state that is *not* in the record log (pending
  queues, replicas, epoch counters, topology generation).
* **relabel / compact** — elastic reconfigurations rename sites;
  :meth:`relabel` records the rename logically, and :meth:`compact`
  makes it physical while reclaiming superseded storage.

:class:`MemoryEngine` is the default and preserves the pre-seam
behavior exactly: records are references to the live trees (no
serialization on the hot path), the manifest is a held dict, and
nothing touches disk — yet restart drills still exercise the same
recovery code path a durable engine does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.summary import TimeInterval
from repro.flows.flowkey import GeneralizationPolicy
from repro.flows.tree import Flowtree


@dataclass(frozen=True)
class SummaryRecord:
    """One logged summary, with a lazy payload loader.

    ``load`` parses/returns the Flowtree only when called, so engines
    that store records on disk can index thousands of summaries while
    materializing none of them until a query actually needs the tree.
    """

    location: str
    interval: TimeInterval
    load: Callable[[], Flowtree]


class StorageEngine:
    """Base class for FlowDB/runtime storage engines.

    Subclasses implement the record log, seals, and manifest; the base
    class carries the uniform :meth:`stats` counters every engine shares.
    """

    #: whether state survives the hosting process (drives CLI messaging
    #: and lets callers skip durability-only work for memory engines)
    durable: bool = False
    name: str = "abstract"

    def __init__(self) -> None:
        self._manifest_writes = 0
        self._compactions = 0
        self._reclaimed_bytes = 0

    # -- record log ---------------------------------------------------------

    def append_summary(
        self, location: str, interval: TimeInterval, tree: Flowtree
    ) -> None:
        raise NotImplementedError

    def iter_summaries(
        self, policy: GeneralizationPolicy
    ) -> Iterator[SummaryRecord]:
        raise NotImplementedError

    def record_count(self) -> int:
        raise NotImplementedError

    # -- epoch seals --------------------------------------------------------

    def seal_epoch(self, epoch: int, meta: Optional[dict] = None) -> None:
        """Close the current epoch's records into one durable unit."""
        raise NotImplementedError

    # -- manifest -----------------------------------------------------------

    def write_manifest(self, state: dict) -> None:
        raise NotImplementedError

    def read_manifest(self) -> Optional[dict]:
        raise NotImplementedError

    # -- maintenance --------------------------------------------------------

    def relabel(self, old: str, new: str) -> None:
        raise NotImplementedError

    def compact(self) -> Dict[str, int]:
        """Fold superseded storage together; returns reclaim stats."""
        raise NotImplementedError

    def segments(self) -> List[Dict[str, Any]]:
        """Census rows for the ``repro segments`` CLI (may be empty)."""
        return []

    def stats(self) -> Dict[str, Any]:
        """Uniform counters for observability and the CLI census."""
        return {
            "engine": self.name,
            "durable": self.durable,
            "records": self.record_count(),
            "segments": len(self.segments()),
            "segment_bytes": sum(
                int(row.get("bytes", 0)) for row in self.segments()
            ),
            "manifest_writes": self._manifest_writes,
            "compactions": self._compactions,
            "reclaimed_bytes": self._reclaimed_bytes,
        }

    def close(self) -> None:
        """Release any engine resources (files, handles)."""


class MemoryEngine(StorageEngine):
    """Today's exact behavior behind the seam: everything in process.

    Records keep *references* to the live trees (zero serialization on
    the export path, bit-identical runs), the manifest is a retained
    dict, and seals only advance counters.  A restart drill against a
    memory engine still goes through the full discard-and-recover code
    path — it just recovers from process memory instead of disk, which
    is what lets one test suite drive both engines.
    """

    durable = False
    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._records: List[tuple] = []  # (location, interval, tree)
        self._manifest: Optional[dict] = None
        self._sealed_epochs: List[Dict[str, Any]] = []

    def append_summary(
        self, location: str, interval: TimeInterval, tree: Flowtree
    ) -> None:
        self._records.append((location, interval, tree))

    def iter_summaries(
        self, policy: GeneralizationPolicy
    ) -> Iterator[SummaryRecord]:
        for location, interval, tree in list(self._records):
            yield SummaryRecord(
                location=location,
                interval=interval,
                load=(lambda t=tree: t),
            )

    def record_count(self) -> int:
        return len(self._records)

    def seal_epoch(self, epoch: int, meta: Optional[dict] = None) -> None:
        entry: Dict[str, Any] = {"epoch": epoch}
        if meta:
            entry.update(meta)
        self._sealed_epochs.append(entry)

    def write_manifest(self, state: dict) -> None:
        self._manifest = state
        self._manifest_writes += 1

    def read_manifest(self) -> Optional[dict]:
        return self._manifest

    def relabel(self, old: str, new: str) -> None:
        self._records = [
            (new if location == old else location, interval, tree)
            for location, interval, tree in self._records
        ]

    def compact(self) -> Dict[str, int]:
        # nothing is ever superseded in memory; report a no-op
        return {"segments_removed": 0, "reclaimed_bytes": 0}

    def sealed_epochs(self) -> List[Dict[str, Any]]:
        """The seal history (epoch index + seal metadata), in order."""
        return list(self._sealed_epochs)
