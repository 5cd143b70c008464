"""The on-disk engine: an append-only segment log plus a manifest.

Layout of a data directory::

    <data_dir>/
      MANIFEST.json          # the commit point (atomic_write_json)
      segments/
        seg-00000001.log     # length-prefixed, CRC'd summary records
                             # (payload: encode_tree, zlib'd columns)
        seg-00000002.log
        ...

Summaries appended during an epoch buffer in memory; ``seal_epoch``
writes them as one fsynced segment file.  The manifest — written with
the fsync-before-rename protocol after every epoch close — is the
single source of truth: it lists the live segments, the pending
relabels, and the runtime checkpoint (pending queues, replicas, epoch
counters, topology generation).  Recovery reads the manifest, scans the
listed segments' *headers* (payloads stay on disk until a query needs
the tree), and ignores any segment file the manifest does not name — a
crash between a segment write and its manifest commit simply rolls the
store back to the previous epoch boundary, never to a torn state.

Elastic renames are recorded logically (``relabel``) and applied at
read time; :meth:`compact` makes them physical by rewriting every live
record — new labels, one coalesced segment — and deleting the
superseded files.  Compaction triggers automatically when the live
segment count passes ``compact_threshold`` (checked at seal time, so
runs stay deterministic) or explicitly via the CLI.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional

from repro.core.summary import TimeInterval
from repro.errors import StorageError
from repro.flows.flowkey import GeneralizationPolicy
from repro.flows.tree import Flowtree
from repro.storage.codec import (
    atomic_write_json,
    decode_tree,
    encode_record,
    encode_tree,
    fsync_directory,
    read_payload,
    scan_records,
)
from repro.storage.engine import StorageEngine, SummaryRecord

MANIFEST_NAME = "MANIFEST.json"
SEGMENT_DIR = "segments"
#: 2: record payloads are :func:`~repro.storage.codec.encode_tree`
#: columns; a version-1 directory held one JSON object per node
MANIFEST_FORMAT_VERSION = 2


class SegmentLogEngine(StorageEngine):
    """Durable FlowDB storage: segment files sealed per epoch."""

    durable = True
    name = "segment-log"

    def __init__(
        self, data_dir: str, compact_threshold: int = 8
    ) -> None:
        super().__init__()
        if compact_threshold < 2:
            raise StorageError(
                f"compact_threshold must be >= 2, got {compact_threshold}"
            )
        self.data_dir = os.path.abspath(data_dir)
        self.compact_threshold = compact_threshold
        self.segment_dir = os.path.join(self.data_dir, SEGMENT_DIR)
        os.makedirs(self.segment_dir, exist_ok=True)
        #: records appended since the last seal: (header, payload bytes)
        self._active: List[tuple] = []
        #: live segment census rows, manifest order
        self._segments: List[Dict[str, Any]] = []
        #: logical renames awaiting physical application by compaction
        self._relabels: Dict[str, str] = {}
        self._manifest: Optional[dict] = None
        self._next_seq = 1
        self._orphans = 0
        self._load_existing()

    # -- open ---------------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.data_dir, MANIFEST_NAME)

    def _load_existing(self) -> None:
        try:
            with open(self._manifest_path()) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            document = None
        except json.JSONDecodeError as exc:
            raise StorageError(
                f"corrupt manifest at {self._manifest_path()!r}: {exc}"
            ) from exc
        if document is not None:
            version = document.get("format_version")
            if version != MANIFEST_FORMAT_VERSION:
                raise StorageError(
                    f"unsupported manifest format version {version!r} "
                    f"at {self._manifest_path()!r}: this build reads "
                    f"version {MANIFEST_FORMAT_VERSION}"
                )
            self._segments = [
                dict(row) for row in document.get("segments", [])
            ]
            self._relabels = dict(document.get("relabels", {}))
            self._manifest = document.get("runtime")
        listed = {row["file"] for row in self._segments}
        on_disk = sorted(
            name
            for name in os.listdir(self.segment_dir)
            if name.startswith("seg-") and name.endswith(".log")
        )
        # a segment written after the last manifest commit is not part
        # of recovered state (the close that produced it never became
        # durable); count it and step the sequence past it
        self._orphans = sum(1 for name in on_disk if name not in listed)
        highest = 0
        for name in on_disk + sorted(listed):
            try:
                highest = max(highest, int(name[4:-4]))
            except ValueError:
                continue
        self._next_seq = highest + 1

    # -- record log ---------------------------------------------------------

    def append_summary(
        self, location: str, interval: TimeInterval, tree: Flowtree
    ) -> None:
        header = {
            "kind": "flowtree",
            "location": location,
            "start": interval.start,
            "end": interval.end,
        }
        self._active.append((header, encode_tree(tree)))

    def iter_summaries(
        self, policy: GeneralizationPolicy
    ) -> Iterator[SummaryRecord]:
        for row in self._segments:
            path = os.path.join(self.segment_dir, row["file"])
            try:
                handle = open(path, "rb")
            except FileNotFoundError as exc:
                raise StorageError(
                    f"manifest names missing segment {row['file']!r}"
                ) from exc
            with handle:
                scanned = list(scan_records(handle))
            for header, record_offset, _payload_len in scanned:
                yield self._record_from(policy, path, header, record_offset)
        for header, payload in list(self._active):
            yield SummaryRecord(
                location=self._relabels.get(
                    header["location"], header["location"]
                ),
                interval=TimeInterval(header["start"], header["end"]),
                load=(
                    lambda data=payload, p=policy: decode_tree(data, p)
                ),
            )

    def _record_from(
        self,
        policy: GeneralizationPolicy,
        path: str,
        header: Dict[str, Any],
        record_offset: int,
    ) -> SummaryRecord:
        def load() -> Flowtree:
            return decode_tree(read_payload(path, record_offset), policy)

        return SummaryRecord(
            location=self._relabels.get(
                header["location"], header["location"]
            ),
            interval=TimeInterval(header["start"], header["end"]),
            load=load,
        )

    def record_count(self) -> int:
        return sum(int(row["records"]) for row in self._segments) + len(
            self._active
        )

    # -- epoch seals --------------------------------------------------------

    def seal_epoch(self, epoch: int, meta: Optional[dict] = None) -> None:
        if not self._active:
            return
        name = f"seg-{self._next_seq:08d}.log"
        self._next_seq += 1
        path = os.path.join(self.segment_dir, name)
        size = self._write_segment(path, self._active)
        row: Dict[str, Any] = {
            "file": name,
            "records": len(self._active),
            "bytes": size,
            "epoch": epoch,
        }
        if meta:
            row.update(meta)
        self._segments.append(row)
        self._active = []
        if len(self._segments) > self.compact_threshold:
            self.compact()

    def _write_segment(self, path: str, records: List[tuple]) -> int:
        size = 0
        with open(path, "wb") as handle:
            for header, payload in records:
                frame = encode_record(header, payload)
                handle.write(frame)
                size += len(frame)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(self.segment_dir)
        return size

    # -- manifest -----------------------------------------------------------

    def write_manifest(self, state: dict) -> None:
        self._manifest = state
        document = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "engine": self.name,
            "segments": self._segments,
            "relabels": self._relabels,
            "runtime": state,
        }
        atomic_write_json(self._manifest_path(), document)
        self._manifest_writes += 1

    def read_manifest(self) -> Optional[dict]:
        return self._manifest

    # -- maintenance --------------------------------------------------------

    def relabel(self, old: str, new: str) -> None:
        # chain-resolve so a->b followed by b->c reads as a->c
        for source, target in list(self._relabels.items()):
            if target == old:
                self._relabels[source] = new
        if old not in self._relabels:
            self._relabels[old] = new
        for header, _payload in self._active:
            if header["location"] == old:
                header["location"] = new

    def compact(self) -> Dict[str, int]:
        """Rewrite every live record into one segment; drop the rest.

        Relabels become physical (headers rewritten), superseded files
        are deleted, and the relabel map empties.  Records that fail
        their CRC are dropped — they were unreadable anyway — and
        counted in the returned stats.
        """
        if not self._segments:
            # still make pending relabels physical for active records
            self._relabels = {}
            return {"segments_removed": 0, "reclaimed_bytes": 0,
                    "dropped_records": 0}
        survivors: List[tuple] = []
        dropped = 0
        old_files = [row["file"] for row in self._segments]
        old_bytes = sum(int(row["bytes"]) for row in self._segments)
        last_epoch = max(int(row.get("epoch", 0)) for row in self._segments)
        for row in self._segments:
            path = os.path.join(self.segment_dir, row["file"])
            with open(path, "rb") as handle:
                scanned = list(scan_records(handle))
            for header, record_offset, _payload_len in scanned:
                try:
                    payload = read_payload(path, record_offset)
                except StorageError:
                    dropped += 1
                    continue
                header = dict(header)
                header["location"] = self._relabels.get(
                    header["location"], header["location"]
                )
                survivors.append((header, payload))
        name = f"seg-{self._next_seq:08d}.log"
        self._next_seq += 1
        path = os.path.join(self.segment_dir, name)
        size = self._write_segment(path, survivors)
        self._segments = [
            {
                "file": name,
                "records": len(survivors),
                "bytes": size,
                "epoch": last_epoch,
                "compacted": True,
            }
        ]
        self._relabels = {}
        # commit the new census before deleting the files it supersedes:
        # a crash in between leaves extra (orphaned) segments, never a
        # manifest that names missing ones
        if self._manifest is not None:
            self.write_manifest(self._manifest)
        for stale in old_files:
            try:
                os.remove(os.path.join(self.segment_dir, stale))
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        fsync_directory(self.segment_dir)
        reclaimed = max(0, old_bytes - size)
        self._compactions += 1
        self._reclaimed_bytes += reclaimed
        return {
            "segments_removed": len(old_files),
            "reclaimed_bytes": reclaimed,
            "dropped_records": dropped,
        }

    def segments(self) -> List[Dict[str, Any]]:
        return [dict(row) for row in self._segments]

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["active_records"] = len(self._active)
        stats["relabels_pending"] = len(self._relabels)
        stats["orphan_segments"] = self._orphans
        stats["data_dir"] = self.data_dir
        return stats
