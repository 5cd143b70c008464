"""Serialization shared by every storage engine.

Four codecs live here:

* **atomic JSON** — :func:`atomic_write_json` is the one durable-write
  primitive in the repository: temp file, ``flush`` + ``fsync``,
  ``os.replace``, then ``fsync`` of the containing directory, so a
  crash at any instant leaves either the old document or the new one,
  never a torn or empty file.
* **trees** — :func:`encode_tree` / :func:`decode_tree` are a segment
  record's payload: the tree's :meth:`~repro.flows.tree.Flowtree.
  to_dict` columns as compact JSON, ``zlib``-compressed at level 1.
  A payload that does not decompress, is not JSON or is not a tree
  raises :class:`~repro.errors.MalformedSummaryError`.
* **summaries** — :func:`encode_summary` / :func:`decode_summary` turn
  a :class:`~repro.core.summary.DataSummary` into a JSON-safe record
  and back (checkpoints store these inside the manifest).  Flowtree
  payloads ride on the same :meth:`~repro.flows.tree.Flowtree.to_dict`
  columns, uncompressed; other kinds raise :class:`~repro.errors.
  StorageError` — callers skip them and account the skip rather than
  silently persisting something that cannot be read back.
* **segment records** — :func:`encode_record` / :func:`scan_records`
  implement the length-prefixed on-disk record framing
  (``[u32 header_len][header JSON][u32 payload_len][payload]
  [u32 crc32]``).  Scanning reads headers only and *seeks past*
  payloads, which is what makes segment opens lazy; the CRC covers
  header + payload and is verified when a payload is actually loaded.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, BinaryIO, Dict, Iterator, Tuple

from repro.core.summary import DataSummary, Location, SummaryMeta, TimeInterval
from repro.errors import MalformedSummaryError, StorageError
from repro.flows.flowkey import GeneralizationPolicy
from repro.flows.tree import Flowtree

_U32 = struct.Struct("<I")


def fsync_directory(path: str) -> None:
    """Flush a directory's entry table (ignored where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX directory handles
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - some filesystems refuse dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str, document: Any) -> int:
    """Durably replace ``path`` with ``document``; returns bytes written.

    The temp file is fsynced before the rename and the directory after
    it, so the rename itself is the commit point: a crash before it
    keeps the old file, a crash after it keeps the new one, and neither
    can surface truncated or empty content after a power loss.
    """
    payload = json.dumps(document, separators=(",", ":"))
    temp_path = f"{path}.tmp"
    with open(temp_path, "w") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)
    fsync_directory(os.path.dirname(os.path.abspath(path)))
    return len(payload)


# ---------------------------------------------------------------------------
# Flowtree <-> segment payload

#: zlib level of a stored tree.  Encoding runs inside every close: on a
#: 3 276-node tree, level 1 packs the columns' JSON to a sixth in about
#: 1 ms, and level 6 saves another quarter of the bytes for three times
#: the time.
TREE_ZLIB_LEVEL = 1


def encode_tree(tree: Flowtree) -> bytes:
    """A tree as a segment record stores it: its
    :meth:`~repro.flows.tree.Flowtree.to_dict` columns as compact JSON,
    zlib-compressed at :data:`TREE_ZLIB_LEVEL`."""
    document = json.dumps(tree.to_dict(), separators=(",", ":"))
    return zlib.compress(document.encode("ascii"), TREE_ZLIB_LEVEL)


def decode_tree(payload: bytes, policy: GeneralizationPolicy) -> Flowtree:
    """Rebuild a tree encoded with :func:`encode_tree`.

    A payload that is not zlib data, not JSON once inflated, or not a
    serialized tree raises :class:`~repro.errors.MalformedSummaryError`
    (a CRC only proves the bytes are the ones written, not that a tree
    was written).
    """
    try:
        document = json.loads(zlib.decompress(payload))
    except (zlib.error, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise MalformedSummaryError(
            f"segment payload is not an encoded Flowtree: {exc!r}"
        ) from exc
    return Flowtree.from_dict(document, policy)


# ---------------------------------------------------------------------------
# DataSummary <-> JSON-safe dict


def encode_summary(summary: DataSummary) -> Dict[str, Any]:
    """A JSON-safe envelope for one summary (flowtree payloads only)."""
    if summary.kind != "flowtree" or not isinstance(summary.payload, Flowtree):
        raise StorageError(
            f"summaries of kind {summary.kind!r} have no durable codec; "
            "only flowtree payloads persist"
        )
    return {
        "kind": summary.kind,
        "location": summary.meta.location.path,
        "start": summary.meta.interval.start,
        "end": summary.meta.interval.end,
        "lineage_id": summary.meta.lineage_id,
        "size_bytes": summary.size_bytes,
        "attrs": dict(summary.attrs),
        "tree": summary.payload.to_dict(),
    }


def decode_summary(
    record: Dict[str, Any], policy: GeneralizationPolicy
) -> DataSummary:
    """Rebuild a summary encoded with :func:`encode_summary`."""
    if record.get("kind") != "flowtree":
        raise StorageError(
            f"cannot decode summary of kind {record.get('kind')!r}"
        )
    return DataSummary(
        kind="flowtree",
        meta=SummaryMeta(
            interval=TimeInterval(record["start"], record["end"]),
            location=Location(record["location"]),
            lineage_id=record.get("lineage_id"),
        ),
        payload=Flowtree.from_dict(record["tree"], policy),
        size_bytes=record["size_bytes"],
        attrs=dict(record.get("attrs", {})),
    )


# ---------------------------------------------------------------------------
# segment record framing


def encode_record(header: Dict[str, Any], payload: bytes) -> bytes:
    """Frame one record: lengths up front, CRC-32 of both parts behind."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(header_bytes + payload) & 0xFFFFFFFF
    return b"".join(
        (
            _U32.pack(len(header_bytes)),
            header_bytes,
            _U32.pack(len(payload)),
            payload,
            _U32.pack(crc),
        )
    )


def scan_records(
    handle: BinaryIO,
) -> Iterator[Tuple[Dict[str, Any], int, int]]:
    """Yield ``(header, record_offset, payload_len)`` per framed record.

    Payloads are *not* read — the scan seeks past them, so opening a
    multi-megabyte segment costs only its headers.  A truncated tail
    (crash mid-append) ends the scan cleanly at the last whole record;
    a header that is not valid JSON stops it too (the CRC of any
    record behind a corrupt length field is unverifiable anyway).
    ``record_offset`` is the offset of the record's first byte, the
    address :func:`read_payload` takes.
    """
    while True:
        record_offset = handle.tell()
        prefix = handle.read(_U32.size)
        if len(prefix) < _U32.size:
            return
        (header_len,) = _U32.unpack(prefix)
        header_bytes = handle.read(header_len)
        if len(header_bytes) < header_len:
            return
        try:
            header = json.loads(header_bytes)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        length_bytes = handle.read(_U32.size)
        if len(length_bytes) < _U32.size:
            return
        (payload_len,) = _U32.unpack(length_bytes)
        payload_end = handle.tell() + payload_len
        handle.seek(payload_len, os.SEEK_CUR)
        crc_bytes = handle.read(_U32.size)
        if len(crc_bytes) < _U32.size or handle.tell() != (
            payload_end + _U32.size
        ):
            return
        yield header, record_offset, payload_len


def read_payload(path: str, record_offset: int) -> bytes:
    """Load one record's payload, verifying the stored CRC-32."""
    with open(path, "rb") as handle:
        handle.seek(record_offset)
        prefix = handle.read(_U32.size)
        if len(prefix) < _U32.size:
            raise StorageError(
                f"no record at {path} offset {record_offset} "
                "(segment truncated or rewritten)"
            )
        (header_len,) = _U32.unpack(prefix)
        header_bytes = handle.read(header_len)
        length_bytes = handle.read(_U32.size)
        if len(header_bytes) < header_len or len(length_bytes) < _U32.size:
            raise StorageError(
                f"truncated record at {path} offset {record_offset}"
            )
        (payload_len,) = _U32.unpack(length_bytes)
        payload = handle.read(payload_len)
        crc_bytes = handle.read(_U32.size)
        if len(payload) < payload_len or len(crc_bytes) < _U32.size:
            raise StorageError(
                f"truncated record at {path} offset {record_offset}"
            )
        (stored_crc,) = _U32.unpack(crc_bytes)
    crc = zlib.crc32(header_bytes + payload) & 0xFFFFFFFF
    if crc != stored_crc:
        raise StorageError(
            f"CRC mismatch in {path} at offset {record_offset}: "
            "segment record is corrupt"
        )
    return payload
