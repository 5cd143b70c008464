"""Tests for the storage seam: codec framing, engines, segment log."""

import json
import os
import zlib

import pytest

from repro.core.summary import TimeInterval
from repro.errors import MalformedSummaryError, StorageError
from repro.flowdb.db import FlowDB
from repro.flows.records import Score
from repro.flows.tree import Flowtree
from repro.storage import MemoryEngine, SegmentLogEngine, atomic_write_json
from repro.storage.codec import (
    decode_tree,
    encode_record,
    read_payload,
    scan_records,
)
from repro.storage.segment import (
    MANIFEST_FORMAT_VERSION,
    MANIFEST_NAME,
    SEGMENT_DIR,
)


def make_tree(policy, make_key, ports=(80, 443), salt=0):
    tree = Flowtree(policy, node_budget=None)
    for port in ports:
        tree.add(make_key(dst_port=port, src_port=1000 + salt),
                 Score(1, 100 * port, 1))
    return tree


def fill(engine, policy, make_key, epochs=2, sites=("a/r1", "b/r1")):
    """Append one summary per site per epoch and seal each epoch."""
    for epoch in range(epochs):
        interval = TimeInterval(epoch * 60.0, (epoch + 1) * 60.0)
        for site in sites:
            engine.append_summary(
                site, interval, make_tree(policy, make_key, salt=epoch)
            )
        engine.seal_epoch(epoch, meta={"closed_at": interval.end})
    engine.write_manifest({"epochs_closed": epochs})
    return epochs * len(sites)


class TestRecordFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seg.log"
        frames = [
            ({"location": f"site{i}", "start": 0.0, "end": 60.0},
             json.dumps({"i": i}).encode())
            for i in range(3)
        ]
        path.write_bytes(
            b"".join(encode_record(h, p) for h, p in frames)
        )
        with open(path, "rb") as handle:
            scanned = list(scan_records(handle))
        assert [h["location"] for h, _, _ in scanned] == [
            "site0", "site1", "site2"
        ]
        for (header, offset, length), (_, payload) in zip(scanned, frames):
            assert length == len(payload)
            assert read_payload(str(path), offset) == payload

    def test_truncated_tail_ends_scan_cleanly(self, tmp_path):
        path = tmp_path / "seg.log"
        whole = encode_record({"location": "a"}, b"payload-a")
        torn = encode_record({"location": "b"}, b"payload-b")
        path.write_bytes(whole + torn[: len(torn) - 7])
        with open(path, "rb") as handle:
            scanned = list(scan_records(handle))
        assert [h["location"] for h, _, _ in scanned] == ["a"]

    def test_corrupt_payload_fails_crc(self, tmp_path):
        path = tmp_path / "seg.log"
        frame = encode_record({"location": "a"}, b"payload-aaaa")
        # flip one payload byte; lengths and header stay intact
        corrupt = bytearray(frame)
        corrupt[-6] ^= 0xFF
        path.write_bytes(bytes(corrupt))
        with open(path, "rb") as handle:
            scanned = list(scan_records(handle))
        assert len(scanned) == 1  # scan reads headers only
        with pytest.raises(StorageError, match="CRC mismatch"):
            read_payload(str(path), scanned[0][1])

    def test_read_payload_at_bad_offset(self, tmp_path):
        path = tmp_path / "seg.log"
        path.write_bytes(encode_record({"location": "a"}, b"x"))
        with pytest.raises(StorageError):
            read_payload(str(path), 10_000)


class TestAtomicWriteJson:
    def test_replaces_and_fsyncs(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text("old")
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        written = atomic_write_json(str(path), {"k": 1})
        assert json.loads(path.read_text()) == {"k": 1}
        assert written == len('{"k":1}')
        # once for the temp file, once for the directory
        assert len(synced) >= 2
        assert not (tmp_path / "doc.json.tmp").exists()


class TestMemoryEngine:
    def test_records_are_references(self, policy, make_key):
        engine = MemoryEngine()
        tree = make_tree(policy, make_key)
        engine.append_summary("a/r1", TimeInterval(0.0, 60.0), tree)
        record = next(engine.iter_summaries(policy))
        assert record.load() is tree  # zero serialization on this path

    def test_relabel_rewrites_records(self, policy, make_key):
        engine = MemoryEngine()
        engine.append_summary(
            "old", TimeInterval(0.0, 60.0), make_tree(policy, make_key)
        )
        engine.relabel("old", "new")
        assert next(engine.iter_summaries(policy)).location == "new"

    def test_stats_shape(self):
        stats = MemoryEngine().stats()
        assert stats["engine"] == "memory"
        assert stats["durable"] is False
        assert stats["records"] == 0
        assert stats["segments"] == 0


class TestSegmentLogEngine:
    def test_seal_writes_segment_per_epoch(self, policy, make_key, tmp_path):
        engine = SegmentLogEngine(str(tmp_path))
        total = fill(engine, policy, make_key, epochs=3)
        rows = engine.segments()
        assert len(rows) == 3
        assert sum(row["records"] for row in rows) == total
        assert engine.record_count() == total
        for row in rows:
            assert (tmp_path / SEGMENT_DIR / row["file"]).exists()

    def test_empty_epoch_seals_no_segment(self, tmp_path):
        engine = SegmentLogEngine(str(tmp_path))
        engine.seal_epoch(0)
        assert engine.segments() == []

    def test_reopen_recovers_lazily(self, policy, make_key, tmp_path):
        engine = SegmentLogEngine(str(tmp_path))
        db = FlowDB(engine=engine)
        for epoch in range(2):
            db.insert(
                "a/r1",
                TimeInterval(epoch * 60.0, (epoch + 1) * 60.0),
                make_tree(policy, make_key, salt=epoch),
            )
            engine.seal_epoch(epoch)
        engine.write_manifest({"epochs_closed": 2})
        original = db.merged_tree().to_dict()

        reopened = FlowDB(engine=SegmentLogEngine(str(tmp_path)))
        assert reopened.engine.read_manifest() == {"epochs_closed": 2}
        assert reopened.recover(policy) == 2
        stats = reopened.stats()
        assert stats["entries"] == 2
        assert stats["loaded_entries"] == 0  # payloads stay on disk
        assert reopened.merged_tree().to_dict() == original
        assert reopened.stats()["loaded_entries"] == 2

    def test_unlisted_segment_is_orphaned(self, policy, make_key, tmp_path):
        engine = SegmentLogEngine(str(tmp_path))
        fill(engine, policy, make_key, epochs=1)
        # a crash between segment write and manifest commit: the file
        # exists but no manifest names it
        stray = tmp_path / SEGMENT_DIR / "seg-00000099.log"
        stray.write_bytes(encode_record({"location": "x"}, b"{}"))
        reopened = SegmentLogEngine(str(tmp_path))
        assert reopened.stats()["orphan_segments"] == 1
        assert reopened.record_count() == 2  # orphan not recovered
        # the sequence steps past the orphan instead of reusing its name
        reopened.append_summary(
            "a/r1", TimeInterval(60.0, 120.0), make_tree(policy, make_key)
        )
        reopened.seal_epoch(1)
        assert reopened.segments()[-1]["file"] == "seg-00000100.log"

    def test_corrupt_manifest_rejected(self, tmp_path):
        SegmentLogEngine(str(tmp_path)).write_manifest({})
        (tmp_path / MANIFEST_NAME).write_text("{torn")
        with pytest.raises(StorageError, match="corrupt manifest"):
            SegmentLogEngine(str(tmp_path))

    def test_wrong_manifest_version_rejected(self, tmp_path):
        SegmentLogEngine(str(tmp_path)).write_manifest({})
        path = tmp_path / MANIFEST_NAME
        document = json.loads(path.read_text())
        document["format_version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(StorageError, match="format version"):
            SegmentLogEngine(str(tmp_path))

    def test_manifest_of_the_node_list_format_refused(self, tmp_path):
        # version 1 stored one JSON object per node: refused at open,
        # never read as columns
        SegmentLogEngine(str(tmp_path)).write_manifest({})
        path = tmp_path / MANIFEST_NAME
        document = json.loads(path.read_text())
        assert document["format_version"] == MANIFEST_FORMAT_VERSION == 2
        document["format_version"] = 1
        path.write_text(json.dumps(document))
        with pytest.raises(
            StorageError, match=r"format version 1 .*reads version 2"
        ):
            SegmentLogEngine(str(tmp_path))

    def test_manifest_names_missing_segment(self, policy, make_key,
                                            tmp_path):
        engine = SegmentLogEngine(str(tmp_path))
        fill(engine, policy, make_key, epochs=1)
        os.remove(tmp_path / SEGMENT_DIR / engine.segments()[0]["file"])
        reopened = SegmentLogEngine(str(tmp_path))
        with pytest.raises(StorageError, match="missing segment"):
            list(reopened.iter_summaries(policy))

    def test_relabel_chains_and_compact_makes_physical(
        self, policy, make_key, tmp_path
    ):
        engine = SegmentLogEngine(str(tmp_path))
        fill(engine, policy, make_key, epochs=2, sites=("a", "b"))
        engine.relabel("a", "mid")
        engine.relabel("mid", "final")  # chain: a -> final
        locations = {r.location for r in engine.iter_summaries(policy)}
        assert locations == {"final", "b"}
        assert engine.stats()["relabels_pending"] == 2

        result = engine.compact()
        assert result["segments_removed"] == 2
        assert result["dropped_records"] == 0
        assert engine.stats()["relabels_pending"] == 0
        rows = engine.segments()
        assert len(rows) == 1 and rows[0]["compacted"] is True
        # physical now: a fresh open with no relabel map reads new names
        reopened = SegmentLogEngine(str(tmp_path))
        assert {
            r.location for r in reopened.iter_summaries(policy)
        } == {"final", "b"}
        # superseded files are gone
        files = os.listdir(tmp_path / SEGMENT_DIR)
        assert files == [rows[0]["file"]]

    def test_compact_drops_corrupt_records(self, policy, make_key,
                                           tmp_path):
        engine = SegmentLogEngine(str(tmp_path))
        fill(engine, policy, make_key, epochs=1, sites=("a", "b"))
        seg_path = tmp_path / SEGMENT_DIR / engine.segments()[0]["file"]
        blob = bytearray(seg_path.read_bytes())
        # corrupt the last record's payload (CRC is the final 4 bytes)
        blob[-8] ^= 0xFF
        seg_path.write_bytes(bytes(blob))
        result = engine.compact()
        assert result["dropped_records"] == 1
        assert engine.record_count() == 1

    def test_auto_compaction_at_threshold(self, policy, make_key,
                                          tmp_path):
        engine = SegmentLogEngine(str(tmp_path), compact_threshold=3)
        fill(engine, policy, make_key, epochs=5, sites=("a",))
        assert engine.stats()["compactions"] >= 1
        assert len(engine.segments()) <= 3
        assert engine.record_count() == 5

    def test_compact_threshold_validated(self, tmp_path):
        with pytest.raises(StorageError):
            SegmentLogEngine(str(tmp_path), compact_threshold=1)


class TestTreePayloads:
    """A segment record's payload is a tree's columns, zlib'd."""

    @staticmethod
    def _sealed_record(policy, make_key, tmp_path):
        engine = SegmentLogEngine(str(tmp_path))
        fill(engine, policy, make_key, epochs=1, sites=("a/r1",))
        segment = tmp_path / SEGMENT_DIR / engine.segments()[0]["file"]
        with open(segment, "rb") as handle:
            [(header, offset, _length)] = list(scan_records(handle))
        return segment, header, offset

    def test_payload_is_compressed_columns(self, policy, make_key,
                                           tmp_path):
        segment, _header, offset = self._sealed_record(
            policy, make_key, tmp_path
        )
        payload = read_payload(str(segment), offset)
        tree = make_tree(policy, make_key)
        assert json.loads(zlib.decompress(payload)) == tree.to_dict()
        assert decode_tree(payload, policy).to_dict() == tree.to_dict()

    @pytest.mark.parametrize(
        "payload",
        [
            b"not zlib at all",
            zlib.compress(b"{not json", 1),
            zlib.compress(b"\xff\xfe\xfd", 1),
            zlib.compress(b'["not", "a", "tree"]', 1),
        ],
        ids=["not-zlib", "not-json", "not-utf8", "not-a-tree"],
    )
    def test_payload_that_passes_its_crc_but_is_no_tree(
        self, policy, make_key, tmp_path, payload
    ):
        segment, header, _offset = self._sealed_record(
            policy, make_key, tmp_path
        )
        # re-framed, so the CRC holds: the bytes are the ones written
        segment.write_bytes(encode_record(header, payload))
        [record] = SegmentLogEngine(str(tmp_path)).iter_summaries(policy)
        with pytest.raises(MalformedSummaryError):
            record.load()


class TestFlowDBEngineSeam:
    def test_default_engine_is_memory(self):
        assert isinstance(FlowDB().engine, MemoryEngine)

    def test_insert_logs_to_engine(self, policy, make_key):
        db = FlowDB()
        db.insert("a/r1", TimeInterval(0.0, 60.0),
                  make_tree(policy, make_key))
        assert db.engine.record_count() == 1

    def test_memory_recover_rebuilds_index(self, policy, make_key):
        db = FlowDB()
        for site in ("a/r1", "b/r1"):
            db.insert(site, TimeInterval(0.0, 60.0),
                      make_tree(policy, make_key))
        before = db.merged_tree().to_dict()
        assert db.recover(policy) == 2
        assert db.merged_tree().to_dict() == before

    def test_relabel_moves_index_and_engine(self, policy, make_key):
        db = FlowDB()
        db.insert("old", TimeInterval(0.0, 60.0),
                  make_tree(policy, make_key))
        assert db.relabel("old", "new") == 1
        assert db.locations() == ["new"]
        assert db.relabel("ghost", "other") == 0
        assert db.relabel("new", "new") == 0  # self-rename short-circuits
        record = next(db.engine.iter_summaries(policy))
        assert record.location == "new"
