"""Tests for FlowDB save/load and the FlowQL LIMIT clause."""

import json

import pytest

from repro.core.summary import TimeInterval
from repro.errors import FlowQLSyntaxError, SchemaMismatchError, StorageError
from repro.flowdb.db import FlowDB
from repro.flowdb.persistence import load_flowdb, save_flowdb
from tests.flowql_reference import FlowQLExecutor
from repro.flowql.parser import parse
from repro.flows.flowkey import SRC_DST, GeneralizationPolicy
from repro.flows.records import Score
from repro.flows.tree import Flowtree


@pytest.fixture()
def loaded_db(policy, make_key):
    db = FlowDB()
    for epoch in range(2):
        for site in ("a/r1", "b/r1"):
            tree = Flowtree(policy, node_budget=None)
            for port in (80, 443, 53):
                tree.add(
                    make_key(dst_port=port, src_port=1000 + epoch),
                    Score(1, 100 * port, 1),
                )
            db.insert(
                location=site,
                interval=TimeInterval(epoch * 60.0, (epoch + 1) * 60.0),
                tree=tree,
            )
    return db


class TestPersistence:
    def test_roundtrip(self, loaded_db, policy, tmp_path):
        path = str(tmp_path / "flowdb.json")
        written = save_flowdb(loaded_db, path)
        assert written == 4
        restored = load_flowdb(path, policy)
        assert restored.stats() == loaded_db.stats()
        assert restored.locations() == loaded_db.locations()
        original = FlowQLExecutor(loaded_db).execute("SELECT TOTAL FROM ALL")
        reloaded = FlowQLExecutor(restored).execute("SELECT TOTAL FROM ALL")
        assert original.scalar == reloaded.scalar

    def test_queries_identical_after_reload(self, loaded_db, policy,
                                            tmp_path):
        path = str(tmp_path / "flowdb.json")
        save_flowdb(loaded_db, path)
        restored = load_flowdb(path, policy)
        for text in (
            "SELECT TOPK(5) FROM ALL BY bytes",
            "SELECT GROUPBY(dst_port, 16) FROM TIME(0, 60) AT a/r1",
        ):
            assert (
                FlowQLExecutor(loaded_db).execute(text).rows
                == FlowQLExecutor(restored).execute(text).rows
            )

    def test_missing_file(self, policy, tmp_path):
        with pytest.raises(StorageError):
            load_flowdb(str(tmp_path / "nope.json"), policy)

    def test_corrupt_file(self, policy, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            load_flowdb(str(path), policy)

    def test_wrong_version(self, loaded_db, policy, tmp_path):
        path = tmp_path / "flowdb.json"
        save_flowdb(loaded_db, str(path))
        document = json.loads(path.read_text())
        document["format_version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(StorageError):
            load_flowdb(str(path), policy)

    def test_node_list_snapshot_refused(self, loaded_db, policy, tmp_path):
        # version 1 stored one JSON object per node: refused at load,
        # naming both versions
        path = tmp_path / "flowdb.json"
        save_flowdb(loaded_db, str(path))
        document = json.loads(path.read_text())
        assert document["format_version"] == 2
        document["format_version"] = 1
        path.write_text(json.dumps(document))
        with pytest.raises(
            StorageError, match=r"format version 1 .*reads version 2"
        ):
            load_flowdb(str(path), policy)

    def test_wrong_policy(self, loaded_db, tmp_path):
        path = str(tmp_path / "flowdb.json")
        save_flowdb(loaded_db, path)
        other = GeneralizationPolicy.default_for(SRC_DST)
        with pytest.raises(SchemaMismatchError):
            load_flowdb(path, other)

    def test_budget_override(self, loaded_db, policy, tmp_path):
        path = str(tmp_path / "flowdb.json")
        save_flowdb(loaded_db, path)
        restored = load_flowdb(path, policy, merge_node_budget=128)
        assert restored.merge_node_budget == 128

    def test_empty_db_roundtrip(self, policy, tmp_path):
        path = str(tmp_path / "empty.json")
        assert save_flowdb(FlowDB(), path) == 0
        assert len(load_flowdb(path, policy)) == 0


class TestDurableSave:
    def test_save_fsyncs_before_and_after_rename(self, loaded_db,
                                                 tmp_path, monkeypatch):
        import os

        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (events.append("rename"), real_replace(a, b))[1],
        )
        save_flowdb(loaded_db, str(tmp_path / "flowdb.json"))
        # temp file fsynced before the rename, directory after it
        rename_at = events.index("rename")
        assert "fsync" in events[:rename_at]
        assert "fsync" in events[rename_at + 1:]

    def test_no_temp_file_left_behind(self, loaded_db, tmp_path):
        save_flowdb(loaded_db, str(tmp_path / "flowdb.json"))
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []


class TestV1Migration:
    """A snapshot replays into a segment log.  (The name is historical:
    snapshots are format version 2 now, and version 1 is refused.)"""

    def test_migrate_v1_snapshot_into_segment_log(self, loaded_db, policy,
                                                  tmp_path):
        from repro.storage import SegmentLogEngine

        snapshot = str(tmp_path / "flowdb.json")
        save_flowdb(loaded_db, snapshot)

        data_dir = str(tmp_path / "data")
        migrated = load_flowdb(
            snapshot, policy, engine=SegmentLogEngine(data_dir)
        )
        assert migrated.engine.record_count() == len(loaded_db)
        migrated.engine.seal_epoch(0)
        migrated.engine.write_manifest({"migrated_from": "format-v1"})

        # the migrated store reopens from disk with the snapshot's content
        reopened = FlowDB(engine=SegmentLogEngine(data_dir))
        assert reopened.recover(policy) == len(loaded_db)
        assert (
            reopened.merged_tree().to_dict()
            == loaded_db.merged_tree().to_dict()
        )

    def test_migration_without_engine_stays_in_memory(self, loaded_db,
                                                      policy, tmp_path):
        from repro.storage.engine import MemoryEngine

        snapshot = str(tmp_path / "flowdb.json")
        save_flowdb(loaded_db, snapshot)
        restored = load_flowdb(snapshot, policy)
        assert isinstance(restored.engine, MemoryEngine)


class TestPendingQueueState:
    def make_queue(self, policy, make_key, count=3):
        from repro.core.summary import (
            DataSummary, Location, SummaryMeta,
        )
        from repro.faults.pending import PendingExport, PendingExportQueue

        queue = PendingExportQueue()
        for index in range(count):
            tree = Flowtree(policy, node_budget=None)
            tree.add(make_key(dst_port=80 + index), Score(1, 100, 1))
            summary = DataSummary(
                kind="flowtree",
                meta=SummaryMeta(
                    interval=TimeInterval(0.0, 60.0),
                    location=Location("a/r1"),
                ),
                payload=tree,
                size_bytes=1000 + index,
            )
            queue.park(
                PendingExport(
                    export_id=f"exp-{index}",
                    kind="forward",
                    summary=summary,
                    items=10 + index,
                    size_bytes=1000 + index,
                    origin="a/r1",
                    label=f"agg-{index}",
                    created_at=60.0,
                    attempts=index,
                )
            )
        queue.mark_delivered("exp-done")
        return queue

    def roundtrip(self, queue, policy):
        from repro.faults.pending import PendingExportQueue
        from repro.storage import decode_summary, encode_summary

        state = json.loads(json.dumps(queue.to_state(encode_summary)))
        return PendingExportQueue.from_state(
            state, lambda record: decode_summary(record, policy)
        )

    def test_roundtrip_preserves_order_ids_and_bytes(self, policy,
                                                     make_key):
        queue = self.make_queue(policy, make_key)
        restored = self.roundtrip(queue, policy)
        assert [e.export_id for e in restored.entries] == [
            e.export_id for e in queue.entries
        ]
        assert [e.attempts for e in restored.entries] == [0, 1, 2]
        assert restored.pending_bytes == queue.pending_bytes
        assert restored.pending_items == queue.pending_items
        assert restored._queued_ids == queue._queued_ids
        assert restored._delivered_ids == queue._delivered_ids

    def test_restored_queue_still_dedups(self, policy, make_key):
        from repro.faults.pending import PendingExport

        queue = self.make_queue(policy, make_key)
        restored = self.roundtrip(queue, policy)
        duplicate = PendingExport(
            export_id="exp-0", kind="forward", summary=None, items=1,
            size_bytes=1, origin="a/r1", label="agg", created_at=60.0,
        )
        assert restored.park(duplicate) is False  # still queued
        delivered = PendingExport(
            export_id="exp-done", kind="forward", summary=None, items=1,
            size_bytes=1, origin="a/r1", label="agg", created_at=60.0,
        )
        assert restored.park(delivered) is False  # already delivered

    def test_non_durable_entries_skipped_and_counted(self, policy,
                                                     make_key):
        from repro.core.summary import (
            DataSummary, Location, SummaryMeta,
        )
        from repro.faults.pending import PendingExport
        from repro.storage import encode_summary

        queue = self.make_queue(policy, make_key, count=1)
        queue.park(
            PendingExport(
                export_id="exp-raw", kind="forward",
                summary=DataSummary(
                    kind="rawstore",
                    meta=SummaryMeta(
                        interval=TimeInterval(0.0, 60.0),
                        location=Location("a/r1"),
                    ),
                    payload={"rows": []},
                    size_bytes=10,
                ),
                items=1, size_bytes=10, origin="a/r1", label="raw",
                created_at=60.0,
            )
        )
        state = queue.to_state(encode_summary)
        assert state["skipped"] == 1
        restored = self.roundtrip(queue, policy)
        assert len(restored) == 1
        # the skipped id must not linger as queued: the entry is gone,
        # so a future park of the same id must be allowed again
        assert "exp-raw" not in restored._queued_ids


class TestLimitClause:
    def test_parse_limit(self):
        query = parse("SELECT TOPK(10) FROM ALL LIMIT 3")
        assert query.limit == 3

    def test_limit_truncates_rows(self, loaded_db):
        executor = FlowQLExecutor(loaded_db)
        unlimited = executor.execute("SELECT GROUPBY(dst_port, 16) FROM ALL")
        limited = executor.execute(
            "SELECT GROUPBY(dst_port, 16) FROM ALL LIMIT 1"
        )
        assert len(unlimited.rows) == 3
        assert len(limited.rows) == 1
        assert limited.rows[0] == unlimited.rows[0]

    def test_limit_after_metric(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOPK(10) FROM ALL BY packets LIMIT 2"
        )
        assert len(result.rows) == 2

    def test_invalid_limit(self):
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOPK(10) FROM ALL LIMIT 0")
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOPK(10) FROM ALL LIMIT x")

    def test_limit_on_scalar_is_noop(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOTAL FROM ALL LIMIT 5"
        )
        assert result.scalar is not None
