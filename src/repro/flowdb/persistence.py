"""FlowDB persistence: the single-document JSON snapshot.

Historically this module *was* the durability story — one JSON document
holding the whole index.  The real story now lives in
:mod:`repro.storage` (per-epoch segment logs, manifests, recovery);
what remains here is a thin compat wrapper kept for two jobs:

* **save**: one JSON document (format version 2: each tree as its
  :meth:`~repro.flows.tree.Flowtree.to_dict` columns), written through
  :func:`repro.storage.codec.atomic_write_json` — the temp file is
  fsynced before the rename and the directory after it, closing the
  crash window the old implementation had (an ``os.replace`` without
  fsync can surface an empty file after power loss on some
  filesystems).
* **load / migrate**: snapshots of this format version load (an older
  version is refused with a :class:`~repro.errors.StorageError` naming
  both), and ``load_flowdb(..., engine=SegmentLogEngine(dir))`` replays
  a snapshot into a durable engine — each entry is inserted through the
  normal FlowDB path, so it lands in the engine's record log; seal and
  write a manifest afterwards to finish the migration.

Schemas hold feature objects that do not round-trip through JSON, so
loading takes the :class:`~repro.flows.flowkey.GeneralizationPolicy`
explicitly and validates it against the stored shape.
"""

from __future__ import annotations

from typing import Optional

import json

from repro.core.summary import TimeInterval
from repro.errors import SchemaMismatchError, StorageError
from repro.flowdb.db import FlowDB
from repro.flows.flowkey import GeneralizationPolicy
from repro.flows.tree import Flowtree
from repro.storage.codec import atomic_write_json
from repro.storage.engine import StorageEngine

#: 2: trees are :meth:`~repro.flows.tree.Flowtree.to_dict` columns; a
#: version-1 snapshot held one JSON object per node
FORMAT_VERSION = 2


def save_flowdb(db: FlowDB, path: str) -> int:
    """Write the whole FlowDB to ``path``; returns entries written.

    Uses the durable write protocol (fsync temp file, rename, fsync
    directory), so a crash at any point leaves either the previous
    document or the new one — never a truncated or empty file.
    """
    entries = db.entries()
    document = {
        "format_version": FORMAT_VERSION,
        "merge_node_budget": db.merge_node_budget,
        "entries": [
            {
                "location": entry.location,
                "start": entry.interval.start,
                "end": entry.interval.end,
                "tree": entry.tree.to_dict(),
            }
            for entry in entries
        ],
    }
    atomic_write_json(path, document)
    return len(entries)


def load_flowdb(
    path: str,
    policy: GeneralizationPolicy,
    merge_node_budget: Optional[int] = None,
    engine: Optional[StorageEngine] = None,
) -> FlowDB:
    """Load a FlowDB saved with :func:`save_flowdb`.

    ``policy`` must match the shape the trees were built with (checked
    tree by tree).  ``merge_node_budget`` overrides the saved value.
    Passing a durable ``engine`` migrates the snapshot into it: every
    entry goes through :meth:`FlowDB.insert`, which logs it to the
    engine's record store.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError as exc:
        raise StorageError(f"no FlowDB file at {path!r}") from exc
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt FlowDB file at {path!r}: {exc}") from exc
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"unsupported FlowDB format version {version!r} at "
            f"{path!r}: this build reads version {FORMAT_VERSION}"
        )
    db = FlowDB(
        merge_node_budget=(
            merge_node_budget
            if merge_node_budget is not None
            else document.get("merge_node_budget")
        ),
        engine=engine,
    )
    for record in document["entries"]:
        try:
            tree = Flowtree.from_dict(record["tree"], policy)
        except SchemaMismatchError as exc:
            raise SchemaMismatchError(
                f"entry for {record['location']!r} "
                f"[{record['start']}, {record['end']}) does not match the "
                f"supplied policy: {exc}"
            ) from exc
        db.insert(
            location=record["location"],
            interval=TimeInterval(record["start"], record["end"]),
            tree=tree,
        )
    return db
