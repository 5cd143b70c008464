"""One checkpoint, one recovery (Figure 4: the data store is "the only
component that persists data").

A runtime's durable state is a value: :func:`commit` cuts a
:class:`Checkpoint` at every epoch boundary and :func:`recover` is the
one way back, behind opening over a data dir, ``restart`` and
``restart_site`` alike.  No other module knows the manifest's shape.

*Durable:* epoch counters, last close, topology generation (the number,
not the topology), per-level node budgets, parked flowtree exports with
their dedup sets, flowtree replicas.  All else is *volatile by design*
— :func:`kill` spells it out — and what merely lacks a durable codec
(non-flowtree parked exports and replicas) is counted, per checkpoint,
in :attr:`Checkpoint.not_durable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence,
)

from repro.datastore.partitions import Partition, PartitionCatalog
from repro.datastore.store import DataStore
from repro.errors import CheckpointError, MalformedSummaryError, StorageError
from repro.faults.pending import PendingExportQueue
from repro.storage.codec import decode_summary, encode_summary
from repro.storage.engine import StorageEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import HierarchyRuntime

CHECKPOINT_VERSION = 3

_NUMBER = (int, float)
_MANIFEST = {
    "epochs_closed": int, "last_close": _NUMBER, "generation": int,
    "stores": list, "budgets": Mapping, "pending": Mapping,
    "replicas": Mapping, "planner_replicas": list,
}
_QUEUE = {"entries": list, "queued_ids": list, "delivered_ids": list}
_ENTRY = {
    "export_id": str, "kind": str, "summary": Mapping, "items": int,
    "size_bytes": int, "origin": str, "label": str, "created_at": _NUMBER,
}
_PARTITION = {
    "partition_id": str, "aggregator": str, "summary": Mapping,
    "created_at": _NUMBER,
}


def _typed(value: Any, kind: Any, what: str) -> Any:
    """``value``, or the typed rejection when it is not a ``kind``."""
    if not isinstance(value, kind):
        raise CheckpointError(
            f"malformed checkpoint: {what} is missing or mistyped"
        )
    return value


def _check(record: Any, schema: Mapping[str, Any], what: str) -> None:
    """Reject ``record`` unless it maps every ``schema`` key to a value
    of that key's type."""
    _typed(record, Mapping, what)
    for key, kind in schema.items():
        _typed(record.get(key), kind, f"{key!r} of {what}")


@dataclass
class Checkpoint:
    """What a killed runtime cannot re-derive from the record log, with
    queues and replicas still encoded (JSON-safe).  Live aggregator
    trees are deliberately absent: at a boundary they are empty, which
    is why the boundary is the durability point."""

    epochs_closed: int
    last_close: float
    generation: int
    #: the store paths it was cut under
    stores: List[str]
    #: level -> node budget, as the adaptive cycle left it
    budgets: Dict[str, int]
    #: holding store path -> queue state (entries + dedup sets)
    pending: Dict[str, Dict[str, Any]]
    #: store path -> partition records of its replica catalog
    replicas: Dict[str, List[Dict[str, Any]]]
    planner_replicas: List[Dict[str, Any]]
    #: parked exports and replicas this cut could not encode (not saved)
    not_durable: int = 0

    def to_manifest(self) -> Dict[str, Any]:
        manifest = {"version": CHECKPOINT_VERSION, **vars(self)}
        del manifest["not_durable"]
        return manifest

    @classmethod
    def from_manifest(cls, manifest: Any) -> "Checkpoint":
        """Adopt a manifest, or raise :class:`CheckpointError` on one
        that is torn, mistyped or of a foreign version."""
        version = _typed(manifest, Mapping, "the manifest").get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        _check(manifest, _MANIFEST, "the manifest")
        for level, budget in manifest["budgets"].items():
            _typed(budget, int, f"budgets[{level!r}]")
        for path, state in manifest["pending"].items():
            _check(state, _QUEUE, f"pending[{path!r}]")
            for entry in state["entries"]:
                _check(entry, _ENTRY, f"an entry of pending[{path!r}]")
        for records in (
            *manifest["replicas"].values(), manifest["planner_replicas"]
        ):
            for record in _typed(records, list, "a replica list"):
                _check(record, _PARTITION, "a replica record")
        return cls(**{key: manifest[key] for key in _MANIFEST})


def capture(runtime: "HierarchyRuntime") -> Checkpoint:
    """Cut the runtime's durable state (call at an epoch boundary)."""
    checkpoint = Checkpoint(
        epochs_closed=runtime.stats.epochs_closed,
        last_close=runtime._last_close,
        generation=runtime.model.generation,
        stores=list(runtime._stores),
        budgets={
            level: config.node_budget
            for level, config in runtime.levels.items()
            if config.node_budget is not None
        },
        pending={},
        replicas={},
        planner_replicas=[],
    )

    def encode(catalog: PartitionCatalog) -> List[Dict[str, Any]]:
        records = []
        for partition in catalog.all():
            try:
                summary = encode_summary(partition.summary)
            except StorageError:
                checkpoint.not_durable += 1  # non-flowtree replica
                continue
            records.append(
                {
                    "partition_id": partition.partition_id,
                    "aggregator": partition.aggregator,
                    "summary": summary,
                    "created_at": partition.created_at,
                    "replicated_to": list(partition.replicated_to),
                }
            )
        return records

    for path, queue in runtime.exports.queues.items():
        if queue.has_state:
            state = checkpoint.pending[path] = queue.to_state(encode_summary)
            checkpoint.not_durable += state["skipped"]
    for store in runtime.stores():
        records = encode(store.replicas)
        if records:
            checkpoint.replicas[store.location.path] = records
    checkpoint.planner_replicas = encode(
        runtime.planner.replica_store.replicas
    )
    return checkpoint


def commit(runtime: "HierarchyRuntime") -> None:
    """Commit this boundary: what a kill from here on recovers to."""
    checkpoint = capture(runtime)
    runtime._not_durable = checkpoint.not_durable
    runtime.engine.write_manifest(checkpoint.to_manifest())


def load(engine: StorageEngine) -> Optional[Checkpoint]:
    """The engine's last committed checkpoint (``None``: none yet)."""
    manifest = engine.read_manifest()
    return None if manifest is None else Checkpoint.from_manifest(manifest)


def _covered(
    runtime: "HierarchyRuntime", sites: Optional[Sequence[str]]
) -> List[DataStore]:
    """The stores at ``sites`` (site labels); every store for ``None``."""
    if sites is None:
        return runtime.stores()
    return [runtime.store_for(site) for site in sites]


def kill(
    runtime: "HierarchyRuntime", sites: Optional[Sequence[str]] = None
) -> None:
    """Discard what a killed process loses — the volatile state.

    Per store: live aggregator trees (reinstalled empty), retained
    interior partitions (root mass never depends on them), and the
    in-memory queue and replica catalog, which :func:`recover` refills;
    for the whole runtime also the planner's replicas.  Fabric and
    volume counters survive deliberately: the network is not part of
    the process.
    """
    if sites is None:
        runtime.planner.replica_store.replicas = PartitionCatalog()
    for store in _covered(runtime, sites):
        for aggregator in list(store.aggregators()):
            store.remove_aggregator(aggregator.name)
        level = runtime.hierarchy.node(store.location).level.name
        runtime._equip(store, runtime.levels[level])
        store.catalog = PartitionCatalog()
        store.replicas = PartitionCatalog()
        runtime.exports.queues.pop(store.location.path, None)


def recover(
    runtime: "HierarchyRuntime",
    now: Optional[float] = None,
    sites: Optional[Sequence[str]] = None,
) -> None:
    """Restore ``runtime`` from its engine's last checkpoint, if any.

    For the stores at ``sites`` (all for ``None``): the parked queues
    with their dedup sets, and the replicas, never twice under one
    ``partition_id``.  Only for the whole runtime also: the FlowDB index
    rebuilt from the record log, epoch counters, generation, per-level
    node budgets (of the levels this runtime has), planner replicas,
    one counted recovery, and the planner's clock and
    late-delivery watermark brought to the recovered boundary (``now``;
    the last close when not given).  Nothing here writes to the engine.
    """
    checkpoint = load(runtime.engine)
    if checkpoint is None:
        return

    def decode(record: Dict[str, Any]):
        try:
            return decode_summary(record, runtime.policy)
        except (LookupError, TypeError, MalformedSummaryError) as exc:
            raise CheckpointError(
                f"malformed checkpoint: undecodable summary ({exc!r})"
            ) from exc

    def restore(catalog: PartitionCatalog, records: Iterable[dict]) -> None:
        for record in records:
            if record["partition_id"] not in catalog:
                catalog.add(
                    Partition(
                        partition_id=record["partition_id"],
                        aggregator=record["aggregator"],
                        summary=decode(record["summary"]),
                        created_at=record["created_at"],
                        replicated_to=list(record.get("replicated_to", [])),
                    )
                )

    with runtime.obs.span("recover", engine=runtime.engine.name):
        # the topology is not durable, and a checkpoint names only
        # stores that hold something (capture skips the empty ones):
        # adopting one cut under a topology this runtime was not built
        # with would drop parked exports or replicas unseen
        unknown = {*checkpoint.pending, *checkpoint.replicas} - set(
            runtime._stores
        )
        if unknown:
            raise CheckpointError(
                f"the checkpoint (topology generation "
                f"{checkpoint.generation}) holds parked exports or "
                f"replicas for {sorted(unknown)}, which this runtime "
                f"(generation {runtime.model.generation}) does not have; "
                "reopen it under the topology it was cut under"
            )
        for store in _covered(runtime, sites):
            path = store.location.path
            if path in checkpoint.pending:
                runtime.exports.queues[path] = PendingExportQueue.from_state(
                    checkpoint.pending[path], decode
                )
            restore(store.replicas, checkpoint.replicas.get(path, ()))
        if sites is None:
            restore(
                runtime.planner.replica_store.replicas,
                checkpoint.planner_replicas,
            )
            runtime.stats.epochs_closed = checkpoint.epochs_closed
            runtime._last_close = checkpoint.last_close
            runtime.model.generation = checkpoint.generation
            for level, budget in checkpoint.budgets.items():
                if level in runtime.levels:
                    runtime._resize_level(level, budget)
            runtime._recovered_records += runtime.db.recover(runtime.policy)
            runtime._recoveries += 1
            runtime.planner.on_epoch_closed(
                checkpoint.last_close if now is None else now
            )
