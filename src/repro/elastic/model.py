"""The generation-versioned mutable topology model.

The paper's Sec. V.A names *self-adaptation* as a core property of the
computing primitive — the hierarchy reshapes itself around the data.
Historically this repository froze the topology at construction time:
:class:`~repro.runtime.runtime.HierarchyRuntime`, the federated query
planner and the observability bridge each cached their own view of the
:class:`~repro.hierarchy.topology.Hierarchy`
and per-level :class:`~repro.runtime.config.LevelConfig` tables, so no
component could change the shape without desynchronizing the others.

:class:`TopologyModel` is the single seam they all consume instead.  It
owns the (mutable, in-place) hierarchy, the live per-level config
table, and a monotonically increasing **generation** counter.  Every
structural reconfiguration op — ``site_join``, ``site_leave``,
``level_split``, ``level_merge``, ``migrate_store`` — bumps the
generation, which is what lets downstream caches invalidate correctly:
the :class:`~repro.query.cache.QueryCache` keys answers on it, and
the ``repro_topology_generation`` row of :mod:`repro.obs.bridge`
reads it at collection time.  An adaptive node-budget resize does
**not** bump it: a budget changes compression, not coverage, so no
cached plan goes stale.

The model also keeps the reconfiguration **ledger**: per-op counts
(budget resizes included), each level's last budget resize, bytes of
summary state migrated across the fabric, and the in-flight migrations
still awaiting redelivery — what the ``repro_reconfig_*`` rows of
:mod:`repro.obs.bridge` and the ``repro topology`` CLI census read.  A
run that issues zero reconfig ops never bumps the generation, and the
runtime's derived views are bit-identical to the pre-elastic
construction-time constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.hierarchy.topology import Hierarchy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.config import LevelConfig


@dataclass
class PendingMigration:
    """One in-flight state migration awaiting redelivery.

    Created when a reconfiguration op could not deliver a store's
    summary over the (possibly faulty) fabric and parked it in a
    pending-export queue instead; resolved when the parked export is
    finally delivered on a later epoch close.
    """

    op: str
    origin: str
    target: str
    export_id: str
    size_bytes: int


@dataclass
class ReconfigLedger:
    """What the reconfiguration ops did, for obs and the CLI census."""

    op_counts: Dict[str, int] = field(default_factory=dict)
    migrated_bytes: int = 0
    migrated_summaries: int = 0
    pending: List[PendingMigration] = field(default_factory=list)
    #: level -> its last budget resize (one entry per level)
    resizes: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def record(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    def record_resize(self, level: str, **resize: float) -> None:
        """One adaptive budget resize: counted, and kept as the level's
        last (``old``, ``new``, ``pressure``, ``fullness``, ``at``)."""
        self.record("budget_resize")
        self.resizes[level] = resize

    def resolve(self, export_id: str) -> None:
        """Drop the pending-migration entries delivered under an id."""
        self.pending = [
            entry for entry in self.pending if entry.export_id != export_id
        ]


class TopologyModel:
    """A mutable hierarchy + level-config table behind one version seam.

    The hierarchy object is mutated **in place** (never replaced), so
    components that captured a reference at construction — the fabric
    and the scenario facades — observe every reshape without
    re-wiring.  Structural edits go through
    :class:`~repro.hierarchy.topology.Hierarchy` mutation helpers; this
    class adds the versioning, the config table, and the ledger.
    """

    def __init__(
        self, hierarchy: Hierarchy, levels: Dict[str, "LevelConfig"]
    ) -> None:
        self.hierarchy = hierarchy
        #: live per-level config table; adaptive budget resizes mutate
        #: the LevelConfig objects in place, level_split/merge add and
        #: remove entries
        self.levels: Dict[str, "LevelConfig"] = dict(levels)
        #: bumped by every reconfiguration op; generation 0 is the
        #: construction-time topology
        self.generation = 0
        self.ledger = ReconfigLedger()
        self._listeners: List[Callable[["TopologyModel", str], None]] = []

    # -- versioning ---------------------------------------------------------

    def subscribe(
        self, listener: Callable[["TopologyModel", str], None]
    ) -> None:
        """Call ``listener(model, op)`` after every generation bump."""
        self._listeners.append(listener)

    def bump(self, op: str) -> int:
        """Record one applied reconfiguration op; returns the new gen."""
        self.generation += 1
        self.ledger.record(op)
        for listener in self._listeners:
            listener(self, op)
        return self.generation

    # -- config table -------------------------------------------------------

    def config_for(self, level_name: str) -> Optional["LevelConfig"]:
        """The level's config, or ``None`` for store-less levels."""
        return self.levels.get(level_name)

    def set_level(self, name: str, config: "LevelConfig") -> None:
        """Add (or replace) one level's config without bumping."""
        self.levels[name] = config

    def drop_level(self, name: str) -> None:
        self.levels.pop(name, None)

    # -- migration accounting ------------------------------------------------

    def account_migration(self, size_bytes: int) -> None:
        """One summary delivered to its migration target."""
        self.ledger.migrated_bytes += size_bytes
        self.ledger.migrated_summaries += 1

    def park_migration(self, entry: PendingMigration) -> None:
        self.ledger.pending.append(entry)

    # -- census ---------------------------------------------------------------

    def census(self) -> Dict[str, object]:
        """The live topology, as plain data (the ``repro topology`` CLI).

        Per level: node count, store-bearing config presence, and the
        current node budget (``None`` for unbudgeted/exact levels).
        """
        per_level: List[Dict[str, object]] = []
        for spec in self.hierarchy.levels():
            config = self.levels.get(spec.name)
            per_level.append(
                {
                    "level": spec.name,
                    "nodes": len(self.hierarchy.nodes_at_level(spec.name)),
                    "configured": config is not None,
                    "node_budget": (
                        config.node_budget if config is not None else None
                    ),
                    "deadline_seconds": spec.deadline_seconds,
                }
            )
        return {
            "generation": self.generation,
            "root": self.hierarchy.root.location.path,
            "levels": per_level,
            "op_counts": dict(self.ledger.op_counts),
            "migrated_bytes": self.ledger.migrated_bytes,
            "migrated_summaries": self.ledger.migrated_summaries,
            "resizes": dict(self.ledger.resizes),
            "pending_migrations": [
                {
                    "op": entry.op,
                    "origin": entry.origin,
                    "target": entry.target,
                    "export_id": entry.export_id,
                    "size_bytes": entry.size_bytes,
                }
                for entry in self.ledger.pending
            ],
        }
