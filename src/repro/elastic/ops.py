"""Live reconfiguration ops over a running hierarchy.

Each op here mutates the :class:`~repro.elastic.model.TopologyModel` of
a live :class:`~repro.runtime.runtime.HierarchyRuntime` **between epoch
closes**, migrates whatever summary state the reshape strands, and then
runs the shared epilogue: fabric link resync (retired links keep their
byte history), runtime view rebuild, generation bump, and query-cache
invalidation.

Migration is fabric-accounted and fault-aware: a summary that cannot be
delivered over the (possibly faulty) fabric within the runtime's retry
budget is parked as a :class:`~repro.faults.PendingExport` on the
*migration target's* queue — the re-homed export is redelivered by the
normal pending-drain machinery on a later close, so root-mass
conservation holds across arbitrary reconfiguration sequences even with
a nonzero-drop :class:`~repro.faults.FaultPlan` active.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.summary import Location
from repro.datastore.store import DataStore
from repro.elastic.model import PendingMigration
from repro.errors import PlacementError
from repro.hierarchy.topology import HierarchyNode, LevelSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.config import LevelConfig
    from repro.runtime.runtime import HierarchyRuntime


# ----------------------------------------------------------------------
# shared plumbing


def _node_by_label(runtime: "HierarchyRuntime", label: str) -> HierarchyNode:
    """Resolve a root-relative site label (or the root path) to a node."""
    hierarchy = runtime.model.hierarchy
    root = hierarchy.root.location
    if label in ("", root.path):
        return hierarchy.root
    return hierarchy.node(Location(f"{root.path}/{label}"))


def _finish(runtime: "HierarchyRuntime", op: str) -> int:
    """The shared epilogue every reconfiguration op runs."""
    runtime.fabric.resync()
    runtime._rebuild_views()
    generation = runtime.model.bump(op)
    runtime.planner.invalidate_cache()
    return generation


def _apply_renames(
    runtime: "HierarchyRuntime", renames: Mapping[str, str]
) -> None:
    """Re-key path-indexed runtime state after a location rewrite."""
    hierarchy = runtime.model.hierarchy
    for old, new in renames.items():
        if old == new:
            continue
        store = runtime._stores.pop(old, None)
        if store is not None:
            node = hierarchy.node(Location(new))
            store.relocate(node.location, now=runtime._last_close)
            runtime._stores[new] = store
        queue = runtime.exports.queues.pop(old, None)
        if queue is not None:
            runtime.exports.queues[new] = queue
        # FlowDB entries (and the engine's on-disk records) follow the
        # rename so queries by the new label see the site's history
        runtime.db.relabel(
            runtime._path_label(old), runtime._path_label(new)
        )


def _migration_target(
    runtime: "HierarchyRuntime",
    node: HierarchyNode,
    exclude: frozenset,
) -> Optional[DataStore]:
    """Where a departing store's state goes: sibling, peer, or ancestor.

    Preference order: a store-bearing sibling under the same parent,
    then any other store at the same level, then the nearest ancestor
    store — always outside the ``exclude`` set (the departing subtree).
    """
    if node.parent is not None:
        for sibling in node.parent.children:
            path = sibling.location.path
            if path in exclude or sibling is node:
                continue
            store = runtime._stores.get(path)
            if store is not None:
                return store
    for peer in runtime.model.hierarchy.nodes_at_level(node.level.name):
        path = peer.location.path
        if path in exclude or peer is node:
            continue
        store = runtime._stores.get(path)
        if store is not None:
            return store
    probe = node.parent
    while probe is not None:
        path = probe.location.path
        if path not in exclude:
            store = runtime._stores.get(path)
            if store is not None:
                return store
        probe = probe.parent
    return None


def _migrate_store_state(
    runtime: "HierarchyRuntime",
    node: HierarchyNode,
    store: DataStore,
    target: Optional[DataStore],
    now: float,
    op: str,
) -> int:
    """Move a departing store's summaries to its migration target.

    Live aggregator state is sealed and shipped through the runtime's
    one export path (:mod:`repro.runtime.export`): delivered into the
    target's matching aggregator, or parked on the *target's* pending
    queue when the link stays down, so the mass still rolls up on a
    later close.  Retained epoch partitions are replicated to
    the target's replica catalog for query continuity.  Returns the
    bytes successfully migrated.
    """
    model = runtime.model
    has_mass = any(
        aggregator.primitive.items_ingested > 0
        for aggregator in store.aggregators()
    )
    has_history = bool(store.catalog.all())
    if target is None:
        if has_mass or has_history:
            raise PlacementError(
                f"no migration target for departing store "
                f"{store.location.path!r}; it still holds data"
            )
        return 0
    exports = runtime.exports
    moved = 0
    for aggregator in store.aggregators():
        if aggregator.primitive.items_ingested == 0:
            continue
        items = aggregator.items_this_epoch
        sealed = aggregator.primitive.reset_epoch()
        # migration re-homes the summary at the target site: the
        # shared-location rule makes it combinable with whatever live
        # mass the target holds, and the merged interval honestly
        # spans both inputs
        sealed.meta = replace(sealed.meta, location=target.location)
        export = exports.build(
            store,
            "forward",
            f"{op}:{store.location.path}:{aggregator.name}"
            f":gen{model.generation + 1}",
            aggregator.name,
            sealed,
            items,
            now,
        )
        if exports.deliver(export, store, target, now):
            model.account_migration(export.size_bytes)
            moved += export.size_bytes
        elif exports.park(export, store, target):
            model.park_migration(
                PendingMigration(
                    op=op,
                    origin=store.location.path,
                    target=target.location.path,
                    export_id=export.export_id,
                    size_bytes=export.size_bytes,
                )
            )
    volume = runtime.stats.level(node.level.name)
    for partition in list(store.catalog.all()):
        _, delivered = exports.transfer(
            volume,
            lambda at, pid=partition.partition_id: store.replicate_partition(
                pid, target, at
            ),
            partition.summary.size_bytes,
            now,
        )
        if delivered:
            model.account_migration(partition.summary.size_bytes)
            moved += partition.summary.size_bytes
        # an undeliverable partition leaves with its store; degraded
        # reads report the gap honestly
    return moved


def _depart(
    runtime: "HierarchyRuntime",
    node: HierarchyNode,
    exclude: frozenset,
    now: float,
    op: str,
) -> int:
    """Retire one departing store: its state and its parked exports
    move to a surviving store outside ``exclude``.  Returns the bytes
    migrated."""
    path = node.location.path
    store = runtime._stores[path]
    target = _migration_target(runtime, node, exclude)
    moved = _migrate_store_state(runtime, node, store, target, now, op)
    queue = runtime.exports.queues.pop(path, None)
    if queue is not None and target is not None:
        rehomed = runtime.exports.queue_for(target)
        for entry in queue.entries:
            rehomed.park(entry)
    del runtime._stores[path]
    return moved


# ----------------------------------------------------------------------
# the ops


def site_join(
    runtime: "HierarchyRuntime",
    site: str,
    level: Union[None, str, LevelSpec] = None,
    deadline: Optional[float] = None,
) -> HierarchyNode:
    """Attach a new site under an existing parent and provision it.

    ``site`` is a root-relative label (``region1/router9``); everything
    up to the last segment must already exist.  The level is taken from
    ``level`` when given, else derived from the new node's siblings (or
    depth peers).  If the model configures that level, a store is
    provisioned, wired into the fabric, and becomes ingestible.
    """
    parent_label, _, name = site.rpartition("/")
    if not name:
        raise PlacementError(f"bad site label {site!r}")
    parent_node = _node_by_label(runtime, parent_label)
    if isinstance(level, LevelSpec):
        spec = level
    elif isinstance(level, str):
        spec = next(
            (
                existing
                for existing in runtime.model.hierarchy.levels()
                if existing.name == level
            ),
            LevelSpec(level, deadline),
        )
    else:
        siblings = parent_node.children
        if siblings:
            spec = siblings[0].level
        else:
            depth = len(parent_node.ancestors()) + 1
            peers = [
                peer
                for peer in runtime.model.hierarchy.nodes()
                if len(peer.ancestors()) == depth
            ]
            if not peers:
                raise PlacementError(
                    f"cannot derive a level for {site!r}; pass level="
                )
            spec = peers[0].level
    node = runtime.model.hierarchy.add_site(parent_node.location, name, spec)
    config = runtime.model.config_for(spec.name)
    if config is not None:
        runtime._provision_store(node, config)
    _finish(runtime, "site_join")
    return node


def site_leave(
    runtime: "HierarchyRuntime", site: str, now: Optional[float] = None
) -> int:
    """Drain a site (subtree) out of the hierarchy, migrating its state.

    Every store-bearing node in the departing subtree, deepest first,
    ships its live summaries and retained partitions to a migration
    target outside the subtree (sibling at the same level, else any
    same-level peer, else the nearest ancestor store) and re-homes its
    parked pending exports onto the target's queue.  Returns the bytes
    migrated.
    """
    at_time = runtime._last_close if now is None else now
    node = _node_by_label(runtime, site)
    if node.parent is None:
        raise PlacementError("the hierarchy root cannot leave")
    subtree = frozenset(member.location.path for member in node.walk())
    departing = sorted(
        (
            member
            for member in node.walk()
            if member.location.path in runtime._stores
        ),
        key=lambda member: -len(member.ancestors()),
    )
    moved = 0
    for member in departing:
        moved += _depart(runtime, member, subtree, at_time, "site_leave")
    runtime.model.hierarchy.remove(node.location)
    _finish(runtime, "site_leave")
    return moved


def level_split(
    runtime: "HierarchyRuntime",
    level: str,
    new_level: str,
    groups: Mapping[str, Sequence[str]],
    deadline: Optional[float] = None,
    config: Optional["LevelConfig"] = None,
) -> List[HierarchyNode]:
    """Insert a new level below ``level`` by grouping its children.

    ``groups`` maps each new intermediate node's name to the site
    labels it adopts; every member of one group must currently share
    the same parent at ``level``.  Grouped subtrees are re-based under
    the new node (their location paths gain a segment and all
    path-indexed state is re-keyed).  With ``config``, the new level is
    added to the model's table and each new node gets a store.
    """
    if not groups:
        raise PlacementError("level_split needs at least one group")
    if any(spec.name == new_level for spec in runtime.model.hierarchy.levels()):
        raise PlacementError(f"level {new_level!r} already exists")
    spec = LevelSpec(new_level, deadline)
    created: List[HierarchyNode] = []
    hierarchy = runtime.model.hierarchy
    for group_name, members in groups.items():
        nodes = [_node_by_label(runtime, member) for member in members]
        if not nodes:
            raise PlacementError(f"group {group_name!r} is empty")
        for member in nodes:
            if member.level.name != level:
                raise PlacementError(
                    f"{member.location.path!r} is at level "
                    f"{member.level.name!r}, not {level!r}"
                )
        parents = {id(member.parent) for member in nodes}
        if len(parents) != 1 or nodes[0].parent is None:
            raise PlacementError(
                f"group {group_name!r} members must share one parent"
            )
        parent = nodes[0].parent
        group_node = hierarchy.add_site(parent.location, group_name, spec)
        for member in nodes:
            detached = hierarchy.remove(member.location)
            renames = hierarchy.graft(detached, group_node.location)
            _apply_renames(runtime, renames)
        created.append(group_node)
    if config is not None:
        runtime.model.set_level(new_level, config)
        for group_node in created:
            runtime._provision_store(group_node, config)
    _finish(runtime, "level_split")
    return created


def level_merge(
    runtime: "HierarchyRuntime", level: str, now: Optional[float] = None
) -> int:
    """Remove a whole level, reattaching its children one level up.

    Each removed node's store state migrates to the nearest surviving
    store (ancestor or cross-level peer — never another node of the
    dissolving level), its pending exports are re-homed, and its
    children are grafted onto its parent (name collisions are a
    :class:`~repro.errors.PlacementError` before anything moves).
    Returns the bytes migrated.
    """
    at_time = runtime._last_close if now is None else now
    hierarchy = runtime.model.hierarchy
    dissolving = hierarchy.nodes_at_level(level)
    if not dissolving:
        raise PlacementError(f"no nodes at level {level!r}")
    if any(member.parent is None for member in dissolving):
        raise PlacementError("the root level cannot merge")
    for member in dissolving:
        assert member.parent is not None
        sibling_names = {
            child.location.parts[-1]
            for child in member.parent.children
            if child is not member
        }
        for child in member.children:
            if child.location.parts[-1] in sibling_names:
                raise PlacementError(
                    f"merging {level!r} would collide on "
                    f"{child.location.parts[-1]!r} under "
                    f"{member.parent.location.path!r}"
                )
    exclude = frozenset(member.location.path for member in dissolving)
    moved = 0
    # migrate every dissolving store *before* any graft: targets must
    # be nodes the fabric still has links for, not children re-homed
    # moments ago by a sibling's merge step
    for member in dissolving:
        if member.location.path in runtime._stores:
            moved += _depart(runtime, member, exclude, at_time, "level_merge")
    for member in dissolving:
        parent = member.parent
        assert parent is not None
        for child in list(member.children):
            detached = hierarchy.remove(child.location)
            renames = hierarchy.graft(detached, parent.location)
            _apply_renames(runtime, renames)
        hierarchy.remove(member.location)
    runtime.model.drop_level(level)
    _finish(runtime, "level_merge")
    return moved


def migrate_store(
    runtime: "HierarchyRuntime",
    site: str,
    new_parent: str,
    now: Optional[float] = None,
) -> Dict[str, str]:
    """Re-home a store (and its subtree) under a new parent node.

    The subtree's location paths are rewritten, every path-indexed
    table (the one store table the Manager reads, the pending-export
    queues, FlowDB's site labels) is re-keyed, and
    the fabric retires the old uplink while creating the new one —
    parked exports redeliver toward the *new* parent on the next close.
    Returns the ``{old_path: new_path}`` rename map.
    """
    node = _node_by_label(runtime, site)
    if node.parent is None:
        raise PlacementError("the hierarchy root cannot migrate")
    parent_node = _node_by_label(runtime, new_parent)
    if any(member is parent_node for member in node.walk()):
        raise PlacementError(
            f"cannot migrate {site!r} under its own subtree"
        )
    # validate the destination *before* detaching: a failed graft must
    # not leave the node stranded outside the hierarchy
    name = node.location.parts[-1]
    if any(
        child.location.parts[-1] == name and child is not node
        for child in parent_node.children
    ):
        raise PlacementError(
            f"{parent_node.location.path!r} already has a child "
            f"named {name!r}"
        )
    hierarchy = runtime.model.hierarchy
    detached = hierarchy.remove(node.location)
    renames = hierarchy.graft(detached, parent_node.location)
    _apply_renames(runtime, renames)
    _finish(runtime, "migrate_store")
    return renames
