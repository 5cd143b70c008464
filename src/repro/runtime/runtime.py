"""The generic arbitrary-depth data plane (Figures 1–3, unified).

The paper describes one recursive structure: data stores at *every*
level of a hierarchy (machine → line → factory → cloud; router → region
→ network → cloud), each aggregating its children's summaries and
shipping its own summary one level up, with only the root's exports
crossing the WAN.  :class:`HierarchyRuntime` is that structure for
any depth, and :mod:`~repro.runtime.presets` builds the paper's systems
(Figure 5's flat one, Figure 2b's tiered one) as level tables over it.
It does three things:

* **Provisioning** — one :class:`~repro.datastore.store.DataStore` per
  hierarchy node whose level has a :class:`~repro.runtime.config.LevelConfig`,
  each with its level's aggregator, storage strategy, and privacy guard,
  in one store table that the runtime's
  :class:`~repro.control.manager.Manager` reads as its own.
* **Rollup** — a single generic level-by-level epoch close: edge stores
  export their live summaries into the nearest ancestor store (a
  fabric-accounted hop), interior stores merge + compress, and stores
  with no ancestor store export their epoch partitions into
  :class:`~repro.flowdb.db.FlowDB` across the WAN.
* **Query and control** — a
  :class:`~repro.query.planner.FederatedQueryPlanner` over the root
  FlowDB and the hierarchy's stores, and controller registration per
  node, over the same store set.

Per-hop volume and latency land in :class:`~repro.runtime.stats.VolumeStats`.
"""

from __future__ import annotations

import gc
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.control.controller import Controller
from repro.control.manager import Manager
from repro.core.flowtree import FlowtreePrimitive
from repro.core.registry import PrimitiveRegistry, default_registry
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.store import DataStore
from repro.errors import PlacementError, SchemaMismatchError
from repro.faults import (
    FaultPlan,
    PendingExport,
    PendingExportQueue,
    RetryPolicy,
)
from repro.elastic import TopologyModel
from repro.flowdb.db import FlowDB
from repro.flows.flowkey import FIVE_TUPLE, FeatureSchema, GeneralizationPolicy
from repro.flows.records import PacketRecord
from repro.hierarchy.network import NetworkFabric
from repro.hierarchy.topology import Hierarchy, HierarchyNode, LevelSpec
from repro.obs import Observability
from repro.obs.bridge import (
    INGEST_SECONDS,
    ROLLUP_SECONDS,
    install_runtime_metrics,
)
from repro.query.plan import QueryOutcome
from repro.query.planner import FederatedQueryPlanner
from repro.runtime.checkpoint import commit, kill, recover
from repro.runtime.config import EXPORT_NONE, LevelConfig
from repro.runtime.export import ExportPath
from repro.runtime.stats import VolumeStats
from repro.storage import StorageEngine


def _timestamp_of(record) -> float:
    """A raw record's time: its ``first_seen``, else a packet's
    ``timestamp``."""
    first_seen = getattr(record, "first_seen", None)
    if first_seen is not None:
        return first_seen
    if isinstance(record, PacketRecord):
        return record.timestamp
    raise SchemaMismatchError(
        f"cannot ingest a {type(record).__name__}: it has neither a "
        f"first_seen nor a packet timestamp"
    )


# The adaptive cycle (Fig. 3): one node-budget decision per level per
# close, from the Flowtrees the level sealed.  A level whose trees
# compressed at least _GROW_COMPRESSIONS times on average doubles its
# budget; one whose trees never compressed and filled at most
# _SHRINK_FULLNESS of it halves.  Budgets stay within
# [_MIN_BUDGET, _MAX_BUDGET] and never below the generalization chain.
_GROW_COMPRESSIONS = 2.0
_SHRINK_FULLNESS = 0.25
_MIN_BUDGET = 64
_MAX_BUDGET = 1 << 20


def _resized(
    budget: int, compressions: float, fullness: float, floor: int
) -> Optional[int]:
    """A level's next node budget, or ``None`` to keep ``budget``.

    ``compressions`` and ``fullness`` (node count over budget) are the
    means over the trees the level sealed this close; ``floor`` is the
    tree's minimum chain length.
    """
    if compressions >= _GROW_COMPRESSIONS:
        proposed = budget * 2
    elif compressions == 0 and fullness <= _SHRINK_FULLNESS:
        proposed = budget // 2
    else:
        return None
    proposed = max(_MIN_BUDGET, floor, min(_MAX_BUDGET, proposed))
    return None if proposed == budget else proposed


def _full_passes() -> int:
    """How many full (generation-2) collections the process has run."""
    return gc.get_stats()[2]["collections"]


# The collector's permanent generation is the process's, so the count of
# closes since it was last thawed is too, and so is the count of full
# passes the last thaw saw.
_THAW_PERIOD = 8
_closes_since_thaw = 0
_full_passes_at_thaw = _full_passes()
# the host's collector setting saved by each open hold, innermost last
_held: List[bool] = []


class _CollectorHold:
    """``with _COLLECTOR_HELD as collecting:`` holds the cyclic collector
    for the block and gives the host its setting back after it.

    ``collecting`` is the host's setting.  Entering allocates nothing
    the collector tracks (its hooks are static methods, so the ``with``
    binds no method object), and leaving allocates nothing after it
    re-enables.  So a pass that a held block's allocations left due is
    paid by the next allocation outside a hold, never at the top of the
    next ingest or close.  Holds may nest or overlap: the collector
    stays off until the last of them ends, which restores what the
    first of them found.
    """

    __slots__ = ()

    @staticmethod
    def __enter__() -> bool:
        collecting = gc.isenabled()
        gc.disable()
        _held.append(collecting)
        return collecting

    @staticmethod
    def __exit__(exc_type, exc, traceback) -> None:
        if _held.pop():
            gc.enable()


_COLLECTOR_HELD = _CollectorHold()


def _thaw() -> None:
    """Hand everything frozen back to the collector's old generation.

    What it hands back has not been walked since it was frozen, so the
    thaw notes the count of full passes: until that count moves, the
    next boundary pass is a full one.  Any full pass counts: a close's,
    the host's or an automatic one.  Import notes the count too, so the
    process's first close walks the old generation unless a full pass
    ran after the import.
    """
    global _closes_since_thaw, _full_passes_at_thaw
    gc.unfreeze()
    _closes_since_thaw = 0
    _full_passes_at_thaw = _full_passes()


def _collect_and_freeze(obs: Observability) -> None:
    """The epoch boundary's one collection, then freeze its survivors.

    It runs inside the close's hold, so nothing collects between the
    pass and the freeze.  The pass collects the young generations, which
    hold what was allocated since the last close's freeze unless a pass
    in between promoted it; the old generation is walked only while it
    holds thawed objects that no full pass has walked since the thaw
    (:func:`_thaw`).  Freezing is safe for trees because they hold no
    cycles: a frozen tree dropped later is freed by its reference
    count.  A *cyclic* structure dropped after it was frozen, or after
    a pass promoted it into the old generation, waits for a thaw, so
    every :data:`_THAW_PERIOD`-th close thaws before it collects (and
    pays a whole-heap pass), as does :meth:`HierarchyRuntime.shutdown`.
    """
    global _closes_since_thaw
    _closes_since_thaw += 1
    thawed = _closes_since_thaw >= _THAW_PERIOD
    with obs.span("collect", thawed=thawed) as span:
        if thawed:
            _thaw()
        generation = 2 if _full_passes() == _full_passes_at_thaw else 1
        span.set_attr("generation", generation)
        span.set_attr("found", gc.collect(generation))
        gc.freeze()


class HierarchyRuntime:
    """Data stores at every configured level of an arbitrary hierarchy.

    ``_stores`` (location path -> store) is the one store table: the
    runtime provisions into it, the elastic ops re-key and retire in
    it, and ``manager`` reads that same dict live.  Every close goes
    through :meth:`close_epoch`.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        levels: Mapping[str, LevelConfig],
        schema: FeatureSchema = FIVE_TUPLE,
        policy: Optional[GeneralizationPolicy] = None,
        epoch_seconds: float = 60.0,
        merge_node_budget: Optional[int] = 65536,
        fabric: Optional[NetworkFabric] = None,
        db: Optional[FlowDB] = None,
        registry: Optional[PrimitiveRegistry] = None,
        raw_record_bytes: int = 48,
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        observability: Optional[Observability] = None,
        storage: Optional[StorageEngine] = None,
    ) -> None:
        if not levels:
            raise PlacementError(
                "HierarchyRuntime needs at least one configured level"
            )
        known_levels = {spec.name for spec in hierarchy.levels()}
        unknown = sorted(set(levels) - known_levels)
        if unknown:
            raise PlacementError(
                f"levels {unknown} do not exist in the hierarchy; "
                f"known: {sorted(known_levels)}"
            )
        #: the single mutable topology seam: hierarchy + level table +
        #: generation; every derived view below rebuilds from it
        self.model = TopologyModel(hierarchy, dict(levels))
        self.policy = policy or GeneralizationPolicy.default_for(schema)
        self.epoch_seconds = epoch_seconds
        self.raw_record_bytes = raw_record_bytes
        self.fabric = fabric or NetworkFabric(hierarchy)
        self.retry_policy = retry_policy or RetryPolicy()
        #: metrics + tracing; pass ``Observability.disabled()`` for the
        #: uninstrumented baseline
        self.obs = observability or Observability()
        #: the one way a summary leaves a store, and the parked exports
        self.exports = ExportPath(self)
        #: timestamp of the previous epoch close (the current window start)
        self._last_close = 0.0
        if faults is not None:
            self.inject_faults(faults)
        if db is None:
            db = FlowDB(merge_node_budget=merge_node_budget, engine=storage)
        elif storage is not None:
            db.engine = storage
        self.db = db
        #: the storage seam shared with FlowDB: summaries land in its
        #: record log, runtime state in its manifest (memory by default)
        self.engine = db.engine
        self.registry = registry or default_registry()
        self._stores: Dict[str, DataStore] = {}  # by location path
        self.manager = Manager(self._stores, registry=self.registry)
        self.controllers: Dict[str, Controller] = {}
        self._root = hierarchy.root.location
        #: whether closes resize level budgets (enable_adaptive_budgets)
        self._adaptive_budgets = False
        #: reconfig/restart drills already applied, by drill identity
        self._applied_drills: set = set()
        #: durability counters (fed to observability)
        self._restarts = 0
        self._recoveries = 0
        self._recovered_records = 0
        self._not_durable = 0  # as of the last checkpoint
        # provision one store per configured node, hierarchy order
        for node in hierarchy.nodes():
            config = self.model.levels.get(node.level.name)
            if config is None:
                continue
            self._provision_store(node, config)
        self._rebuild_views()
        self.stats = VolumeStats(
            [node.level.name for node, _, _ in self._plan]
        )
        # the unified query plane: FlowQL routes through the planner
        # (root FlowDB, federated fan-out, cache, replication feed)
        self.planner = FederatedQueryPlanner(self)
        # opening over an engine that holds a checkpoint *is* recovery
        recover(self)
        install_runtime_metrics(self.obs, self)

    # -- the topology seam ---------------------------------------------------

    @property
    def hierarchy(self) -> Hierarchy:
        """The live (mutable, generation-versioned) hierarchy."""
        return self.model.hierarchy

    @property
    def levels(self) -> Dict[str, LevelConfig]:
        """The live per-level config table (the model's, not a copy)."""
        return self.model.levels

    def _provision_store(
        self, node: HierarchyNode, config: LevelConfig
    ) -> DataStore:
        """Create and equip the store for one node, keyed in ``_stores``."""
        store = DataStore(
            node.location,
            config.make_storage(),
            fabric=self.fabric,
            privacy=config.privacy,
        )
        self._equip(store, config)
        self._stores[node.location.path] = store
        return store

    def _equip(self, store: DataStore, config: LevelConfig) -> None:
        """Install the level's aggregator at ``store``, fresh and empty."""
        if config.aggregator is not None:
            store.install_aggregator(
                Aggregator(
                    config.resolved_aggregator_name,
                    self._make_primitive(config, store.location),
                )
            )

    def _rebuild_views(self) -> None:
        """Re-derive every topology-indexed view from the model.

        Called once at construction and again after every
        reconfiguration op.  The derivations are pure functions of the
        hierarchy's DFS order and the store map, so a zero-reconfig run
        produces exactly the views the pre-elastic inline construction
        did — provisioning order, rollup order, labels, and ingestible
        set are all bit-identical.
        """
        plan: List[Tuple[HierarchyNode, LevelConfig, DataStore]] = []
        labels: Dict[str, str] = {}
        by_label: Dict[str, DataStore] = {}
        for node in self.model.hierarchy.nodes():
            store = self._stores.get(node.location.path)
            if store is None:
                continue
            config = self.model.levels.get(node.level.name)
            if config is None:
                continue
            plan.append((node, config, store))
            labels[node.location.path] = self._label_of(node)
            by_label[labels[node.location.path]] = store
        self._plan = plan
        self._labels = labels
        self._by_label = by_label
        # rollup bottom-up: deepest stores first; DFS order breaks ties,
        # so siblings close in provisioning order (deterministic)
        self._rollup_order = sorted(
            self._plan, key=lambda entry: -len(entry[0].ancestors())
        )
        # data enters at the edge: store-bearing nodes with no
        # store-bearing descendant are the ingest targets
        self._ingestible = {}
        for node, _, store in self._plan:
            if not any(
                child.location.path in self._stores
                for child in node.walk()
                if child is not node
            ):
                self._ingestible[self._labels[node.location.path]] = store
        stats = getattr(self, "stats", None)
        if stats is not None:
            for node, _, _ in self._plan:
                stats.level(node.level.name)

    # -- live reconfiguration (the elastic ops) ------------------------------

    def site_join(
        self,
        site: str,
        level: Union[None, str, "LevelSpec"] = None,
        deadline: Optional[float] = None,
    ) -> HierarchyNode:
        """Attach a new site between epoch closes; see elastic.ops."""
        from repro.elastic import ops

        return ops.site_join(self, site, level=level, deadline=deadline)

    def site_leave(self, site: str, now: Optional[float] = None) -> int:
        """Drain a site out, migrating its summaries to a sibling."""
        from repro.elastic import ops

        return ops.site_leave(self, site, now=now)

    def level_split(
        self,
        level: str,
        new_level: str,
        groups: Mapping[str, Iterable[str]],
        deadline: Optional[float] = None,
        config: Optional[LevelConfig] = None,
    ) -> List[HierarchyNode]:
        """Insert a new level below ``level`` by grouping its children."""
        from repro.elastic import ops

        return ops.level_split(
            self, level, new_level,
            {name: list(members) for name, members in groups.items()},
            deadline=deadline, config=config,
        )

    def level_merge(self, level: str, now: Optional[float] = None) -> int:
        """Dissolve a level, reattaching its children one level up."""
        from repro.elastic import ops

        return ops.level_merge(self, level, now=now)

    def migrate_store(
        self, site: str, new_parent: str, now: Optional[float] = None
    ) -> Dict[str, str]:
        """Re-home a store (and subtree) under a new parent node."""
        from repro.elastic import ops

        return ops.migrate_store(self, site, new_parent, now=now)

    def enable_adaptive_budgets(self) -> None:
        """Let every close resize each level's Flowtree budget.

        Opt-in: while off, level budgets stay exactly the ``LevelConfig``
        values.  A level's budget has one writer, :meth:`_resize_level`,
        which this cycle and recovery call; the Manager retunes only
        aggregators it created.
        """
        self._adaptive_budgets = True

    def _resize_level(self, level: str, budget: int) -> None:
        """Set one level's node budget: its config (so stores provisioned
        later match) and every Flowtree at the level, live now."""
        self.model.levels[level].node_budget = budget
        for node, config, store in self._plan:
            if node.level.name != level or config.aggregator is None:
                continue
            primitive = store.aggregator(
                config.resolved_aggregator_name
            ).primitive
            if isinstance(primitive, FlowtreePrimitive):
                primitive.set_granularity(budget)

    # -- provisioning helpers ----------------------------------------------

    def _make_primitive(self, config: LevelConfig, location: Location):
        if config.aggregator == "flowtree":
            # built directly so every level shares the runtime's policy
            return FlowtreePrimitive(
                location, self.policy, node_budget=config.node_budget,
                **config.config,
            )
        return self.registry.create(
            config.aggregator, location, dict(config.config)
        )

    def _label_of(self, node: HierarchyNode) -> str:
        """A node's site label: its path relative to the hierarchy root."""
        return self._path_label(node.location.path)

    def _parent_store(
        self, node: HierarchyNode
    ) -> Optional[DataStore]:
        """The nearest ancestor node that carries a store."""
        probe = node.parent
        while probe is not None:
            store = self._stores.get(probe.location.path)
            if store is not None:
                return store
            probe = probe.parent
        return None

    # -- store access --------------------------------------------------------

    def stores(self) -> List[DataStore]:
        """Every provisioned store, hierarchy (DFS) order."""
        return [store for _, _, store in self._plan]

    def store_at(self, location: Location) -> DataStore:
        """The store at exactly this hierarchy location."""
        try:
            return self._stores[location.path]
        except KeyError as exc:
            raise PlacementError(
                f"no store provisioned at {location.path!r}"
            ) from exc

    def store_for(self, site: str) -> DataStore:
        """The store addressed by a root-relative site label."""
        store = self._by_label.get(site)
        if store is None:
            raise PlacementError(
                f"unknown site {site!r}; known: {sorted(self._by_label)}"
            )
        return store

    def stores_at_level(self, level_name: str) -> Dict[str, DataStore]:
        """Site label → store for every store at one level."""
        return {
            self._labels[node.location.path]: store
            for node, _, store in self._plan
            if node.level.name == level_name
        }

    def ingest_sites(self) -> List[str]:
        """Labels of the stores that accept raw ingest (the edge)."""
        return list(self._ingestible)

    def site_label(self, location: Location) -> str:
        """The root-relative site label of a store-bearing location."""
        label = self._labels.get(location.path)
        if label is None:
            raise PlacementError(
                f"no store provisioned at {location.path!r}"
            )
        return label

    def store_levels(self) -> List[str]:
        """Store-bearing level names, shallowest first."""
        depths: Dict[str, int] = {}
        for node, _, _ in self._plan:
            depth = len(node.ancestors())
            name = node.level.name
            if name not in depths or depth < depths[name]:
                depths[name] = depth
        return sorted(depths, key=lambda name: depths[name])

    # -- control plane -------------------------------------------------------

    def attach_controller(
        self, location: Location, controller: Optional[Controller] = None
    ) -> Controller:
        """Register (or create) the controller governing one node."""
        self.hierarchy.node(location)  # raises PlacementError if absent
        controller = controller or Controller(location)
        self.controllers[location.path] = controller
        return controller

    # -- fault tolerance ------------------------------------------------------

    @property
    def faults(self) -> Optional[FaultPlan]:
        """The active fault schedule (``None`` = faultless fabric)."""
        return self.fabric.faults

    def inject_faults(self, faults: Optional[FaultPlan]) -> None:
        """Install (or clear) the fault schedule on the fabric.

        A plan without an explicit ``epoch_seconds`` adopts the
        runtime's, so its outage windows line up with epoch closes.
        """
        if faults is not None and faults.epoch_seconds is None:
            faults.epoch_seconds = self.epoch_seconds
        self.fabric.inject_faults(faults)

    def pending_exports(self) -> int:
        """Exports parked across all stores, awaiting redelivery."""
        return sum(len(queue) for queue in self.exports.queues.values())

    def pending_queue(self, site: str) -> PendingExportQueue:
        """The pending-export queue of one store (by site label)."""
        return self.exports.queue_for(self.store_for(site))

    # -- data path -----------------------------------------------------------

    def ingest(
        self,
        site: str,
        records: Iterable,
        stream_id: str = "flows",
        size_bytes: Optional[int] = None,
    ) -> int:
        """Feed raw records into an edge site's data store.

        A record is timed by its ``first_seen`` (flow records) or, for a
        :class:`~repro.flows.records.PacketRecord`, its ``timestamp``; a
        batch holding a record with neither raises
        :class:`~repro.errors.SchemaMismatchError` before anything is
        applied.  Raw volume is accounted against the site's level
        using each record's ``bytes`` attribute when present.  The
        batch-size fallback counts *once per batch*: records without a
        ``bytes`` attribute must not each re-count the whole batch size.

        The whole call runs with the cyclic collector held, as the close
        does (:data:`_COLLECTOR_HELD`): trees hold no cycles, so a pass
        mid-batch would free nothing.  A pass the batch's allocations
        made due waits for the caller's next allocation outside a hold;
        the next close's boundary pass walks what the batch left anyway.
        A host that runs with the collector off is left alone.
        """
        with _COLLECTOR_HELD:
            store = self._ingestible.get(site)
            if store is None:
                raise PlacementError(
                    f"unknown site {site!r}; known: {sorted(self._ingestible)}"
                )
            started = time.perf_counter()
            size = self.raw_record_bytes if size_bytes is None else size_bytes
            records = list(records)
            try:
                batch = [(record, record.first_seen) for record in records]
            except AttributeError:
                batch = [(record, _timestamp_of(record)) for record in records]
            count = store.ingest(stream_id, batch, size_bytes=size)
            node = self.hierarchy.node(store.location)
            volume = self.stats.level(node.level.name)
            volume.raw_items += count
            batch_bytes = 0
            unsized = False
            for record, _ in batch:
                record_bytes = getattr(record, "bytes", None)
                if record_bytes is None:
                    unsized = True
                else:
                    batch_bytes += record_bytes
            if unsized:
                batch_bytes += size
            volume.raw_bytes += batch_bytes
            self.obs.observe(
                INGEST_SECONDS,
                time.perf_counter() - started,
                level=node.level.name,
            )
            return count

    def close_epoch(self, now: float) -> int:
        """One generic level-by-level rollup (deepest stores first).

        Every store seals its epoch; one with an ancestor store ships
        the sealed summary to it over the fabric (the interior merge),
        one with none ships its Flowtree partitions into FlowDB across
        the WAN — privacy-degraded, either way, when the level has a
        guard.  Returns the number of summaries exported to FlowDB.

        Every export travels :mod:`repro.runtime.export`'s one path,
        under the runtime's :class:`~repro.faults.RetryPolicy`; one
        that exhausts its retries is parked in the store's pending
        queue and redelivered here, at the store's slot, on a later
        close — deepest-first order lets recovered child mass still
        reach the root within the same close.

        The cyclic collector is held for the length of the close, from
        before its span opens (:data:`_COLLECTOR_HELD`, the hold ingest
        takes too), and run once at its end, inside the ``close_epoch``
        span as a ``collect`` child (:func:`_collect_and_freeze`).
        That boundary pass is the only collection the write path runs: a
        pass the last ingest left due is not paid on the way in, since
        the boundary pass walks the young generations anyway.  What
        survives it is frozen, so the next close's pass walks only what
        this epoch allocated.  It collects generations 0-1; the old
        generation is walked once per thaw (at every
        :data:`_THAW_PERIOD`-th close and after :meth:`shutdown`), by
        the first full pass after it, the close's or any other.  (A
        host that runs with the collector off is left alone.)
        """
        with _COLLECTOR_HELD as collecting:
            with self.obs.span(
                "close_epoch", epoch=self.stats.epochs_closed, at=now
            ) as root:
                try:
                    exported = self._rollup(now)
                    root.set_attr("exported", exported)
                finally:
                    if collecting:
                        _collect_and_freeze(self.obs)
        self._apply_drills(now)
        return exported

    def _rollup(self, now: float) -> int:
        exported = 0
        # level -> [compressions, fullness, trees] of what it sealed
        sealed = {} if self._adaptive_budgets else None
        for node, config, store in self._rollup_order:
            started = time.perf_counter()
            level = node.level.name
            volume = self.stats.level(level)
            with self.obs.span(
                "rollup", site=self._labels[store.location.path], level=level
            ):
                ship = self.exports
                parent = self._parent_store(node)
                exported += ship.drain(store, parent, now)
                if sealed is not None:
                    self._note_sealed(sealed, level, config, store)
                for export in self._seal_epoch(config, store, parent, now):
                    if not ship.deliver(export, store, parent, now):
                        ship.park(export, store, store)
                    elif parent is None:
                        exported += 1
            elapsed = time.perf_counter() - started
            volume.rollup_seconds += elapsed
            self.obs.observe(ROLLUP_SECONDS, elapsed, level=level)
        if sealed is not None:
            self._adapt_budgets(sealed, now)
        self.stats.epochs_closed += 1
        self._last_close = now
        # new data invalidates cached answers and advances query time
        self.planner.on_epoch_closed(now)
        # the epoch boundary is the durability point: everything appended
        # this close seals into one segment and the checkpoint commits — a
        # crash from here on recovers to *this* boundary
        self.engine.seal_epoch(
            self.stats.epochs_closed - 1, meta={"closed_at": now}
        )
        commit(self)
        return exported

    def _seal_epoch(
        self,
        config: LevelConfig,
        store: DataStore,
        parent: Optional[DataStore],
        now: float,
    ) -> List[PendingExport]:
        """Seal one store's epoch; the exports it owes, each built once.

        A store with an ancestor store owes it the level's own
        aggregator (the sealed summary is the retained partition itself
        where the level keeps one); a store with none cuts every
        aggregator and owes FlowDB its Flowtree partitions.
        """
        build = self.exports.build
        if config.export == EXPORT_NONE:
            store.close_epoch(now)
            return []
        if parent is None:
            return [
                build(
                    store, "flowdb", partition.partition_id,
                    partition.aggregator, partition.summary, 0, now,
                )
                for partition in store.close_epoch(now)
                if partition.summary.kind == "flowtree"
            ]
        name = config.resolved_aggregator_name
        aggregator = (
            store.aggregator(name) if config.aggregator is not None else None
        )
        items = aggregator.items_this_epoch if aggregator is not None else 0
        if items == 0:
            if config.retain_partitions:
                store.close_epoch(now)
            return []
        if config.retain_partitions:
            (sealed,) = (
                partition.summary
                for partition in store.close_epoch(now)
                if partition.aggregator == name
            )
        else:
            sealed = aggregator.close_epoch(now, store.storage_pressure())
        export_id = f"{store.location.path}:{name}:{self.stats.epochs_closed}"
        return [build(store, "forward", export_id, name, sealed, items, now)]

    # -- adaptive budgets ----------------------------------------------------

    def _note_sealed(
        self,
        sealed: Dict[str, List[float]],
        level: str,
        config: LevelConfig,
        store: DataStore,
    ) -> None:
        """Add the Flowtree ``store`` is about to seal to its level's sums.

        Every child has delivered by now, so the live tree is the one the
        seal hands over.  Only its numbers are kept: a parent may adopt
        the tree itself."""
        if config.aggregator is None or config.node_budget is None:
            return
        aggregator = store.aggregator(config.resolved_aggregator_name)
        primitive = aggregator.primitive
        if aggregator.items_this_epoch and isinstance(
            primitive, FlowtreePrimitive
        ):
            tree = primitive.tree
            sums = sealed.setdefault(level, [0.0, 0.0, 0.0])
            sums[0] += tree.compressions
            sums[1] += tree.node_count / primitive.node_budget
            sums[2] += 1

    def _adapt_budgets(
        self, sealed: Mapping[str, List[float]], now: float
    ) -> None:
        """One decision per level that sealed trees this close."""
        floor = self.policy.depth + 1
        for level, (compressions, filled, trees) in sealed.items():
            old = self.model.levels[level].node_budget
            pressure, fullness = compressions / trees, filled / trees
            new = _resized(old, pressure, fullness, floor)
            if new is not None:
                self._resize_level(level, new)
                self.model.ledger.record_resize(
                    level, old=old, new=new, pressure=pressure,
                    fullness=fullness, at=now,
                )

    # -- drills (FaultPlan reconfig= / restart= grammar) and durability -------

    def _due_drills(self, drills: Iterable):
        """The drills due at this boundary, each exactly once: ``epoch=e``
        fires after the close that completed epoch ``e`` (0-based)."""
        boundary = self.stats.epochs_closed - 1
        for drill in drills:
            if drill.epoch == boundary and drill not in self._applied_drills:
                self._applied_drills.add(drill)
                yield drill

    def _apply_drills(self, now: float) -> None:
        """Run the fault plan's reconfig, then restart, drills *between*
        closes: the epoch is fully rolled up, the next has not opened.
        A site renamed and restarted at one boundary restarts under its
        new name; naming the root restarts the whole runtime."""
        plan = self.faults
        if plan is None:
            return
        reconfigured = False
        for drill in self._due_drills(plan.reconfigs):
            reconfigured = True
            with self.obs.span(
                "reconfig_drill", op=drill.op, path=drill.path, at=now
            ):
                if drill.op == "join":
                    self.site_join(drill.path)
                elif drill.op == "leave":
                    self.site_leave(drill.path, now=now)
                elif drill.op == "migrate":
                    self.migrate_store(
                        drill.path, drill.new_parent or "", now=now
                    )
        if reconfigured:
            # reconfigs rename paths and bump the generation; re-commit
            # so a crash right after the drill recovers the new topology
            commit(self)
        for drill in self._due_drills(plan.restarts):
            if drill.site == self._root.path:
                self.restart(now)
            else:
                self.restart_site(drill.site, now)

    def _path_label(self, path: str) -> str:
        """A location path's root-relative site label."""
        prefix = self._root.path + "/"
        return path[len(prefix):] if path.startswith(prefix) else path

    def restart(self, now: float, site: Optional[str] = None) -> None:
        """Kill and recover from the storage engine — the in-process
        SIGKILL + reopen — the whole runtime, or only the store at
        ``site``; :mod:`repro.runtime.checkpoint` has both halves."""
        sites = None if site is None else (site,)
        with self.obs.span("restart", site=site or "*", at=now):
            kill(self, sites)
            recover(self, now, sites)
            self._restarts += 1

    def restart_site(self, site: str, now: float) -> None:
        """Kill and recover one store (by site label) from the engine."""
        self.restart(now, site)

    def storage_stats(self) -> Dict[str, object]:
        """Engine counters plus the runtime's durability counters."""
        stats = self.engine.stats()
        stats["restarts"] = self._restarts
        stats["recoveries"] = self._recoveries
        stats["recovered_records"] = self._recovered_records
        stats["not_durable"] = self._not_durable
        return stats

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        """End the runtime's life: thaw what the closes froze.

        The runtime holds no process, thread or open handle of its own
        (the storage engine commits at every close).  What it leaves is
        the collector's permanent generation, where every close froze
        its survivors: a cyclic structure dropped after that (this
        runtime's own state, once the caller lets it go) is only found
        by a pass once it is thawed.  So shutdown thaws it, and the
        next full pass frees it: the host's, an automatic one, or else
        the next close's, which walks the old generation because no
        full pass has run since the thaw.
        """
        _thaw()

    def __enter__(self) -> "HierarchyRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- query path ------------------------------------------------------------

    def query(
        self, flowql: str, now: Optional[float] = None
    ) -> QueryOutcome:
        """Answer a FlowQL query through the federated planner.

        Queries the root FlowDB covers run there unchanged; anything
        else fans out to the shallowest covering hierarchy level.
        Returns a typed :class:`~repro.query.plan.QueryOutcome` —
        result access (``rows``/``scalar``/...) delegates to the
        underlying :class:`~repro.flowql.executor.FlowQLResult`, and
        ``outcome.plan`` / ``outcome.degradation`` / ``outcome.cache``
        say where the answer came from and whether any site was
        unreachable.
        """
        return self.planner.execute(flowql, now=now)

    def subscribe(
        self,
        flowql: str,
        on_update: Optional[Callable] = None,
        now: Optional[float] = None,
    ):
        """Register a standing FlowQL query (``SUBSCRIBE SELECT ...``).

        The planner materializes the query once and delta-maintains the
        result at every epoch close, publishing a typed
        :class:`~repro.query.subscriptions.SubscriptionUpdate` per
        boundary — identical to what re-executing the query would
        return, at a fraction of the read/shipping cost.  Returns the
        :class:`~repro.query.subscriptions.Subscription` handle
        (``latest()``, ``updates_since()``, ``cancel()``); pass
        ``on_update`` to be called synchronously per update instead of
        polling.  Bare ``SELECT ...`` text is accepted too.
        """
        return self.planner.subscriptions.register(
            flowql, on_update=on_update, now=now
        )

    def wan_bytes(self) -> int:
        """Bytes that crossed a link into the hierarchy root."""
        return self.fabric.wan_bytes()

    def total_network_bytes(self) -> int:
        """Bytes carried across every fabric link (each hop counts)."""
        return self.fabric.total_bytes()
