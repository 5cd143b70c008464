"""The federated FlowQL planner: one hierarchy-aware query plane.

The paper's central loop (Figs. 3-6) is query-driven: drilldown routes
work *down* the hierarchy, repeated access triggers caching and
ski-rental replication.  :class:`FederatedQueryPlanner` is where those
pieces meet:

* **Routing** — a query whose sites/window the root FlowDB covers is
  planned onto the cloud route; otherwise the planner fans out to the
  shallowest store-bearing level whose stores cover the requested
  sites.  Either way each window is read by one
  :class:`~repro.query.fold.WindowFold` and answered by the same
  Table II operator tail, which sums FROM's trees less ``VS``'s.
* **One front door** — query text goes through the planner's
  :class:`~repro.query.memo.QueryMemo`: text → (parsed query, plan,
  cache key), kept while the stores and topology it was planned on
  hold, so a repeat is neither parsed nor planned again.
* **One fold call** — :meth:`fold` answers every query: a cold read
  folds from empty, a standing query advances its kept folds.
* **Caching** — results are memoized in a
  :class:`~repro.query.cache.QueryCache` under the memo's key, with the
  inputs their folds consumed; an entry is current exactly while its
  windows read those inputs, so a hit always equals a cold read.
* **Replication feed** — every remote partition read is recorded
  through :meth:`Manager.record_remote_access`, so real FlowQL traffic
  (not a synthetic trace) drives the Fig. 6 adaptive-replication cycle.
  Partitions the engine has replicated to the planner's root-side
  replica store are served locally on later queries — no WAN traffic.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.core.flowtree import FlowtreePrimitive, keyed
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.partitions import Partition
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.errors import FlowQLPlanningError, TransferError
from repro.flowql.ast import FlowQLQuery, TimeSpec
from repro.flowql.executor import FlowQLResult
from repro.flows.tree import Flowtree, UnionKey
from repro.obs.bridge import QUERY_SECONDS
from repro.query.cache import QueryCache
from repro.query.fold import FoldBroken, WindowFold, answer
from repro.query.memo import QueryFront, QueryMemo
from repro.query.plan import (
    ROUTE_CLOUD,
    ROUTE_FEDERATED,
    CacheInfo,
    Degradation,
    QueryOutcome,
    QueryPlan,
    SiteRead,
)
from repro.query.subscriptions import SubscriptionRegistry

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import HierarchyRuntime


def _covers(label: str, site: str) -> bool:
    """Whether a store labeled ``label`` holds exactly ``site``'s data.

    A store covers a requested site when it *is* that site or sits
    strictly below it — an ancestor store's merged tree would overcount
    (it folds in the site's siblings), so it never covers.
    """
    return label == site or label.startswith(site + "/")


def _alike(first: Aggregator, other: Aggregator) -> bool:
    """Whether two Flowtree aggregators hold the same flows under one
    generalization policy (their budgets may differ)."""
    return (
        first.stream_filter == other.stream_filter
        and first.item_of == other.item_of
        and first.primitive.policy.compatible_with(other.primitive.policy)
    )


#: storage budget of the planner's root-side replica store
REPLICA_BUDGET_BYTES = 256 * 1024 * 1024


class FederatedQueryPlanner:
    """Routes FlowQL across a :class:`HierarchyRuntime`'s stores."""

    def __init__(self, runtime: "HierarchyRuntime") -> None:
        self.runtime = runtime
        #: reactive result cache
        self.cache = QueryCache(self._inputs)
        # the landing zone for shipped partials and bought replicas: a
        # root-located store that is *not* registered with the runtime
        # (registering it would make the root part of the rollup)
        self.replica_store = DataStore(
            runtime.hierarchy.root.location,
            RoundRobinStorage(REPLICA_BUDGET_BYTES),
            fabric=runtime.fabric,
        )
        #: the planner's notion of "now" (advanced by epoch closes)
        self.clock = 0.0
        #: the routing decision of the most recent execute()
        self.last_plan: Optional[QueryPlan] = None
        #: the front door: text -> (parsed query, plan, cache key)
        self.memo = QueryMemo(self)
        #: standing queries, delta-maintained at every epoch close
        self.subscriptions = SubscriptionRegistry(self)

    def _topology_generation(self) -> int:
        """The runtime's live topology generation (0 when static)."""
        model = getattr(self.runtime, "model", None)
        return 0 if model is None else model.generation

    # -- plan selection ------------------------------------------------------

    def plan(self, query: FlowQLQuery) -> QueryPlan:
        """Decide where one parsed query executes (no side effects)."""
        window = (query.time.start, query.time.end)
        if self._cloud_covers(query):
            return QueryPlan(
                route=ROUTE_CLOUD, window=window, sites=list(query.sites)
            )
        level, labels = self._federated_target(query)
        return QueryPlan(
            route=ROUTE_FEDERATED, window=window, level=level, sites=labels
        )

    def _windows(self, query: FlowQLQuery) -> List[TimeSpec]:
        specs = [query.time]
        if query.vs_time is not None:
            specs.append(query.vs_time)
        return specs

    def window_folds(
        self, plan: QueryPlan, query: FlowQLQuery
    ) -> List[WindowFold]:
        """One empty fold per window the query reads (FROM, then VS)."""
        return [
            WindowFold(self, plan, query, spec)
            for spec in self._windows(query)
        ]

    def _cloud_covers(self, query: FlowQLQuery) -> bool:
        """Whether the root FlowDB holds data for every site and window."""
        db = self.runtime.db
        sites = query.sites or None
        try:
            return all(
                db.entries(sites, spec.start, spec.end)
                for spec in self._windows(query)
            )
        except FlowQLPlanningError:
            # sites not indexed at the root: drill into the hierarchy
            return False

    def _federated_target(
        self, query: FlowQLQuery
    ) -> Tuple[str, List[str]]:
        """The shallowest store-bearing level covering the query."""
        for level in self.runtime.store_levels():
            labels = self._covering_labels(level, query)
            if labels is not None:
                return level, labels
        raise FlowQLPlanningError(
            "no level's stores cover the requested sites/window "
            f"(sites={query.sites or None}, "
            f"start={query.time.start}, end={query.time.end})"
        )

    def _covering_labels(
        self, level: str, query: FlowQLQuery
    ) -> Optional[List[str]]:
        """Site labels participating at one level, or None if the level
        cannot cover every requested site in every query window."""
        stores = self._covering_stores(level, query.sites)
        participating: set = set()
        for spec in self._windows(query):
            active = {
                label
                for label, store in stores
                if self._window_partitions(
                    level, store, spec.start, spec.end
                )
            }
            if not active or any(
                not any(_covers(label, site) for label in active)
                for site in query.sites
            ):
                return None
            participating |= active
        return sorted(participating)

    # -- execution -----------------------------------------------------------

    def execute(
        self, flowql: Union[str, FlowQLQuery], now: Optional[float] = None
    ) -> QueryOutcome:
        """Plan and run one FlowQL query (text or parsed).

        Text is parsed and planned through :attr:`memo`, so a repeated
        text (a cache hit above all) does neither again.  Returns a typed :class:`~repro.query.plan.QueryOutcome` — the
        result plus its plan, cache provenance, and (when covering
        stores were unreachable) a :class:`~repro.query.plan.
        Degradation` record instead of an exception.  Degraded partial
        answers are never cached.
        """
        front = self.memo.front(flowql)
        now = self.clock if now is None else now
        obs = self.runtime.obs
        started = time.perf_counter()
        with obs.span("query", operator=front.query.select.name) as span:
            outcome = self._execute_planned(front, now)
            span.set_attr("route", outcome.plan.route)
            span.set_attr("cache_hit", outcome.cache.hit)
            if outcome.degradation is not None:
                span.set_attr("degraded", True)
        obs.observe(
            QUERY_SECONDS,
            time.perf_counter() - started,
            route="cached" if outcome.cache.hit else outcome.plan.route,
        )
        return outcome

    def _execute_planned(
        self, front: QueryFront, now: float
    ) -> QueryOutcome:
        query = front.query
        plan = front.plan()
        stats = self.runtime.stats
        key = plan.cache_key = front.key
        entry = self.cache.get(key, now, front)
        if entry is not None:
            plan.cache_hit = True
            stats.queries_cached += 1
            self.last_plan = plan
            return QueryOutcome(
                result=entry.value.copy(),
                plan=plan,
                cache=CacheInfo(hit=True, key=key),
            )
        folds, result, degradation, _ = self.fold(query, plan, now)
        if plan.route == ROUTE_CLOUD:
            stats.queries_cloud += 1
        else:
            stats.queries_federated += 1
            volume = stats.level(plan.level)
            volume.queries_served += 1
            volume.query_bytes_out += plan.shipped_bytes
        if degradation.is_degraded:
            # a partial answer must not satisfy tomorrow's full query
            stats.queries_degraded += 1
        else:
            degradation = None
            self.cache.put(
                key, result.copy(), now, [fold.consumed for fold in folds]
            )
        self.last_plan = plan
        return QueryOutcome(
            result=result,
            plan=plan,
            degradation=degradation,
            cache=CacheInfo(hit=False, key=key),
        )

    def _inputs(self, front: QueryFront) -> List[Dict[str, List]]:
        """The current inputs of every window a request reads (FROM,
        then VS) — what its cached result must have consumed."""
        return [
            fold.inputs()
            for fold in self.window_folds(front.plan(), front.query)
        ]

    def fold(
        self,
        query: FlowQLQuery,
        plan: QueryPlan,
        now: float,
        kept: Optional[List[WindowFold]] = None,
    ) -> Tuple[List[WindowFold], FlowQLResult, Degradation, Optional[str]]:
        """The one fold call: ``query``'s answer over its window folds.

        A cold read folds from empty.  ``kept`` folds (a standing
        query's) are advanced past what they consumed; when they cannot
        continue — made under another route or level, or an advance
        raised :class:`~repro.query.fold.FoldBroken` — the query is
        folded from empty instead and the reason is returned.
        ``plan.reads`` collects the reads behind the folds returned.
        Returns ``(folds, result, degradation, broken)``.
        """
        degradation = Degradation()
        broken = None
        if kept is not None:
            if (kept[0].plan.route, kept[0].plan.level) != (
                plan.route, plan.level
            ):
                broken = "route-changed"
            else:
                try:
                    for fold in kept:
                        plan.reads.extend(fold.advance(now))
                    return kept, answer(kept, query), degradation, None
                except FoldBroken as exc:
                    # a broken prefix, or a link that died mid-advance
                    # and may have left a torn window
                    broken = exc.reason
                    plan.reads.clear()
        folds = self.window_folds(plan, query)
        for fold in folds:
            plan.reads.extend(fold.advance(now, degradation))
        return folds, answer(folds, query), degradation, broken

    def cache_key(
        self, query: FlowQLQuery, plan: QueryPlan
    ) -> Tuple[Hashable, ...]:
        """The key a (query, plan) result is cached under.

        Every input is a float, int, string, None or a tuple of them,
        so the key is hashable as built.
        """
        return (
            query.select.name,
            tuple(query.select.args),
            query.time.start,
            query.time.end,
            (
                (query.vs_time.start, query.vs_time.end)
                if query.vs_time is not None
                else None
            ),
            tuple(query.sites),
            tuple((r.feature, r.value, r.mask) for r in query.where),
            query.metric,
            query.limit,
            plan.route,
            plan.level,
            # a replica promotion mid-window changes how (and from
            # where) a federated plan reads; keying on the replica
            # generation retires entries cached before the promotion
            len(self.replica_store.replicas),
            # live reconfiguration (join/leave/split/merge/migrate)
            # changes which stores exist and where; keying on the
            # topology generation retires entries cached under the
            # previous shape
            self._topology_generation(),
        )

    def _degraded_read(
        self,
        label: str,
        level: str,
        store: DataStore,
        partitions: List[Partition],
        spec: TimeSpec,
        now: float,
    ) -> Tuple[
        List[SiteRead], List[Tuple[UnionKey, Flowtree]], bool,
        Optional[float], List[str],
    ]:
        """Fallback coverage for a store whose remote read failed.

        Tries, in order: root-side replicas of the failed store's
        partitions (no fabric traffic), then covering stores at other
        store-bearing levels strictly under the failed store.  Returns
        ``(reads, trees, fully_covered, stale_through, attempted)`` —
        ``fully_covered=False`` means the site must be reported in the
        degradation record, with the served data complete only through
        ``stale_through``; ``attempted`` lists every node path the
        fallback chain actually tried (the failed store first), which
        lands in :attr:`Degradation.attempted_paths` for operator
        debugging and gateway error bodies.
        """
        attempted = [store.location.path]
        # replicas answer locally even while the link is down
        read, trees = self._read_store(
            label, level, store, partitions, now, replicas_only=True
        )
        attempted.append(self.replica_store.location.path)
        reads = [read] if read.replica_partitions else []
        if len(read.replica_partitions) == len(partitions):
            return reads, trees, True, None, attempted
        # shallower/deeper coverage: stores at other levels holding
        # exactly this site's data (never an ancestor — it overcounts)
        for other_level in self.runtime.store_levels():
            if other_level == level:
                continue
            candidates = {
                lab: st
                for lab, st in self.runtime.stores_at_level(
                    other_level
                ).items()
                if _covers(lab, label) and lab != label
            }
            if not candidates:
                continue
            alt_reads: List[SiteRead] = []
            alt_trees: List[Tuple[UnionKey, Flowtree]] = []
            try:
                for lab in sorted(candidates):
                    parts = self._window_partitions(
                        other_level, candidates[lab], spec.start, spec.end
                    )
                    if not parts:
                        continue
                    attempted.append(candidates[lab].location.path)
                    alt_read, alt_site_trees = self._read_store(
                        lab, other_level, candidates[lab], parts, now
                    )
                    alt_reads.append(alt_read)
                    alt_trees.extend(alt_site_trees)
            except TransferError:
                continue  # that level is unreachable too
            if alt_trees:
                return (
                    reads + alt_reads, trees + alt_trees, True, None,
                    attempted,
                )
        # partial at best: the replica subset (possibly nothing)
        replicated = set()
        if read.replica_partitions:
            replicated = set(read.replica_partitions)
        stale = None
        for partition in partitions:
            if partition.partition_id in replicated:
                end = partition.summary.meta.interval.end
                stale = end if stale is None else max(stale, end)
        return reads, trees, False, stale, attempted

    def _covering_stores(
        self, level: str, sites: List[str]
    ) -> List[Tuple[str, DataStore]]:
        """``(label, store)`` at one level holding the requested sites'
        data (every store when no site is named), in label order."""
        stores = self.runtime.stores_at_level(level)
        return [
            (label, stores[label])
            for label in sorted(stores)
            if not sites or any(_covers(label, site) for site in sites)
        ]

    def _replica(self, partition_id: str) -> Optional[Partition]:
        """The root-side replica of a partition (None when not bought)."""
        replicas = self.replica_store.replicas
        replica_id = f"{partition_id}@{self.replica_store.location.path}"
        return replicas.get(replica_id) if replica_id in replicas else None

    def _aggregator(self, level: str, store: DataStore) -> Optional[str]:
        """The one Flowtree aggregator a federated read takes at a store.

        A level that installs an aggregator names it.  A bare level's
        store (``aggregator=None``: applications install their own) is
        read through its Flowtree aggregator — None when it has none.
        Several alike (one stream under one policy) hold the same
        flows twice, so the first by name stands for them; several that
        differ cannot be told apart by a FlowQL read, which refuses
        rather than double count or mix policies.
        """
        config = self.runtime.levels[level]
        if config.aggregator is not None:
            return config.resolved_aggregator_name
        candidates = sorted(
            (
                aggregator
                for aggregator in store.aggregators()
                if isinstance(aggregator.primitive, FlowtreePrimitive)
            ),
            key=lambda aggregator: aggregator.name,
        )
        if not all(_alike(candidates[0], other) for other in candidates[1:]):
            raise FlowQLPlanningError(
                f"store {store.location.path!r} holds several Flowtree "
                f"aggregators ({', '.join(a.name for a in candidates)}); "
                "a federated read takes one"
            )
        return candidates[0].name if candidates else None

    def _window_partitions(
        self,
        level: str,
        store: DataStore,
        start: Optional[float],
        end: Optional[float],
        aggregator: Optional[str] = None,
    ) -> List[Partition]:
        """One store's partitions overlapping a window, of ``aggregator``
        (default: the one :meth:`_aggregator` takes), in union order."""
        if aggregator is None:
            aggregator = self._aggregator(level, store)
        selected = []
        for partition in store.catalog.all():
            if partition.summary.kind != "flowtree":
                continue
            if partition.aggregator != aggregator:
                continue
            interval = partition.summary.meta.interval
            if start is not None and interval.end <= start:
                continue
            if end is not None and interval.start >= end:
                continue
            selected.append(partition)
        return sorted(selected, key=lambda p: keyed(p.summary)[0])

    def _read_store(
        self,
        label: str,
        level: str,
        store: DataStore,
        partitions: List[Partition],
        now: float,
        replicas_only: bool = False,
    ) -> Tuple[SiteRead, List[Tuple[UnionKey, Flowtree]]]:
        """Fetch one store's partitions: replicas locally, the union of
        the rest shipped.

        Returns the read and the trees it yields as union inputs: each
        replica's payload, then the shipped union (a lone partition
        ships its own tree).  Remote reads are accounted on the fabric
        and fed to the manager's replication engine, which may
        replicate a partition into :attr:`replica_store` mid-stream, so
        later reads turn local.  With ``replicas_only`` the remote ship
        is skipped entirely (the degraded-read path: serve what the
        root already holds).  The trees returned may be stored
        payloads: read-only to the caller.
        """
        read = SiteRead(
            site=label,
            level=level,
            partitions=[p.partition_id for p in partitions],
        )
        trees: List[Tuple[UnionKey, Flowtree]] = []
        remote: List[Partition] = []
        with self.runtime.obs.span(
            "fetch", site=label, level=level
        ) as span:
            for partition in partitions:
                replica = self._replica(partition.partition_id)
                if replica is not None:
                    replica.record_access(
                        now, replica.size_bytes, remote=False
                    )
                    read.replica_partitions.append(partition.partition_id)
                    trees.append(keyed(replica.summary))
                elif not replicas_only:
                    remote.append(partition)
            if remote:
                key, first = keyed(remote[0].summary)
                wire = Flowtree.union(
                    (keyed(p.summary) for p in remote), first.node_budget
                )
                if store.privacy is not None:
                    # the union leaves the level's trust domain (a
                    # guarded store's fold is never kept, so it is
                    # always read from empty)
                    wire = store.privacy.export(
                        remote[0].aggregator,
                        replace(remote[0].summary, payload=wire),
                    ).payload
                size = wire.estimated_size_bytes()
                share = max(1, size // len(remote))
                for partition in remote:
                    partition.record_access(now, share, remote=True)
                    self.runtime.manager.record_remote_access(
                        store, self.replica_store, partition.partition_id,
                        share, now,
                    )
                if store.location.path != self.replica_store.location.path:
                    self.runtime.fabric.transfer(
                        store.location, self.replica_store.location,
                        size, now,
                    )
                read.shipped_bytes += size
                trees.append((key, wire))
            span.set_attr("shipped_bytes", read.shipped_bytes)
            span.set_attr(
                "replica_partitions", len(read.replica_partitions)
            )
        return read, trees

    # -- drilldown API for applications --------------------------------------

    def window_tree(
        self,
        site: Union[str, Location],
        start: Optional[float] = None,
        end: Optional[float] = None,
        aggregator: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Optional[Flowtree]:
        """One site's merged Flowtree for a window, via the federated
        read path (replica-first, fabric-accounted, feeding replication).

        This is the planner-backed replacement for applications'
        hand-rolled ``store.window_summary(..., record_access=True)``
        drilldowns.  Returns None when no partition overlaps.  The tree
        is read-only (:meth:`Flowtree.union` may return a stored one).
        """
        if isinstance(site, Location):
            site = self.runtime.site_label(site)
        now = self.clock if now is None else now
        store = self.runtime.store_for(site)
        level = self.runtime.hierarchy.node(store.location).level.name
        partitions = self._window_partitions(
            level, store, start, end, aggregator
        )
        if not partitions:
            return None
        read, trees = self._read_store(site, level, store, partitions, now)
        volume = self.runtime.stats.level(level)
        volume.queries_served += 1
        volume.query_bytes_out += read.shipped_bytes
        return Flowtree.union(trees, self.runtime.db.merge_node_budget)

    # -- cache lifecycle -----------------------------------------------------

    def invalidate_cache(self) -> int:
        """Drop every cached result; returns how many were dropped.

        The wholesale drop for elastic operations (whose topology
        generation the keys carry besides) and for callers that want a
        read to fold again.
        """
        return self.cache.invalidate()

    def on_epoch_closed(self, now: float) -> None:
        """Epoch boundary: advance query time and refresh every standing
        query.  Cached results need nothing here — each is re-checked
        against its window's inputs when it is next looked up."""
        self.clock = max(self.clock, now)
        self.subscriptions.on_epoch_closed(self.clock)
