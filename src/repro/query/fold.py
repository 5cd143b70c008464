"""One window of one plan, folded into a Flowtree — resumably.

A FlowQL answer over any sites and any span is ``compress(A1 ∪ A2 …)``
followed by Diff (for ``VS``) and the Table II operator tail.
:class:`WindowFold` is the one place that union is taken.  It owns
everything needed to answer one window (FROM or VS) of one
:class:`~repro.query.plan.QueryPlan`: the ordered inputs it has
consumed, the per-site partial trees they were folded into, and the
top-level merge.

* A **cold query** is a fold advanced once from empty and dropped.
* A **standing query** is a list of folds kept and advanced at every
  epoch close; each :meth:`WindowFold.advance` reads only the inputs
  beyond the consumed prefix.
* A **cached answer** keeps no fold, only what its folds
  :attr:`~WindowFold.consumed`.
* A **sequence breaker** is the fold raising :class:`FoldBroken`: a
  from-scratch read would no longer *start with* what this fold has
  consumed, so continuing would diverge from re-execution.  The caller
  drops the fold and advances a new one from empty.

**The currency rule.**  Every kept answer — cached or standing — is
current exactly while the inputs its window reads
(:meth:`WindowFold.inputs`: root FlowDB entry ids, or label → window
partition ids of the covering stores) are the ones its folds consumed.
A cached answer is dropped when they differ; a standing query's kept
fold continues while they only grew past its prefix.

Because a kept fold performs exactly the operations a fresh fold would
append (same inputs, same order, same node budgets), compression fires
at the same points and the two trees are equal — there is no second
code path to keep identical.

**Cloud route.**  Inputs are root FlowDB entries in
``(interval.start, location)`` order.  From empty the tree is
:func:`top_merge` of their trees under the root's merge budget; kept,
the entries past the consumed ids are merged into it.  Breaker:
``entry-prefix`` (recovery re-ids entries).

**Federated route.**  Inputs are the window partitions of every
covering store at the plan's level — of one aggregator per store (the
planner's ``_aggregator``), so each leaf epoch is folded once.  Each
store's partitions fold into one site partial by :func:`extend`, and
:func:`top_merge` merges the site partials.  One read serves both
advances: from empty it is the kept read with an empty consumed
prefix.  Each store's partitions beyond its prefix go through the
planner's ``_read_store`` (replica-first, fabric-accounted, feeding
adaptive replication), which extends the store's partial by them and
ships their union.  Breakers: ``partition-prefix`` (a consumed
partition vanished), ``replica-served`` (a window partition now lives
at the root, which a fresh read serves individually — a different
merge order), ``privacy-guard`` (a per-epoch privacy export need not
commute with the whole-window export) and ``degraded`` (a link failed
mid-read).  From empty, any of those leaves a fold that answers
honestly — a failed link through the degraded fallback — but is not
:attr:`~WindowFold.resumable`.

**Only a writer copies.**  No query path writes a tree it did not
build.  A window input is taken as is wherever taking it is exact — a
lone FlowDB entry, a store's lone partition, a lone partial under
:func:`top_merge` — so :attr:`WindowFold.tree` and a site partial may
be a stored tree or a replica's payload.  Answering only reads
(``apply_operator``, ``Flowtree.diff`` and the query methods mutate
nothing).  The one writer is a fold extending what it borrowed: it
records the trees it borrows when it takes them, and before the first
extension builds exactly what a fresh fold would — a fresh
:func:`top_merge` on the cloud route, ``copy()`` then ``merge`` for a
site partial (:func:`extend`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import FlowQLPlanningError, TransferError
from repro.flowql.ast import FlowQLQuery, TimeSpec
from repro.flowql.executor import FlowQLResult, apply_operator
from repro.flows.tree import Flowtree
from repro.query.plan import ROUTE_CLOUD, Degradation, QueryPlan, SiteRead

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datastore.store import DataStore
    from repro.flowdb.db import FlowDBEntry
    from repro.query.planner import FederatedQueryPlanner


class FoldBroken(Exception):
    """A kept fold cannot extend its consumed prefix; start over."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def top_merge(trees: Sequence[Flowtree], budget: Optional[int]) -> Flowtree:
    """Partial trees merged, in order, under the root's merge budget.

    Absorbing a lone partial that fits the budget into a fresh tree
    cannot compress — it would be an exact structural copy — so that
    partial is returned itself (read-only to the caller).
    """
    first = trees[0]
    if len(trees) == 1 and (budget is None or first.node_count <= budget):
        return first
    merged = Flowtree(first.policy, node_budget=budget, metric=first.metric)
    for tree in trees:
        merged.merge(tree)
    return merged


def extend(
    partial: Optional[Flowtree],
    payloads: Sequence[Flowtree],
    borrowed: Set[int],
) -> Flowtree:
    """A site partial grown by stored payloads, in catalog order.

    The one extend rule, from empty or kept: the first payload is
    borrowed as is (its id joins ``borrowed``), a borrowed partial is
    copied before it is first extended, and every later payload is
    merged in — the copy-first-merge-rest sequence of
    :meth:`~repro.core.flowtree.FlowtreePrimitive.coarsen`.
    """
    for payload in payloads:
        if partial is None:
            partial = payload
            borrowed.add(id(payload))
            continue
        if id(partial) in borrowed:
            borrowed.discard(id(partial))
            partial = partial.copy()
        partial.merge(payload)
    return partial


def answer(folds: Sequence["WindowFold"], query: FlowQLQuery) -> FlowQLResult:
    """The query's result over its advanced folds (FROM, then VS)."""
    tree = folds[0].tree
    if len(folds) > 1:
        tree = tree.diff(folds[1].tree)
    return apply_operator(tree, query)


class WindowFold:
    """The Flowtree of one window of one plan, and how it was built."""

    def __init__(
        self,
        planner: "FederatedQueryPlanner",
        plan: QueryPlan,
        query: FlowQLQuery,
        spec: TimeSpec,
    ) -> None:
        self.planner = planner
        self.plan = plan
        self.query = query
        self.spec = spec
        #: the window's tree (None until the first advance); read-only
        self.tree: Optional[Flowtree] = None
        #: whether a later advance can continue from the consumed prefix
        self.resumable = True
        #: the :meth:`inputs` the last advance consumed
        self.consumed: Dict[str, List] = {}
        #: federated route: store label -> its site partial
        self.site_trees: Dict[str, Flowtree] = {}
        #: ids of the stored trees held as is (``tree`` or a site
        #: partial), recorded when taken; copied before first extended
        self.borrowed: Set[int] = set()

    def inputs(self) -> Dict[str, List]:
        """The window's current inputs, by id, in fold order.

        Cloud route: ``{"": root FlowDB entry ids}``; federated route:
        covering store label -> its window partition ids, for every
        store holding any.  The currency rule: an answer over this
        window is current exactly while this equals :attr:`consumed`.
        """
        return {label: ids for label, _, _, ids in self._sources() if ids}

    def _sources(
        self,
    ) -> List[Tuple[str, Optional["DataStore"], list, list]]:
        """``(label, store, inputs, ids)`` per source the window reads:
        the root FlowDB (label ``""``, store None) on the cloud route,
        every covering store at the plan's level on the federated one."""
        planner, spec = self.planner, self.spec
        if self.plan.route == ROUTE_CLOUD:
            entries = planner.runtime.db.entries(
                self.query.sites or None, spec.start, spec.end
            )
            return [("", None, entries, [e.entry_id for e in entries])]
        level = self.plan.level
        sources = []
        for label, store in planner._covering_stores(level, self.query.sites):
            partitions = planner._window_partitions(
                level, store, spec.start, spec.end
            )
            ids = [p.partition_id for p in partitions]
            sources.append((label, store, partitions, ids))
        return sources

    def _check_prefix(self, current: Dict[str, List], reason: str) -> None:
        """A kept fold continues only what it consumed, in order."""
        for label, consumed in self.consumed.items():
            if current.get(label, [])[: len(consumed)] != consumed:
                raise FoldBroken(reason)

    def advance(
        self, now: float, degradation: Optional[Degradation] = None
    ) -> List[SiteRead]:
        """Consume every input not yet folded; returns the reads made.

        From empty, unreachable stores fall back to replica and
        other-level coverage and what stays missing is noted in
        ``degradation``.  A kept fold raises :class:`FoldBroken` when
        it cannot continue its consumed prefix.
        """
        sources = self._sources()
        current = {label: ids for label, _, _, ids in sources if ids}
        if self.plan.route == ROUTE_CLOUD:
            self._check_prefix(current, "entry-prefix")
            self._advance_cloud(sources[0][2])
            reads: List[SiteRead] = []
        else:
            reads = self._read(
                sources, current, now,
                Degradation() if degradation is None else degradation,
            )
        self.consumed = current
        return reads

    # -- cloud route ---------------------------------------------------------

    def _advance_cloud(self, entries: List["FlowDBEntry"]) -> None:
        db = self.planner.runtime.db
        if self.tree is None:
            if not entries:
                raise FlowQLPlanningError(
                    "no Flowtree summaries match the requested sites/window "
                    f"(locations={self.query.sites or None}, "
                    f"start={self.spec.start}, end={self.spec.end})"
                )
            assemble = True
        else:
            known = len(self.consumed[""])
            # a borrowed entry is never extended: with two or more
            # inputs now, a fresh fold's top merge builds a new tree
            assemble = known < len(entries) and id(self.tree) in self.borrowed
            if not assemble:
                for entry in entries[known:]:
                    self.tree.merge(entry.tree)
        if assemble:
            trees = [entry.tree for entry in entries]
            self.tree = top_merge(trees, db.merge_node_budget)
            self.borrowed = {id(self.tree)} if self.tree is trees[0] else set()

    # -- federated route -----------------------------------------------------

    def _cannot_resume(self, reason: str) -> None:
        """From empty: answer, but do not keep.  Kept: start over."""
        if self.tree is not None:
            raise FoldBroken(reason)
        self.resumable = False

    def _read(
        self,
        sources: List[Tuple[str, "DataStore", list, list]],
        current: Dict[str, List],
        now: float,
        degradation: Degradation,
    ) -> List[SiteRead]:
        """Fold every covering store's partitions beyond its consumed
        prefix (all of them from empty) into that store's partial."""
        planner, level, spec = self.planner, self.plan.level, self.spec
        if any(store.privacy is not None for _, store, _, _ in sources):
            # a per-epoch export need not commute with the whole-window
            # export
            self._cannot_resume("privacy-guard")
        # expiration, a site restart, or a rewritten catalog
        self._check_prefix(current, "partition-prefix")
        if any(
            planner._replica(pid) for ids in current.values() for pid in ids
        ):
            # served at the root, outside the site partial: a fresh
            # read folds in another order
            self._cannot_resume("replica-served")
        reads: List[SiteRead] = []
        trees: List[Flowtree] = []
        for label, store, partitions, _ in sources:
            if not partitions:
                continue
            fresh = partitions[len(self.consumed.get(label, ())):]
            if not fresh:
                trees.append(self.site_trees[label])
                continue
            try:
                read, store_trees = planner._read_store(
                    label, level, store, fresh, now,
                    self.site_trees.get(label), self.borrowed,
                )
            except TransferError as exc:
                self._cannot_resume("degraded")
                (
                    fallback, store_trees, covered, stale, attempted,
                ) = planner._degraded_read(
                    label, level, store, partitions, spec, now
                )
                reads.extend(fallback)
                if not covered:
                    degradation.note(
                        label, stale, str(exc), attempted=attempted
                    )
            else:
                reads.append(read)
                if any(planner._replica(pid) for pid in read.partitions):
                    # promoted by this very read: the next read breaks
                    self.resumable = False
                if not read.replica_partitions:
                    self.site_trees[label] = store_trees[-1]
            trees.extend(store_trees)
        budget = planner.runtime.db.merge_node_budget
        if trees:
            if reads or self.tree is None:
                self.tree = top_merge(trees, budget)
        elif degradation.is_degraded:
            # every covering store was unreachable: an honest empty
            # partial beats an exception — the degradation record
            # carries what is missing
            self.tree = Flowtree(planner.runtime.policy, node_budget=budget)
        else:
            raise FlowQLPlanningError(
                f"no partitions at level {level!r} match the window "
                f"(start={spec.start}, end={spec.end})"
            )
        return reads
