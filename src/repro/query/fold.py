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
* A **sequence breaker** is the fold raising :class:`FoldBroken`: a
  from-scratch read would no longer *start with* what this fold has
  consumed, so continuing would diverge from re-execution.  The caller
  drops the fold and advances a new one from empty.

Because a kept fold performs exactly the operations a fresh fold would
append (same inputs, same order, same node budgets), compression fires
at the same points and the two trees are equal — there is no second
code path to keep identical.

**Cloud route.**  Inputs are root FlowDB entries in
``(interval.start, location)`` order.  From empty the tree is
``FlowDB.merged_tree``; kept, the entries past the consumed ids are
merged into it.  Breaker: ``entry-prefix`` (recovery re-ids entries).

**Federated route.**  Inputs are the window partitions of every
covering store at the plan's level, read through the planner's
``_read_store`` (replica-first, fabric-accounted, feeding adaptive
replication).  From empty, the trees that read returns *are* the site
partials (one ``combine_flowtrees`` result per aggregator); kept, each
new partition extends its aggregator's partial by one ``merge`` — the
continuation of ``combine_flowtrees``' copy-first-merge-rest sequence.
Breakers: ``partition-prefix`` (a consumed partition vanished),
``replica-served`` (a window partition now lives at the root, which a
fresh read serves individually — a different merge order) and
``privacy-guard`` (a per-epoch privacy export need not commute with
the whole-window export).  A fold whose first read met any of those,
or fell back to degraded coverage, answers honestly but is not
:attr:`~WindowFold.resumable`.

**Read-only trees.**  :func:`top_merge` serves a lone partial that fits
the root merge budget as is, so :attr:`WindowFold.tree` may alias a
site partial or a replica's payload.  Callers only read it
(``apply_operator``, ``Flowtree.diff`` and the query methods mutate
nothing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import FlowQLPlanningError, TransferError
from repro.flowql.ast import FlowQLQuery, TimeSpec
from repro.flowql.executor import FlowQLResult, apply_operator
from repro.flows.tree import Flowtree
from repro.query.plan import ROUTE_CLOUD, Degradation, QueryPlan, SiteRead

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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
        #: cloud route: FlowDB entry ids consumed, in merge order
        self.entry_ids: List[int] = []
        #: federated route: store label -> partition ids consumed, in
        #: catalog order
        self.folded_partitions: Dict[str, List[str]] = {}
        #: federated route: label -> aggregator -> the site partial
        self.site_trees: Dict[str, Dict[str, Flowtree]] = {}

    def advance(
        self, now: float, degradation: Optional[Degradation] = None
    ) -> List[SiteRead]:
        """Consume every input not yet folded; returns the reads made.

        From empty, unreachable stores fall back to replica and
        other-level coverage and what stays missing is noted in
        ``degradation``.  A kept fold raises :class:`FoldBroken` when
        its prefix no longer holds and lets ``TransferError`` through.
        """
        if self.plan.route == ROUTE_CLOUD:
            self._advance_cloud()
            return []
        if self.tree is None:
            return self._read_window(
                now, Degradation() if degradation is None else degradation
            )
        return self._read_tail(now)

    # -- cloud route ---------------------------------------------------------

    def _advance_cloud(self) -> None:
        db = self.planner.runtime.db
        sites = self.query.sites or None
        entries = db.entries(sites, self.spec.start, self.spec.end)
        ids = [entry.entry_id for entry in entries]
        if self.tree is None:
            self.tree = db.merged_tree(sites, self.spec.start, self.spec.end)
        else:
            known = len(self.entry_ids)
            if ids[:known] != self.entry_ids:
                raise FoldBroken("entry-prefix")
            for entry in entries[known:]:
                self.tree.merge(entry.tree)
        self.entry_ids = ids

    # -- federated route -----------------------------------------------------

    def _read_window(
        self, now: float, degradation: Degradation
    ) -> List[SiteRead]:
        """The from-empty read: every covering store's whole window."""
        planner, level, spec = self.planner, self.plan.level, self.spec
        budget = planner.runtime.db.merge_node_budget
        reads: List[SiteRead] = []
        trees: List[Flowtree] = []
        for label, store in planner._covering_stores(level, self.query.sites):
            if store.privacy is not None:
                self.resumable = False
            partitions = planner._window_partitions(
                store, spec.start, spec.end
            )
            if not partitions:
                continue
            try:
                read, site_trees = planner._read_store(
                    label, level, store, partitions, now
                )
            except TransferError as exc:
                self.resumable = False
                (
                    fallback, site_trees, covered, stale, attempted,
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
                if read.replica_partitions or any(
                    planner._replica(pid) for pid in read.partitions
                ):
                    # served (or, by this very read, promoted) at the
                    # root: the next fresh read folds in another order
                    self.resumable = False
                else:
                    # no replicas: _read_store returned exactly one
                    # combined tree per aggregator, in sorted order
                    self.folded_partitions[label] = read.partitions
                    self.site_trees[label] = dict(
                        zip(
                            sorted({p.aggregator for p in partitions}),
                            site_trees,
                        )
                    )
            trees.extend(site_trees)
        if trees:
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

    def _read_tail(self, now: float) -> List[SiteRead]:
        """The kept read: only partitions beyond the consumed prefix."""
        planner, level, spec = self.planner, self.plan.level, self.spec
        current = []
        for label, store in planner._covering_stores(level, self.query.sites):
            if store.privacy is not None:
                raise FoldBroken("privacy-guard")
            partitions = planner._window_partitions(
                store, spec.start, spec.end
            )
            if partitions:
                current.append((label, store, partitions))
        ids = {
            label: [p.partition_id for p in partitions]
            for label, _, partitions in current
        }
        for label, folded in self.folded_partitions.items():
            if ids.get(label, [])[: len(folded)] != folded:
                # expiration, a site restart, or a rewritten catalog
                raise FoldBroken("partition-prefix")
        if any(
            planner._replica(pid) for pids in ids.values() for pid in pids
        ):
            raise FoldBroken("replica-served")
        reads: List[SiteRead] = []
        for label, store, partitions in current:
            fresh = partitions[len(self.folded_partitions.get(label, ())):]
            if not fresh:
                continue
            # ships (and accounts) the new partitions only
            read, _ = planner._read_store(label, level, store, fresh, now)
            reads.append(read)
            partials = self.site_trees.setdefault(label, {})
            for partition in fresh:
                partial = partials.get(partition.aggregator)
                if partial is None:
                    # a fold's first partial: later partitions merge in
                    partials[partition.aggregator] = (
                        partition.summary.payload.copy()
                    )
                else:
                    partial.merge(partition.summary.payload)
            self.folded_partitions[label] = ids[label]
        if reads:
            self.tree = top_merge(
                [
                    self.site_trees[label][aggregator]
                    for label in sorted(self.site_trees)
                    for aggregator in sorted(self.site_trees[label])
                ],
                planner.runtime.db.merge_node_budget,
            )
        return reads
