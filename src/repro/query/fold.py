"""One window of one plan, read as Flowtrees — resumably.

A FlowQL answer over any sites and any span is ``compress(A1 ∪ A2 …)``
followed by Diff (for ``VS``) and the Table II operator tail.  Merge
and Diff are exact sums until Compress runs, so the tail takes the
window's trees as operands and sums them (:mod:`repro.flows.tree`);
:class:`WindowFold` decides which trees those are.  It owns everything
needed to answer one window (FROM or VS) of one
:class:`~repro.query.plan.QueryPlan`: the ordered inputs it has
consumed, the per-site partial trees they were folded into, and the
trees that answer the window (:attr:`WindowFold.trees`).

**The materialize rule.**  A window is held as its trees themselves,
in union order, and :meth:`~repro.flows.tree.Flowtree.union` runs in
two cases only: the union could compress (its node counts, less the
roots they share, exceed the budget; a ``None`` budget never
compresses), or a kept fold advances.  A window with one input is the
one-operand case.

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
at the same points and the two answers are equal — there is no second
code path to keep identical.  Where the fresh fold sums the inputs in
place, the union the kept fold holds did not compress either.

Every union is :meth:`~repro.flows.tree.Flowtree.union`, which
states the input order (DESIGN §2); :meth:`WindowFold.inputs` lists
ids in it, so a consumed prefix is a prefix of what a fresh fold
unions.

**Cloud route.**  Inputs are root FlowDB entries, unioned under the
root's merge budget.  Breaker: ``entry-prefix`` (recovery re-ids
entries).

**Federated route.**  Inputs are the window partitions of every
covering store at the plan's level, of one aggregator per store (the
planner's ``_aggregator``).  Each store's partitions are unioned into
one site partial, the site partials under the root's budget.  The
partitions beyond a store's prefix go through the planner's
``_read_store`` (replica-first, fabric-accounted, feeding adaptive
replication), which ships their union — from empty, the partial
itself.  Breakers: ``partition-prefix`` (a consumed partition
vanished), ``replica-served`` (a window partition now lives at the
root, which a fresh read serves individually — a different union),
``privacy-guard`` (a per-epoch privacy export need not commute with
the whole-window export) and ``degraded`` (a link failed mid-read).
From empty, any of those leaves a fold that answers honestly — a
failed link through the degraded fallback — but is not
:attr:`~WindowFold.resumable`.

**Only a writer copies.**  A fold holds trees it never writes — the
stored entries, partitions or replicas themselves — or a union it
owns.  Answering only reads.  The one writer is a kept fold growing a
union it owns (:meth:`WindowFold._grow`); a stored tree it holds is
never extended, but unioned afresh with the new inputs, as a fresh
fold that could compress builds it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.flowtree import keyed
from repro.errors import FlowQLPlanningError, TransferError
from repro.flowql.ast import FlowQLQuery, TimeSpec
from repro.flowql.executor import FlowQLResult, apply_operator
from repro.flows.tree import Flowtree, UnionKey
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


def answer(folds: Sequence["WindowFold"], query: FlowQLQuery) -> FlowQLResult:
    """The query's result over its advanced folds: FROM's trees added,
    VS's subtracted."""
    operands = [(1, tree) for tree in folds[0].trees]
    if len(folds) > 1:
        operands += [(-1, tree) for tree in folds[1].trees]
    return apply_operator(operands, query)


def _window(
    inputs: List[Tuple[UnionKey, Flowtree]],
    budget: Optional[int],
    kept: bool,
) -> List[Flowtree]:
    """The trees that answer ``inputs`` (the materialize rule): the
    inputs themselves, in union order — or their union, when a kept
    fold advances or the union could compress."""
    ordered = sorted(inputs, key=itemgetter(0))
    trees = [tree for _, tree in ordered]
    nodes = sum(tree.node_count for tree in trees) - (len(trees) - 1)
    if kept or (budget is not None and nodes > budget):
        return [Flowtree.union(ordered, budget)]
    return trees


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
        #: the trees that answer the window, in union order (empty
        #: until the first advance): stored trees, or one union this
        #: fold owns; read-only to every caller
        self.trees: List[Flowtree] = []
        #: whether a later advance can continue from the consumed prefix
        self.resumable = True
        #: the :meth:`inputs` the last advance consumed
        self.consumed: Dict[str, List] = {}
        #: federated route: store label -> its site partial
        self.site_trees: Dict[str, Flowtree] = {}

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
        if not self.trees and not entries:
            raise FlowQLPlanningError(
                "no Flowtree summaries match the requested sites/window "
                f"(locations={self.query.sites or None}, "
                f"start={self.spec.start}, end={self.spec.end})"
            )
        self.trees = self._grow(
            self.trees,
            [((e.interval.start, e.location), e.tree) for e in entries],
            len(self.consumed.get("", ())),
            self.planner.runtime.db.merge_node_budget,
        )

    @staticmethod
    def _grow(
        held: List[Flowtree],
        inputs: List[Tuple[UnionKey, Flowtree]],
        known: int,
        budget: Optional[int],
    ) -> List[Flowtree]:
        """The trees answering ``inputs``, given ``held``: those that
        answered ``inputs[:known]`` (none from empty).

        A union the fold owns — one held tree that is no input — grows
        in place by the new inputs; anything else is read by the
        materialize rule, so stored trees are never extended.
        """
        if held and known == len(inputs):
            return held
        if len(held) == 1 and all(
            held[0] is not tree for _, tree in inputs[:known]
        ):
            return [Flowtree.union(inputs[known:], into=held[0])]
        return _window(inputs, budget, kept=bool(held))

    # -- federated route -----------------------------------------------------

    def _cannot_resume(self, reason: str) -> None:
        """From empty: answer, but do not keep.  Kept: start over."""
        if self.trees:
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
        trees: List[Tuple[UnionKey, Flowtree]] = []
        for label, store, partitions, _ in sources:
            if not partitions:
                continue
            known = len(self.consumed.get(label, ()))
            partial = self.site_trees.get(label)
            if known == len(partitions):
                trees.append((keyed(partitions[0].summary)[0], partial))
                continue
            try:
                read, store_trees = planner._read_store(
                    label, level, store, partitions[known:], now
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
                    if partial is None:
                        # from empty, the union shipped is the partial
                        [(_, partial)] = store_trees
                    else:
                        inputs = [keyed(p.summary) for p in partitions]
                        [partial] = self._grow(
                            [partial], inputs, known,
                            inputs[0][1].node_budget,
                        )
                        store_trees = [(inputs[0][0], partial)]
                    self.site_trees[label] = partial
            trees.extend(store_trees)
        budget = planner.runtime.db.merge_node_budget
        if trees:
            if reads or not self.trees:
                self.trees = _window(trees, budget, kept=bool(self.trees))
        elif degradation.is_degraded:
            # every covering store was unreachable: an honest empty
            # partial beats an exception — the degradation record
            # carries what is missing
            self.trees = [
                Flowtree(planner.runtime.policy, node_budget=budget)
            ]
        else:
            raise FlowQLPlanningError(
                f"no partitions at level {level!r} match the window "
                f"(start={spec.start}, end={spec.end})"
            )
        return reads
