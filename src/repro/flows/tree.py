"""Flowtree: the self-adjusting tree of generalized flows.

This module implements the computing primitive of Section VI with the
eight operators of Table II:

=========  ====================================================
Operator   Method
=========  ====================================================
Merge      :meth:`Flowtree.merge` / :meth:`Flowtree.union`
Compress   :meth:`Flowtree.compress`
Diff       :meth:`Flowtree.diff`
Query      :meth:`Flowtree.query`
Drilldown  :meth:`Flowtree.drilldown`
Top-k      :meth:`Flowtree.top_k`
Above-x    :meth:`Flowtree.above_x`
HHH        :meth:`Flowtree.hhh`
=========  ====================================================

Reads over operands.  Merge and Diff are exact sums until Compress
runs, so each read operator (Query, Drilldown, Top-k, Above-x, HHH,
plus :func:`total` and :func:`aggregate_by_feature`) is one function
at the end of this module over ``(sign, tree)`` operands: it sums the
operands' counters at the depths it reads and answers as it would on
their :meth:`Flowtree.union` or :meth:`Flowtree.diff`, without
building either.  The :class:`Flowtree` methods are its one-operand
call.

Structure.  Every observed flow and every canonical generalization of it
is a node; a node's parent is its most-specific canonical generalization
(one step up the :class:`~repro.flows.flowkey.GeneralizationPolicy`
chain).  A tree registers its nodes exactly once, in one dict per
canonical depth keyed by the node's projected values; a node points at
its parent and counts the nodes that point at it, nothing points down,
so a tree holds no reference cycle and a dropped one is freed at once.
Each node carries:

* ``own`` — mass inserted directly at this key,
* ``folded`` — mass absorbed from compressed (pruned) descendants, and
* ``subtree`` — the node's *popularity score*: ``own + folded`` plus the
  popularity of all live descendants, maintained incrementally.

Self-adjustment.  The tree enforces a node budget: when an insert pushes
the node count past ``node_budget`` the tree compresses itself by
repeatedly folding the least-popular leaf into its parent, down to
``compress_ratio * node_budget`` nodes.  Popularity mass is never lost —
it only loses specificity — so the root's popularity always equals the
total ingested mass (an invariant the property-based tests pin down).

Hot path.  Ingest is the operation every other subsystem's throughput
rides on, so it is written allocation-light:

* records arrive as plain counters: :meth:`Flowtree.add_many` takes
  ``(key, packets, bytes, flows)`` tuples (:func:`counters` turns a
  flow or packet record into one), so no :class:`Score` is built per
  record;
* one deepest-first walk per record: probe the record's own depth,
  then one depth up at a time, until a live node answers (one
  projection and one lookup in that depth's dict per probe); climb
  ``parent`` pointers from there to bump every ancestor's subtree
  counters with no projection at all; then build only the missing
  tail below it, inline, writing each new node's slots once.  This
  rests on one invariant — a node is only ever removed as a leaf, so
  every live node's ancestors are alive;
* unions follow the same birth rule: a node that :meth:`Flowtree.merge`,
  :meth:`Flowtree.copy` or :meth:`Flowtree.diff` adds, and every node
  :meth:`Flowtree.from_dict` rebuilds, is made with
  ``FlowtreeNode.__new__`` and has each slot written once (a union's
  counters are born as the other tree's, times the sign), so no node
  but the root runs a constructor;
* popularity lives in plain integer counters on ``__slots__`` — the
  ``own``/``folded``/``subtree`` :class:`Score` views are materialized
  only at query time;
* batch ingest (:meth:`Flowtree.ingest` / :meth:`Flowtree.add_many`)
  defers the budget check to a bounded overshoot instead of testing it
  per record, and always re-establishes the budget before returning;
* :meth:`Flowtree.compress` keeps its least-popular-leaf min-heap alive
  across passes (entries are revalidated lazily on pop) instead of
  rebuilding it from every node each time, and folds a chain without
  heap round trips: a fold that leaves its parent a leaf whose entry
  sorts below the heap's head folds that parent at once, since the
  heap would hand it straight back.

Fold order is a function of content alone: leaves fold in ascending
``(popularity metric, depth, values)`` order, so among equally light
leaves the shallowest, then the smallest key, folds first.  A tree that
went through :meth:`Flowtree.to_dict` / :meth:`Flowtree.from_dict`, a
worker process or a restart therefore merges and compresses exactly
like the one that never left memory — there is no creation history to
carry.  The lazy heap reproduces the order exactly while popularity is
non-decreasing (always true for flow ingest and merge of non-negative
summaries).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import attrgetter, itemgetter, le, lt
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (
    GranularityError,
    MalformedSummaryError,
    SchemaMismatchError,
)
from repro.flows.flowkey import FlowKey, GeneralizationPolicy
from repro.flows.records import FlowRecord, PacketRecord, Score

#: what :attr:`FlowtreeNode.node_id` returns: (depth, values)
NodeId = Tuple[int, Tuple[int, ...]]
#: one least-popular-leaf heap entry: (popularity, depth, values)
_HeapEntry = Tuple[int, int, Tuple[int, ...]]
#: one item of :meth:`Flowtree.add_many`: (key, packets, bytes, flows)
Counters = Tuple[FlowKey, int, int, int]
#: a tree's place in :meth:`Flowtree.union`: (interval start, location path)
UnionKey = Tuple[float, str]
#: one operand of a read operator: (sign, tree) — +1 adds the tree, as
#: a union does, -1 subtracts it, as Diff does
Operand = Tuple[int, "Flowtree"]

#: Approximate serialized footprint of one node, used for transfer
#: accounting: depth + per-feature value + three 8-byte counters (twice,
#: for own and folded).
_NODE_BYTES_FIXED = 4 + 2 * 3 * 8
_NODE_BYTES_PER_FEATURE = 4

#: popularity-metric name -> the node attribute holding its subtree counter
_SUBTREE_ATTR = {
    "packets": "subtree_packets",
    "bytes": "subtree_bytes",
    "flows": "subtree_flows",
}


def counters(record: Union[FlowRecord, PacketRecord]) -> Counters:
    """A record as :meth:`Flowtree.add_many` takes it: a flow record
    adds one flow of its packets and bytes, a packet record its sampled
    :meth:`~repro.flows.records.PacketRecord.score`."""
    if isinstance(record, FlowRecord):
        return (record.key, record.packets, record.bytes, 1)
    if isinstance(record, PacketRecord):
        score = record.score()
        return (record.key, score.packets, score.bytes, score.flows)
    raise SchemaMismatchError(
        f"a Flowtree cannot ingest a {type(record).__name__}"
    )


def _subtree_attr(metric_name: str) -> str:
    try:
        return _SUBTREE_ATTR[metric_name]
    except KeyError:
        raise ValueError(
            f"unknown popularity metric {metric_name!r}"
        ) from None


class FlowtreeNode:
    """One generalized flow inside a :class:`Flowtree`.

    Popularity is stored as nine plain integer counters so the ingest
    hot path increments in place; the ``own``/``folded``/``subtree``
    properties expose the same values as immutable :class:`Score` views
    for query-time consumers.  The constructor builds a tree's root
    only; every other node is born inline by the walk, a union or a
    rebuild (see "Hot path" above).
    """

    __slots__ = (
        "depth",
        "values",
        "parent",
        "own_packets",
        "own_bytes",
        "own_flows",
        "folded_packets",
        "folded_bytes",
        "folded_flows",
        "subtree_packets",
        "subtree_bytes",
        "subtree_flows",
        "nchildren",
    )

    def __init__(
        self,
        depth: int,
        values: Tuple[int, ...],
        parent: Optional["FlowtreeNode"] = None,
    ) -> None:
        self.depth = depth
        self.values = values
        self.parent = parent
        self.own_packets = 0
        self.own_bytes = 0
        self.own_flows = 0
        self.folded_packets = 0
        self.folded_bytes = 0
        self.folded_flows = 0
        self.subtree_packets = 0
        self.subtree_bytes = 0
        self.subtree_flows = 0
        #: how many live nodes name this one as their parent
        self.nchildren = 0

    @property
    def node_id(self) -> NodeId:
        """The node's identity within its tree."""
        return (self.depth, self.values)

    def is_leaf(self) -> bool:
        """True when no live node currently hangs under this one."""
        return not self.nchildren

    # -- Score views ----------------------------------------------------

    @property
    def own(self) -> Score:
        """Mass inserted directly at this key, as a :class:`Score`."""
        return Score(self.own_packets, self.own_bytes, self.own_flows)

    @own.setter
    def own(self, score: Score) -> None:
        self.own_packets = score.packets
        self.own_bytes = score.bytes
        self.own_flows = score.flows

    @property
    def folded(self) -> Score:
        """Mass absorbed from pruned descendants, as a :class:`Score`."""
        return Score(self.folded_packets, self.folded_bytes, self.folded_flows)

    @folded.setter
    def folded(self, score: Score) -> None:
        self.folded_packets = score.packets
        self.folded_bytes = score.bytes
        self.folded_flows = score.flows

    @property
    def subtree(self) -> Score:
        """The node's popularity score, as a :class:`Score`."""
        return Score(
            self.subtree_packets, self.subtree_bytes, self.subtree_flows
        )

    @subtree.setter
    def subtree(self, score: Score) -> None:
        self.subtree_packets = score.packets
        self.subtree_bytes = score.bytes
        self.subtree_flows = score.flows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlowtreeNode(depth={self.depth}, values={self.values}, "
            f"subtree={self.subtree})"
        )


@dataclass(frozen=True)
class HHHResult:
    """One hierarchical heavy hitter: its key, full popularity score, and
    the *residual* score after discounting already-reported HHH
    descendants (the quantity compared against the threshold)."""

    key: FlowKey
    score: Score
    residual: Score


class Flowtree:
    """A mergeable, compressible summary of a flow stream.

    Parameters
    ----------
    policy:
        The canonical generalization chain.  Trees are only combinable
        when their policies are compatible.
    node_budget:
        Maximum number of live nodes before self-compression kicks in.
        ``None`` disables the budget (the tree grows without bound).
    compress_ratio:
        When self-compression runs it prunes down to
        ``compress_ratio * node_budget`` nodes so that inserts do not
        trigger compression on every call.
    metric:
        Which popularity counter (``packets``/``bytes``/``flows``) drives
        compression decisions and is the default for ranking operators.
    """

    def __init__(
        self,
        policy: GeneralizationPolicy,
        node_budget: Optional[int] = 4096,
        compress_ratio: float = 0.8,
        metric: str = "bytes",
    ) -> None:
        if node_budget is not None and node_budget < policy.depth + 1:
            raise GranularityError(
                f"node budget {node_budget} cannot hold a single root-to-leaf "
                f"chain of depth {policy.depth}"
            )
        if not 0.0 < compress_ratio <= 1.0:
            raise GranularityError(
                f"compress ratio must be in (0, 1], got {compress_ratio}"
            )
        _subtree_attr(metric)  # validate the metric name early
        self.policy = policy
        self.schema = policy.schema
        self.node_budget = node_budget
        self.compress_ratio = compress_ratio
        self.metric = metric
        #: per-depth projectors, cached off the policy for the hot loop
        self._projectors = policy.projectors
        root = FlowtreeNode(0, self._projectors[0]((0,) * len(self.schema)))
        #: the only registry of the tree's nodes: one dict per canonical
        #: depth, projected values -> node
        self._index: List[Dict[Tuple[int, ...], FlowtreeNode]] = [
            {} for _ in range(policy.depth + 1)
        ]
        self._index[0][root.values] = root
        self._node_count = 1
        self._node_bytes = _NODE_BYTES_FIXED + _NODE_BYTES_PER_FEATURE * len(
            self.schema
        )
        self._root = root
        self._compressions = 0
        #: persistent least-popular-leaf heap; ``None`` until the first
        #: compression pass builds it (unbudgeted trees never pay for it)
        self._leaf_heap: Optional[List[_HeapEntry]] = None
        self._heap_attr = _SUBTREE_ATTR[metric]
        #: nodes created since the last compression pass; their heap
        #: entries are deferred to the next pass so they enter at their
        #: then-current popularity instead of a guaranteed-stale zero
        self._heap_pending: List[FlowtreeNode] = []
        #: whether a counter may be negative: set by Diff's subtraction
        #: or a negative :meth:`add`, carried by every union
        self._negative = False

    # ------------------------------------------------------------------
    # introspection

    @property
    def root(self) -> FlowtreeNode:
        """The all-wildcard root node."""
        return self._root

    @property
    def node_count(self) -> int:
        """Number of live nodes (including the root)."""
        return self._node_count

    @property
    def compressions(self) -> int:
        """How many self-compression passes have run."""
        return self._compressions

    def total(self) -> Score:
        """Total ingested popularity mass (the root's popularity)."""
        return total(((1, self),))

    def nodes(self) -> Iterator[FlowtreeNode]:
        """Iterate over all live nodes, depth-ascending (parents first)."""
        for level in self._index:
            yield from level.values()

    def key_of(self, node: FlowtreeNode) -> FlowKey:
        """Reconstruct the :class:`FlowKey` a node stands for."""
        return FlowKey(self.schema, node.values, self.policy.levels_at(node.depth))

    def find(self, key: FlowKey) -> Optional[FlowtreeNode]:
        """Look up the node for an on-chain key, if present."""
        depth = self.policy.depth_of(key.levels)
        if depth is None:
            return None
        return self._index[depth].get(key.values)

    def estimated_size_bytes(self) -> int:
        """Approximate wire size of the serialized tree.

        Used by the data store and the replication engine for transfer
        accounting.  The per-node cost is fixed by the schema, computed
        once at construction.
        """
        return self._node_bytes * self.node_count

    # ------------------------------------------------------------------
    # ingest

    def add(self, key: FlowKey, score: Score) -> None:
        """Add popularity mass for a key.

        Generalized (on-chain) keys are accepted; mass lands at the key's
        canonical depth and counts toward every ancestor.
        """
        if min(score.packets, score.bytes, score.flows) < 0:
            self._negative = True
        self._add_record(key, score)
        self._maybe_self_compress()

    def ingest(
        self, records: Iterable[Union[FlowRecord, PacketRecord]]
    ) -> int:
        """Ingest many flow or packet records; returns how many were
        consumed.

        The node budget is enforced with a bounded overshoot: inside the
        batch the tree may briefly grow past ``node_budget`` (by at most
        ``max(64, node_budget // 8)`` nodes) before a compression pass
        runs, and the budget always holds again when this returns.
        """
        return self.add_many(map(counters, records))

    def add_many(self, items: Iterable[Counters]) -> int:
        """Batched :meth:`add` over ``(key, packets, bytes, flows)``
        tuples — the record's counters, with no :class:`Score` per item.

        Same bounded-overshoot budget behavior as :meth:`ingest`.
        Returns the number of tuples consumed.  Counters are a record's
        mass, so never negative; a negative adjustment goes through
        :meth:`add`.
        """
        budget = self.node_budget
        count = 0
        # validation inlined from _add_record: one call layer per record
        # matters at this loop's volume
        schema_name = self.schema.name
        depth_of = self.policy.depth_of
        add_values = self._add_values
        # an unbudgeted tree never crosses the line
        overshoot = (
            float("inf") if budget is None else budget + max(64, budget // 8)
        )
        for key, packets, nbytes, flows in items:
            if key.schema.name != schema_name:
                raise SchemaMismatchError(
                    f"key schema {key.schema.name!r} != tree schema "
                    f"{schema_name!r}"
                )
            depth = depth_of(key.levels)
            if depth is None:
                raise GranularityError(
                    f"key levels {key.levels} are not on the canonical chain"
                )
            add_values(key.values, depth, packets, nbytes, flows)
            count += 1
            if self._node_count > overshoot:
                self.compress(
                    target_nodes=int(budget * self.compress_ratio)
                )
                self._compressions += 1
        self._maybe_self_compress()
        return count

    def _add_record(self, key: FlowKey, score: Score) -> None:
        """Validate and apply one insert, without the budget check."""
        if key.schema.name != self.schema.name:
            raise SchemaMismatchError(
                f"key schema {key.schema.name!r} != tree schema "
                f"{self.schema.name!r}"
            )
        depth = self.policy.depth_of(key.levels)
        if depth is None:
            raise GranularityError(
                f"key levels {key.levels} are not on the canonical chain"
            )
        self._add_values(
            key.values, depth, score.packets, score.bytes, score.flows
        )

    def _add_values(
        self,
        values: Sequence[int],
        depth: int,
        packets: int,
        nbytes: int,
        flows: int,
    ) -> None:
        """The deepest-first ingest walk.

        A node is only ever removed as a leaf, so every live node has
        all of its ancestors alive.  The walk rests on that:

        * probe — project the record to its own depth and look it up;
          on a miss move one depth up, until a live node answers or the
          root is reached;
        * climb — add the record's counters to that node and every
          ancestor by following ``parent``, with no projection and no
          lookup;
        * tail — create the missing nodes below it, shallowest first,
          inline: each is written once, born holding the record's
          counters in ``subtree``, with one child above the deepest and
          the record's ``own`` at the deepest.

        When the record's own node is live, the climb starts there and
        that node also takes the record's ``own``.

        A record whose leaf is live costs one projection; one whose
        deepest live ancestor sits at depth ``a`` costs ``depth - a + 1``
        (``depth`` when that ancestor is the root).
        """
        index = self._index
        projectors = self._projectors
        leaf_depth = depth
        leaf = projectors[depth](values)
        node = index[depth].get(leaf)
        # the leaf's missing ancestors, deepest first; None: the leaf is live
        missing = None
        if node is None:
            missing = []
            depth -= 1
            while depth:
                projected = projectors[depth](values)
                node = index[depth].get(projected)
                if node is not None:
                    break
                missing.append(projected)
                depth -= 1
            else:
                node = self._root
        above = node
        while above is not None:
            above.subtree_packets += packets
            above.subtree_bytes += nbytes
            above.subtree_flows += flows
            above = above.parent
        if missing is None:
            node.own_packets += packets
            node.own_bytes += nbytes
            node.own_flows += flows
            return
        node.nchildren += 1
        self._node_count += len(missing) + 1
        make = FlowtreeNode.__new__
        for projected in reversed(missing):
            depth += 1
            parent = node
            node = make(FlowtreeNode)
            node.depth = depth
            node.values = projected
            node.parent = parent
            node.own_packets = node.own_bytes = node.own_flows = 0
            node.folded_packets = node.folded_bytes = node.folded_flows = 0
            node.subtree_packets = packets
            node.subtree_bytes = nbytes
            node.subtree_flows = flows
            node.nchildren = 1
            index[depth][projected] = node
        parent = node
        node = make(FlowtreeNode)
        node.depth = leaf_depth
        node.values = leaf
        node.parent = parent
        node.own_packets = node.subtree_packets = packets
        node.own_bytes = node.subtree_bytes = nbytes
        node.own_flows = node.subtree_flows = flows
        node.folded_packets = node.folded_bytes = node.folded_flows = 0
        node.nchildren = 0
        index[leaf_depth][leaf] = node
        if self._leaf_heap is not None:
            # the tail's one leaf; the nodes above it hold a child until
            # the next pass takes this queue, so they never enter it
            self._heap_pending.append(node)

    # ------------------------------------------------------------------
    # Compress

    def _maybe_self_compress(self) -> None:
        if self.node_budget is not None and self.node_count > self.node_budget:
            self.compress(target_nodes=int(self.node_budget * self.compress_ratio))
            self._compressions += 1

    def compress(
        self,
        target_nodes: Optional[int] = None,
        ratio: Optional[float] = None,
        metric: Optional[str] = None,
    ) -> int:
        """Fold least-popular leaves into their parents (Table II).

        Exactly one of ``target_nodes``/``ratio`` selects the goal; with
        neither given the tree compresses to its budget (or halves, if
        unbudgeted).  Returns the number of nodes removed.  Mass is
        preserved: a folded leaf's popularity moves into its parent's
        ``folded`` counter.

        Leaves fold in ascending ``(metric, depth, values)`` order — a
        function of the tree's content, not of how it was built.  The
        min-heap backing that order persists across passes: node
        creation queues an entry, and entries are revalidated lazily on
        pop (stale popularity re-pushes, dead or non-leaf nodes are
        discarded), so a pass costs O(folds log n) instead of O(live
        nodes).  A fold that leaves its parent a leaf whose entry is
        strictly below the heap's head folds that parent at once, up
        the chain, while the target is not yet met: the heap would pop
        exactly that entry next.  A tie with the head, or a target met
        mid-chain, pushes the entry as before.
        """
        if target_nodes is not None and ratio is not None:
            raise GranularityError("give either target_nodes or ratio, not both")
        if ratio is not None:
            if not 0.0 < ratio <= 1.0:
                raise GranularityError(f"ratio must be in (0, 1], got {ratio}")
            target_nodes = max(1, int(self.node_count * ratio))
        if target_nodes is None:
            target_nodes = (
                int(self.node_budget * self.compress_ratio)
                if self.node_budget is not None
                else max(1, self.node_count // 2)
            )
        metric_name = metric or self.metric
        attr = _subtree_attr(metric_name)
        index = self._index
        excess = self._node_count - target_nodes
        if excess <= 0:
            return 0

        heap = self._leaf_heap
        if (
            heap is None
            or attr != self._heap_attr
            or len(heap) > 4 * self._node_count + 1024
        ):
            # first pass, metric switch, or too much accumulated
            # staleness: (re)build from the live leaves
            heap = [
                (getattr(node, attr), node.depth, node.values)
                for level in index[1:]
                for node in level.values()
                if not node.nchildren
            ]
            heapq.heapify(heap)
            self._leaf_heap = heap
            self._heap_attr = attr
            self._heap_pending.clear()
        elif self._heap_pending:
            # nodes born since the last pass enter at current popularity
            for node in self._heap_pending:
                if not node.nchildren:
                    heapq.heappush(
                        heap, (getattr(node, attr), node.depth, node.values)
                    )
            self._heap_pending.clear()

        heappop = heapq.heappop
        heappush = heapq.heappush
        removed = 0
        while removed < excess and heap:
            value, depth, values = heappop(heap)
            node = index[depth].get(values)
            if node is None or node.nchildren:
                continue
            current = getattr(node, attr)
            if current != value:
                heappush(heap, (current, depth, values))
                continue
            while True:
                parent = node.parent
                parent.folded_packets += node.own_packets + node.folded_packets
                parent.folded_bytes += node.own_bytes + node.folded_bytes
                parent.folded_flows += node.own_flows + node.folded_flows
                del index[node.depth][node.values]
                removed += 1
                parent.nchildren -= 1
                if not parent.depth or parent.nchildren:
                    break
                entry = (getattr(parent, attr), parent.depth, parent.values)
                if removed < excess and (not heap or entry < heap[0]):
                    # the heap would hand this entry straight back
                    node = parent
                    continue
                heappush(heap, entry)
                break
        self._node_count -= removed
        return removed

    # ------------------------------------------------------------------
    # Merge / Diff

    def _check_compatible(self, other: "Flowtree") -> None:
        if not self.policy.compatible_with(other.policy):
            raise SchemaMismatchError(
                "cannot combine Flowtrees with incompatible schemas/policies "
                f"({self.schema.name!r} vs {other.schema.name!r})"
            )

    def _absorb(self, other: "Flowtree", sign: int) -> None:
        """Fold ``other`` in, depth by depth, pairing nodes by values.

        Because both trees share one canonical chain, a node of
        ``other`` maps onto the node of ``self`` with the same (depth,
        values) — no re-projection is needed, and each pair's subtree
        totals transfer wholesale in one visit (every descendant of
        theirs lands under the paired node of ours).  Depths run
        shallowest first, so a node of theirs that ours lacks finds its
        parent already paired one dict above.

        Such a node is born inline, as the ingest walk's tail is: each
        slot written once, its counters ``sign`` times theirs, its
        parent's ``nchildren`` bumped, and queued for the compression
        heap only while that heap is live.  ``node_count`` moves once.
        """
        if sign < 0 or other._negative:
            self._negative = True
        make = FlowtreeNode.__new__
        queue = self._heap_pending if self._leaf_heap is not None else None
        born = 0
        above: Dict[Tuple[int, ...], FlowtreeNode] = {}
        for depth, (ours, theirs_at) in enumerate(
            zip(self._index, other._index)
        ):
            for values, theirs in theirs_at.items():
                mine = ours.get(values)
                if mine is not None:
                    mine.own_packets += sign * theirs.own_packets
                    mine.own_bytes += sign * theirs.own_bytes
                    mine.own_flows += sign * theirs.own_flows
                    mine.folded_packets += sign * theirs.folded_packets
                    mine.folded_bytes += sign * theirs.folded_bytes
                    mine.folded_flows += sign * theirs.folded_flows
                    mine.subtree_packets += sign * theirs.subtree_packets
                    mine.subtree_bytes += sign * theirs.subtree_bytes
                    mine.subtree_flows += sign * theirs.subtree_flows
                    continue
                parent = above[theirs.parent.values]
                parent.nchildren += 1
                mine = make(FlowtreeNode)
                mine.depth = depth
                mine.values = values
                mine.parent = parent
                mine.own_packets = sign * theirs.own_packets
                mine.own_bytes = sign * theirs.own_bytes
                mine.own_flows = sign * theirs.own_flows
                mine.folded_packets = sign * theirs.folded_packets
                mine.folded_bytes = sign * theirs.folded_bytes
                mine.folded_flows = sign * theirs.folded_flows
                mine.subtree_packets = sign * theirs.subtree_packets
                mine.subtree_bytes = sign * theirs.subtree_bytes
                mine.subtree_flows = sign * theirs.subtree_flows
                mine.nchildren = 0
                ours[values] = mine
                born += 1
                if queue is not None:
                    queue.append(mine)
            above = ours
        self._node_count += born

    def merge(self, other: "Flowtree") -> None:
        """Fold ``other`` into this tree in place (Table II: Merge).

        The paper requires merged trees to share either the time period
        or the location; that bookkeeping lives in the summary wrapper
        (:mod:`repro.core.flowtree`) — the data structure itself only
        requires compatible schemas.
        """
        self._check_compatible(other)
        if other is self:
            # the walk would read nodes it is writing
            other = self.copy()
        self._absorb(other, 1)
        self._maybe_self_compress()

    @classmethod
    def union(
        cls,
        inputs: Iterable[Tuple[UnionKey, "Flowtree"]],
        budget: Optional[int] = None,
        into: Optional["Flowtree"] = None,
    ) -> "Flowtree":
        """``compress(A1 ∪ A2 ∪ …)``, folded in ascending key order
        whatever order ``inputs`` come in (DESIGN §2, "One union rule").

        Into ``into`` (the caller's, under its own budget) when given,
        else into a new tree of ``budget`` nodes; a lone input that
        fits ``budget`` is returned itself, read-only.
        """
        trees = [tree for _, tree in sorted(inputs, key=itemgetter(0))]
        if into is None:
            first = trees[0]
            fits = budget is None or first.node_count <= budget
            if len(trees) == 1 and fits:
                return first
            into = cls(first.policy, budget, first.compress_ratio, first.metric)
        for tree in trees:
            into.merge(tree)
        return into

    def diff(self, other: "Flowtree") -> "Flowtree":
        """Subtract ``other``'s popularity from this tree (Table II: Diff).

        The result is unbudgeted and may contain negative scores — that is
        the point: a negative node marks traffic that shrank between the
        two summaries, a positive one traffic that grew.
        """
        self._check_compatible(other)
        result = Flowtree(
            self.policy, node_budget=None, compress_ratio=1.0, metric=self.metric
        )
        result._absorb(self, 1)
        result._absorb(other, -1)
        return result

    # ------------------------------------------------------------------
    # Query / Drilldown / Top-k / Above-x / HHH: each is the one-operand
    # call of the read operator of the same name below the class

    def query(self, key: FlowKey) -> Score:
        """The popularity score of a single flow (Table II: Query; see
        :func:`query`)."""
        return query(((1, self),), key)

    def query_with_bound(self, key: FlowKey) -> Tuple[Score, Score]:
        """Point query with deterministic error bounds.

        Returns ``(lower, upper)`` such that the true popularity of the
        (on-chain) key satisfies ``lower <= true <= upper`` whatever
        compression happened.  The lower bound is the live node's
        subtree score (0 if the node is gone); the upper bound adds the
        ``folded`` mass of every live ancestor on the key's path — the
        only places compression can have parked this key's popularity.
        (A compressed-away node may later be *recreated* by new inserts,
        so even a live node's earlier mass can sit in an ancestor's
        fold; the ancestor sum covers that case soundly.)

        This is the quantitative form of "the Flowtree does not provide
        exact summaries [but] allows us to distinguish heavy hitters
        from non-popular flows": bounds are tight exactly where no
        folding happened on the path, and a vanished key is provably no
        heavier than the folds above it.
        """
        if key.schema.name != self.schema.name:
            raise SchemaMismatchError(
                f"key schema {key.schema.name!r} != tree schema "
                f"{self.schema.name!r}"
            )
        depth = self.policy.depth_of(key.levels)
        if depth is None:
            raise GranularityError(
                f"query_with_bound needs an on-chain key, got levels "
                f"{key.levels}"
            )
        node = self._index[depth].get(key.values)
        lower = node.subtree if node is not None else Score.zero()
        ancestor_fold = self._root.folded
        for d in range(1, depth):
            projected = self._projectors[d](key.values)
            candidate = self._index[d].get(projected)
            if candidate is None:
                break
            ancestor_fold = ancestor_fold + candidate.folded
        return lower, lower + ancestor_fold

    def drilldown(self, key: FlowKey) -> List[Tuple[FlowKey, Score]]:
        """Child flows of a flow with their scores (Table II: Drilldown)."""
        return drilldown(((1, self),), key)

    def _level(self, depth: int) -> Dict[Tuple[int, ...], FlowtreeNode]:
        """The nodes at a caller-supplied depth; none off the chain's
        ``0..policy.depth`` (never a wrapped index or a lookup error)."""
        return self._index[depth] if 0 <= depth <= self.policy.depth else {}

    def top_k(
        self,
        k: int,
        depth: Optional[int] = None,
        metric: Optional[str] = None,
        within: Optional[FlowKey] = None,
    ) -> List[Tuple[FlowKey, Score]]:
        """The ``k`` most popular flows (Table II: Top-k; see
        :func:`top_k`)."""
        return top_k(((1, self),), k, depth, metric, within)

    def above_x(
        self,
        x: int,
        depth: Optional[int] = None,
        metric: Optional[str] = None,
        include_root: bool = False,
        within: Optional[FlowKey] = None,
    ) -> List[Tuple[FlowKey, Score]]:
        """All flows with popularity above ``x`` (Table II: Above-x; see
        :func:`above_x`)."""
        return above_x(((1, self),), x, depth, metric, include_root, within)

    def aggregate_by_feature(
        self,
        feature_name: str,
        level: int,
        metric: Optional[str] = None,
        within: Optional[FlowKey] = None,
    ) -> List[Tuple[FlowKey, Score]]:
        """Group popularity by one generalized feature (see
        :func:`aggregate_by_feature`)."""
        return aggregate_by_feature(
            ((1, self),), feature_name, level, metric, within
        )

    def hhh(
        self,
        threshold: int,
        metric: Optional[str] = None,
    ) -> List[HHHResult]:
        """Hierarchical heavy hitters (Table II: HHH; see :func:`hhh`)."""
        return hhh(((1, self),), threshold, metric)

    def subtree(self, key: FlowKey) -> "Flowtree":
        """Extract the summary of one generalized flow as a new tree.

        The result contains the node for ``key`` (projected onto the
        canonical chain) and all its descendants, re-rooted under the
        usual all-wildcard root.  This is how a data store ships a
        *partial* summary in answer to a sub-query — e.g. "give me your
        view of prefix 10.0.0.0/8" — without exporting the whole tree.
        """
        depth = self.policy.depth_of(key.levels)
        if depth is None:
            depth = self.policy.nearest_depth_at_or_above(key.levels)
            key = self.policy.key_at(key, depth)
        result = Flowtree(
            self.policy, node_budget=None, compress_ratio=1.0,
            metric=self.metric,
        )
        anchor = self._index[depth].get(key.values)
        members = [] if anchor is None else [anchor]
        deeper = iter(self._index[depth + 1 :])
        while members:
            for node in members:
                contribution = node.own + node.folded
                if not contribution.is_zero():
                    result.add(self.key_of(node), contribution)
            # one depth down: whoever hangs under a node just copied
            parents = set(members)
            members = [
                node
                for node in next(deeper, {}).values()
                if node.parent in parents
            ]
        return result

    # ------------------------------------------------------------------
    # copy / serialization

    def copy(self) -> "Flowtree":
        """A deep, independent copy of the tree."""
        clone = Flowtree(
            self.policy,
            node_budget=self.node_budget,
            compress_ratio=self.compress_ratio,
            metric=self.metric,
        )
        clone._absorb(self, 1)
        clone._compressions = self._compressions
        return clone

    def seal(self) -> "Flowtree":
        """Drop the compression scratch of a tree that is done growing.

        An epoch close hands the live tree over as the sealed summary
        instead of copying it; sealed trees are only read, merged *from*
        and copied, so the least-popular-leaf heap is dead weight.  (A
        later :meth:`compress` rebuilds it from the live leaves.)
        Returns the tree itself.
        """
        self._leaf_heap = None
        self._heap_pending = []
        return self

    def to_dict(self) -> dict:
        """The tree's stored form: a header and three JSON-safe columns.

        The segment log, checkpoints and FlowDB snapshots all store
        this (the segment log through
        :func:`repro.storage.codec.encode_tree`, which compresses it).
        Nodes are listed depth by depth, root first, sorted by
        ``values`` within a depth, so equal trees give equal payloads:

        * ``counts`` — the number of nodes at each depth of the policy;
          a node's depth is implied by its position;
        * ``values`` — every node's values, flattened (the schema's
          width per node);
        * ``counters`` — six per node, ``own`` then ``folded``, each as
          packets, bytes, flows.

        Subtree popularity is not stored: :meth:`from_dict` sums it.
        """
        counts: List[int] = []
        values: List[int] = []
        counters: List[int] = []
        for level in self._index:
            keys = sorted(level)
            counts.append(len(keys))
            values.extend(chain.from_iterable(keys))
            for key in keys:
                node = level[key]
                counters += (
                    node.own_packets,
                    node.own_bytes,
                    node.own_flows,
                    node.folded_packets,
                    node.folded_bytes,
                    node.folded_flows,
                )
        return {
            "schema": self.schema.name,
            "level_vectors": [list(v) for v in self.policy.level_vectors],
            "node_budget": self.node_budget,
            "compress_ratio": self.compress_ratio,
            "metric": self.metric,
            "counts": counts,
            "values": values,
            "counters": counters,
        }

    @classmethod
    def from_dict(cls, payload: dict, policy: GeneralizationPolicy) -> "Flowtree":
        """Rebuild a tree serialized with :meth:`to_dict`.

        The caller supplies the policy (schemas hold feature objects that
        do not round-trip through JSON); its shape is validated against
        the payload.  Payloads come from segment files and wire bodies,
        so one that is not a serialized tree raises
        :class:`MalformedSummaryError`, never a bare lookup or type
        error: a missing key; columns that disagree (``counts`` not one
        non-negative ``int`` per depth of the policy — a ``bool`` is not
        one here — or not one root, ``values`` not the schema's width
        per node, ``counters`` not six per node); a node twice, without
        its parent, or with values that have bits below its depth's
        mask; a value that is not an ``int``; a counter that is not a
        non-negative ``int`` (a stored tree never holds a fraction or a
        negative: privacy only coarsens, and diffs are never stored); a
        budget that is neither ``None`` nor an ``int``.
        """
        try:
            return cls._rebuild(payload, policy)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise MalformedSummaryError(
                f"payload is not a serialized Flowtree: {exc!r}"
            ) from exc

    @classmethod
    def _rebuild(cls, payload: dict, policy: GeneralizationPolicy) -> "Flowtree":
        if payload["schema"] != policy.schema.name:
            raise SchemaMismatchError(
                f"payload schema {payload['schema']!r} != policy schema "
                f"{policy.schema.name!r}"
            )
        vectors = [tuple(v) for v in payload["level_vectors"]]
        if vectors != list(policy.level_vectors):
            raise SchemaMismatchError(
                "payload level vectors do not match the supplied policy"
            )
        budget = payload["node_budget"]
        if budget is not None and type(budget) is not int:
            raise MalformedSummaryError(
                f"payload node budget {budget!r} is not an integer or null"
            )
        tree = cls(
            policy,
            node_budget=budget,
            compress_ratio=payload["compress_ratio"],
            metric=payload["metric"],
        )
        counts = payload["counts"]
        flat_values = payload["values"]
        flat_counters = payload["counters"]
        if len(counts) != policy.depth + 1:
            raise MalformedSummaryError(
                f"payload counts nodes at {len(counts)} depths; the policy "
                f"has depths 0..{policy.depth}"
            )
        for count in counts:
            if type(count) is not int or count < 0:
                raise MalformedSummaryError(
                    f"payload node count {count!r} is not a non-negative "
                    f"integer"
                )
        if counts[0] != 1:
            raise MalformedSummaryError(
                f"payload holds {counts[0]} nodes at depth 0; a tree has "
                f"one root"
            )
        total = sum(counts)
        width = len(tree.schema)
        if len(flat_values) != width * total:
            raise MalformedSummaryError(
                f"payload holds {len(flat_values)} values for {total} nodes "
                f"of width {width}"
            )
        if len(flat_counters) != 6 * total:
            raise MalformedSummaryError(
                f"payload holds {len(flat_counters)} counters for {total} "
                f"nodes; a node stores six"
            )
        # whole-column checks; the offender is looked up only to name it
        if set(map(type, flat_values)) != {int}:
            value = next(v for v in flat_values if type(v) is not int)
            raise MalformedSummaryError(
                f"payload value {value!r} is not an integer"
            )
        if set(map(type, flat_counters)) != {int} or min(flat_counters) < 0:
            count = next(
                c for c in flat_counters if type(c) is not int or c < 0
            )
            raise MalformedSummaryError(
                f"payload node counter {count!r} is not a non-negative "
                f"integer"
            )
        # one values tuple and one (own, folded) sextuple per node, in
        # payload order
        rows = zip(*[iter(flat_values)] * width)
        stored = zip(*[iter(flat_counters)] * 6)
        root = tree._root
        first = next(rows)
        if first != root.values:
            raise MalformedSummaryError(
                f"payload node {(0, first)} at depth 0 is not the root"
            )
        (
            root.own_packets,
            root.own_bytes,
            root.own_flows,
            root.folded_packets,
            root.folded_bytes,
            root.folded_flows,
        ) = next(stored)
        root.subtree_packets = root.own_packets + root.folded_packets
        root.subtree_bytes = root.own_bytes + root.folded_bytes
        root.subtree_flows = root.own_flows + root.folded_flows
        created: List[FlowtreeNode] = [root]
        index = tree._index
        projectors = tree._projectors
        make = FlowtreeNode.__new__
        # depth by depth: every node links under an entry already
        # placed, so the payload is checked to be a tree while it is
        # rebuilt
        for depth in range(1, policy.depth + 1):
            level = index[depth]
            parents = index[depth - 1]
            project = projectors[depth]
            project_up = projectors[depth - 1]
            count = counts[depth]
            for values, sextuple in zip(
                islice(rows, count), islice(stored, count)
            ):
                if values in level:
                    raise MalformedSummaryError(
                        f"payload holds node {(depth, values)} twice"
                    )
                if project(values) != values:
                    # no key reaches it: a query masks to the canonical
                    raise MalformedSummaryError(
                        f"payload node {(depth, values)} is not canonical "
                        f"at its depth"
                    )
                parent = parents.get(project_up(values))
                if parent is None:
                    raise MalformedSummaryError(
                        f"payload node {(depth, values)} has no parent in "
                        f"the payload"
                    )
                # born as the ingest walk's and a union's nodes are; a
                # fresh tree's heap is not live, so nothing is queued
                parent.nchildren += 1
                node = make(FlowtreeNode)
                node.depth = depth
                node.values = values
                node.parent = parent
                node.nchildren = 0
                (
                    node.own_packets,
                    node.own_bytes,
                    node.own_flows,
                    node.folded_packets,
                    node.folded_bytes,
                    node.folded_flows,
                ) = sextuple
                node.subtree_packets = node.own_packets + node.folded_packets
                node.subtree_bytes = node.own_bytes + node.folded_bytes
                node.subtree_flows = node.own_flows + node.folded_flows
                level[values] = node
                created.append(node)
        tree._node_count = total
        # every node sits after its parent, so one reverse sweep
        # accumulates every subtree bottom-up
        for node in reversed(created):
            parent = node.parent
            if parent is not None:
                parent.subtree_packets += node.subtree_packets
                parent.subtree_bytes += node.subtree_bytes
                parent.subtree_flows += node.subtree_flows
        return tree

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Flowtree(schema={self.schema.name!r}, nodes={self.node_count}, "
            f"total={self.total()})"
        )


# ----------------------------------------------------------------------
# The read operators of Table II, over operands
#
# Merge and Diff are exact and additive until Compress runs: a node of
# ``A1 ∪ … ∪ An`` or ``A − B`` holds, in every counter, sign × theirs
# summed over the operands that hold its key, and it exists exactly
# when one of them does.  So each read operator takes the operands
# themselves — ``(+1, A1) … (+1, An)`` for a union, ``(-1, B)`` for what
# a Diff subtracts — and sums their counters at the depths it reads.
# On a union that would not have compressed, and on any Diff, the
# answer is the one the operator gives on the materialized
# :meth:`Flowtree.union` / :meth:`Flowtree.diff`.  The first operand's
# tree stands for the result's policy and default metric, as the first
# union input does for a union's.


def _template(operands: Sequence[Operand]) -> Flowtree:
    """The first operand's tree, once every other is combinable with
    it (the check Merge and Diff make)."""
    first = operands[0][1]
    for _, tree in operands[1:]:
        first._check_compatible(tree)
    return first


class _Counts:
    """One tree's level read as ``values -> counter`` in place: a lone
    operand's level is never copied into a dict (that would hash every
    key), only its counters into a list."""

    __slots__ = ("level", "counts")

    def __init__(
        self, level: Dict[Tuple[int, ...], FlowtreeNode], attr: str
    ) -> None:
        self.level = level
        self.counts = list(map(attrgetter(attr), level.values()))

    def __len__(self) -> int:
        return len(self.counts)

    def values(self) -> List[int]:
        return self.counts

    def items(self) -> Iterator[Tuple[Tuple[int, ...], int]]:
        return zip(self.level, self.counts)


def _sums(
    operands: Sequence[Operand], depth: int, attr: str
) -> Union[_Counts, Dict[Tuple[int, ...], int]]:
    """Per key at ``depth``: its ``attr`` counter, sign × theirs summed
    over the operands that hold it."""
    if len(operands) == 1 and operands[0][0] == 1:
        return _Counts(operands[0][1]._level(depth), attr)
    get = attrgetter(attr)
    sums: Dict[Tuple[int, ...], int] = {}
    for sign, tree in operands:
        level = tree._level(depth)
        counts = map(get, level.values())
        if sign != 1:
            counts = map(sign.__mul__, counts)
        if not sums:
            sums = dict(zip(level, counts))
            continue
        prior = sums.get
        for values, count in zip(level, counts):
            sums[values] = prior(values, 0) + count
    return sums


def _score(
    operands: Sequence[Operand], depth: int, values: Tuple[int, ...]
) -> Score:
    """One key's popularity score, summed as :func:`_sums` sums."""
    packets = nbytes = flows = 0
    for sign, tree in operands:
        node = tree._level(depth).get(values)
        if node is not None:
            packets += sign * node.subtree_packets
            nbytes += sign * node.subtree_bytes
            flows += sign * node.subtree_flows
    return Score(packets, nbytes, flows)


def _key(tree: Flowtree, depth: int, values: Tuple[int, ...]) -> FlowKey:
    return FlowKey(tree.schema, values, tree.policy.levels_at(depth))


def _under(
    tree: Flowtree,
    depth: int,
    within: Optional[FlowKey],
    keys: Iterable[Tuple[Tuple[int, ...], int]],
) -> Iterable[Tuple[Tuple[int, ...], int]]:
    """The ``(values, count)`` pairs at ``depth`` whose key falls under
    ``within`` (all of them when it is None)."""
    if within is None:
        return keys
    keys = list(keys)
    if not keys:  # a depth off the chain holds none
        return keys
    schema, levels = tree.schema, tree.policy.levels_at(depth)
    return [
        item
        for item in keys
        if within.contains(FlowKey(schema, item[0], levels))
    ]


def total(operands: Sequence[Operand]) -> Score:
    """Total popularity mass (the root's popularity)."""
    first = _template(operands)
    return _score(operands, 0, first.root.values)


def query(operands: Sequence[Operand], key: FlowKey) -> Score:
    """The popularity score of a single flow (Table II: Query).

    On-chain keys resolve to their node directly.  Off-chain
    generalized keys are answered by summing the nodes at the
    shallowest canonical depth specific enough to be masked up to the
    query — mass already folded above that depth is missed, so
    off-chain answers are lower bounds (exact on uncompressed trees).
    """
    first = _template(operands)
    if key.schema.name != first.schema.name:
        raise SchemaMismatchError(
            f"key schema {key.schema.name!r} != tree schema "
            f"{first.schema.name!r}"
        )
    node_depth = first.policy.depth_of(key.levels)
    if node_depth is not None:
        return _score(operands, node_depth, key.values)
    depth = first.policy.shallowest_covering_depth(key.levels)
    packets = nbytes = flows = 0
    for sign, tree in operands:
        for node in tree._index[depth].values():
            if key.contains(tree.key_of(node)):
                packets += sign * node.subtree_packets
                nbytes += sign * node.subtree_bytes
                flows += sign * node.subtree_flows
    return Score(packets, nbytes, flows)


def drilldown(
    operands: Sequence[Operand], key: FlowKey
) -> List[Tuple[FlowKey, Score]]:
    """Child flows of an on-chain flow with their scores (Table II:
    Drilldown), most popular first by the first tree's metric."""
    first = _template(operands)
    depth = first.policy.depth_of(key.levels)
    if depth is None:
        return []
    found: Dict[Tuple[int, ...], List[int]] = {}
    for sign, tree in operands:
        node = tree._index[depth].get(key.values)
        if node is None or not node.nchildren:
            continue
        for child in tree._index[depth + 1].values():
            if child.parent is node:
                counts = found.setdefault(child.values, [0, 0, 0])
                counts[0] += sign * child.subtree_packets
                counts[1] += sign * child.subtree_bytes
                counts[2] += sign * child.subtree_flows
    below = [
        (_key(first, depth + 1, values), Score(*counts))
        for values, counts in found.items()
    ]
    below.sort(
        key=lambda pair: (-pair[1].metric(first.metric), pair[0].values)
    )
    return below


def top_k(
    operands: Sequence[Operand],
    k: int,
    depth: Optional[int] = None,
    metric: Optional[str] = None,
    within: Optional[FlowKey] = None,
) -> List[Tuple[FlowKey, Score]]:
    """The ``k`` most popular flows (Table II: Top-k).

    ``depth`` selects the generalization level to rank (default: the
    fully-specific leaf level).  ``within`` ranks only the flows under
    a generalized key (a FlowQL ``WHERE``): the level is filtered
    before it is ranked, so a restricted answer is as long as an
    unrestricted one whenever the level holds ``k`` matching flows.
    Ties break on key values so results are deterministic.  The
    ``k``-th largest score is found first, so only the keys at or
    above it are sorted.
    """
    if k <= 0:
        return []
    first = _template(operands)
    depth = first.policy.depth if depth is None else depth
    sums = _sums(operands, depth, _subtree_attr(metric or first.metric))
    if within is not None:
        sums = dict(_under(first, depth, within, sums.items()))
    ranked = sums.items()
    if len(sums) > k:
        kth = heapq.nlargest(k, sums.values())[-1]
        ranked = compress(ranked, map(le, repeat(kth), sums.values()))
    best = sorted(ranked, key=lambda item: (-item[1], item[0]))[:k]
    return [
        (_key(first, depth, values), _score(operands, depth, values))
        for values, _ in best
    ]


def above_x(
    operands: Sequence[Operand],
    x: int,
    depth: Optional[int] = None,
    metric: Optional[str] = None,
    include_root: bool = False,
    within: Optional[FlowKey] = None,
) -> List[Tuple[FlowKey, Score]]:
    """All flows with popularity above ``x`` (Table II: Above-x), most
    popular first.

    At one ``depth``, or at every depth but the root's (the root too
    with ``include_root``).  ``within`` keeps only the flows under a
    generalized key (a FlowQL ``WHERE``).
    """
    first = _template(operands)
    attr = _subtree_attr(metric or first.metric)
    depths = range(first.policy.depth + 1) if depth is None else (depth,)
    found = []
    for at in depths:
        if at == 0 and not include_root:
            continue
        sums = _sums(operands, at, attr)
        above = compress(sums.items(), map(lt, repeat(x), sums.values()))
        found += [
            (-count, values, at)
            for values, count in _under(first, at, within, above)
        ]
    found.sort()
    return [
        (_key(first, at, values), _score(operands, at, values))
        for _, values, at in found
    ]


def aggregate_by_feature(
    operands: Sequence[Operand],
    feature_name: str,
    level: int,
    metric: Optional[str] = None,
    within: Optional[FlowKey] = None,
) -> List[Tuple[FlowKey, Score]]:
    """Group popularity by one generalized feature.

    Answers questions like "bytes per source /8" or "traffic per
    destination port": nodes at the shallowest canonical depth
    specific enough for ``(feature_name, level)`` are grouped by the
    feature's masked value (all other features wildcarded in the
    returned keys).  ``within`` restricts the aggregation to flows
    under a generalized key — e.g. sources attacking one victim.

    Like off-chain :func:`query`, results are exact on uncompressed
    trees and lower bounds after compression.
    """
    first = _template(operands)
    schema = first.schema
    index = schema.index_of(feature_name)
    feature = schema.features[index]
    wanted = [0] * len(schema)
    wanted[index] = level
    if within is not None:
        wanted = [max(w, l) for w, l in zip(wanted, within.levels)]
    depth = first.policy.shallowest_covering_depth(wanted)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for sign, tree in operands:
        for node in tree._index[depth].values():
            if within is not None and not within.contains(tree.key_of(node)):
                continue
            group_values = [0] * len(schema)
            group_values[index] = feature.mask(node.values[index], level)
            counts = groups.setdefault(tuple(group_values), [0, 0, 0])
            counts[0] += sign * node.subtree_packets
            counts[1] += sign * node.subtree_bytes
            counts[2] += sign * node.subtree_flows
    levels = [0] * len(schema)
    levels[index] = level
    metric_name = metric or first.metric
    results = [
        (FlowKey(schema, values, tuple(levels)), Score(*counts))
        for values, counts in groups.items()
    ]
    results.sort(
        key=lambda pair: (-pair[1].metric(metric_name), pair[0].values)
    )
    return results


def hhh(
    operands: Sequence[Operand],
    threshold: int,
    metric: Optional[str] = None,
) -> List[HHHResult]:
    """Hierarchical heavy hitters (Table II: HHH).

    Standard discounted definition: walking from the deepest keys
    upward, a key is an HHH when its popularity *minus the popularity
    of already-reported HHH descendants* meets the threshold.  The root
    is included when the leftover, otherwise unattributed, mass is
    itself substantial.

    When every operand adds a tree that holds no negative counter, the
    walk skips each key scoring below the threshold: it cannot be
    reported, and it has no discount to pass up, since an HHH below it
    would score at least the threshold and scores only grow toward the
    root.  A Diff walks every key.
    """
    first = _template(operands)
    metric_name = metric or first.metric
    attr = _subtree_attr(metric_name)
    prune = all(sign == 1 and not tree._negative for sign, tree in operands)
    projectors = first._projectors
    #: (-residual, values, -depth): ties on key values put the deeper
    #: key first
    found: List[Tuple[int, Tuple[int, ...], int]] = []
    #: per key one depth up, the mass HHHs below it already account for
    discounted: Dict[Tuple[int, ...], int] = {}
    for depth in range(first.policy.depth, -1, -1):
        sums = _sums(operands, depth, attr)
        keys: Iterable[Tuple[Tuple[int, ...], int]] = sums.items()
        if prune:
            keys = compress(keys, map(le, repeat(threshold), sums.values()))
        below, discounted = discounted, {}
        for values, count in keys:
            discount = below.get(values, 0)
            residual = count - discount
            if residual >= threshold:
                found.append((-residual, values, -depth))
                discount += residual
            if discount and depth:
                parent = projectors[depth - 1](values)
                discounted[parent] = discounted.get(parent, 0) + discount
    found.sort()
    return [
        HHHResult(
            _key(first, -depth, values),
            _score(operands, -depth, values),
            Score(**{metric_name: -residual}),
        )
        for residual, values, depth in found
    ]
