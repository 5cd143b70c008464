"""Flowtree wrapped as a computing primitive (Section VI).

The underlying data structure lives in :mod:`repro.flows.tree`; this
wrapper adds what the architecture needs around it: summary metadata
(time interval + location, enforcing the paper's merge precondition),
epoching, and granularity control via the node budget.  The budget
adapts per hierarchy level, not per tree: the runtime's adaptive cycle
(``HierarchyRuntime.enable_adaptive_budgets``) is its one automatic
writer.

This is the paper's exemplar of a *novel* computing primitive: it is the
only one in the library that satisfies all five design properties at
once, including domain knowledge (aggregation along subnet structure).
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Optional, Sequence, Tuple

from repro.core.primitive import ComputingPrimitive, QueryRequest
from repro.core.summary import DataSummary, Location, SummaryMeta
from repro.errors import GranularityError
from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.tree import Flowtree, UnionKey, counters


def policy_from_config(config: dict) -> GeneralizationPolicy:
    """A config's ``policy``, else the default policy of its ``schema``
    (the 5-tuple when it names none)."""
    policy = config.get("policy")
    if policy is not None:
        return policy
    return GeneralizationPolicy.default_for(config.get("schema", FIVE_TUPLE))


def keyed(summary: DataSummary) -> Tuple[UnionKey, Flowtree]:
    """A Flowtree summary as a :meth:`Flowtree.union` input."""
    meta = summary.meta
    return (meta.interval.start, meta.location.path), summary.payload


class FlowtreePrimitive(ComputingPrimitive):
    """A Flowtree aggregator for one stream of flow/packet records.

    Supported query operators (Table II):

    * ``"query"`` — param ``key``: popularity score of one flow.
    * ``"drilldown"`` — param ``key``: children and scores.
    * ``"top_k"`` — params ``k``, ``depth``, ``metric``.
    * ``"above_x"`` — params ``x``, ``depth``, ``metric``.
    * ``"hhh"`` — params ``threshold``, ``metric``.
    * ``"total"`` — total ingested popularity mass.
    * ``"tree"`` — the live :class:`~repro.flows.tree.Flowtree` itself
      (used by FlowDB and the replication engine).
    """

    kind = "flowtree"
    granularity_param = "node_budget"

    def __init__(
        self,
        location: Location,
        policy: GeneralizationPolicy,
        node_budget: Optional[int] = 4096,
        metric: str = "bytes",
    ) -> None:
        super().__init__(location)
        self.policy = policy
        self.node_budget = node_budget
        self.metric = metric
        self.tree = Flowtree(policy, node_budget=node_budget, metric=metric)

    @classmethod
    def from_config(
        cls, location: Location, config: dict
    ) -> "FlowtreePrimitive":
        config = dict(config, policy=policy_from_config(config))
        return super().from_config(location, config)

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "FlowtreePrimitive":
        tree = summary.payload
        return cls(
            summary.meta.location,
            policy=tree.policy,
            node_budget=tree.node_budget,
            metric=tree.metric,
        )

    def _load(self, summary: DataSummary) -> None:
        self.tree = summary.payload

    @classmethod
    def coarsen(
        cls, summaries: Sequence[DataSummary], shrink: float
    ) -> DataSummary:
        """:meth:`Flowtree.union` of the trees under the first one's
        budget, then compress to ``shrink`` times the merged node count
        (never below one chain)."""
        first: Flowtree = summaries[0].payload
        merged = Flowtree.union(map(keyed, summaries), first.node_budget)
        if merged is first:  # a lone input comes back itself: read-only
            merged = first.copy()
        target = max(
            merged.policy.depth + 1, int(merged.node_count * shrink)
        )
        merged.compress(target_nodes=target)
        return DataSummary(
            kind=cls.kind,
            meta=reduce(SummaryMeta.combined, [s.meta for s in summaries]),
            payload=merged,
            size_bytes=merged.estimated_size_bytes(),
            attrs=dict(summaries[-1].attrs, nodes=merged.node_count),
        )

    # -- ingest ----------------------------------------------------------

    def _ingest(self, item: Any, timestamp: float) -> None:
        self.tree.add_many((counters(item),))

    def ingest_many(self, timed_items) -> int:
        """Batched ingest through :meth:`Flowtree.add_many`.

        Epoch bounds and the item count update once for the whole batch,
        and the tree checks its node budget with bounded overshoot
        instead of per record.
        """
        items = []
        first = last = None
        for item, timestamp in timed_items:
            items.append(counters(item))
            if first is None or timestamp < first:
                first = timestamp
            if last is None or timestamp > last:
                last = timestamp
        if not items:
            return 0
        if self._epoch_start is None or first < self._epoch_start:
            self._epoch_start = first
        if self._epoch_end is None or last > self._epoch_end:
            self._epoch_end = last
        self.items_ingested += len(items)
        self.tree.add_many(items)
        return len(items)

    def _reset(self) -> None:
        self.tree = Flowtree(
            self.policy, node_budget=self.node_budget, metric=self.metric
        )

    # -- summaries -------------------------------------------------------

    def summary(self) -> DataSummary:
        """An independent snapshot: the caller may keep it indefinitely."""
        # the live tree keeps growing after this returns
        return self._envelope(self.tree.copy())

    def _seal(self) -> DataSummary:
        """Hand the live tree over; :meth:`_reset` starts the next one."""
        return self._envelope(self.tree.seal())

    def _envelope(self, tree: Flowtree) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=tree,
            size_bytes=self.footprint_bytes(),
            attrs={
                "schema": self.policy.schema.name,
                "node_budget": self.node_budget,
                "metric": self.metric,
                "nodes": tree.node_count,
            },
        )

    def footprint_bytes(self) -> int:
        return self.tree.estimated_size_bytes()

    # -- queries ---------------------------------------------------------

    def query(self, request: QueryRequest) -> Any:
        params = request.params
        if request.operator == "query":
            return self.tree.query(params["key"])
        if request.operator == "query_bound":
            return self.tree.query_with_bound(params["key"])
        if request.operator == "drilldown":
            return self.tree.drilldown(params["key"])
        if request.operator == "top_k":
            return self.tree.top_k(
                params.get("k", 10),
                depth=params.get("depth"),
                metric=params.get("metric"),
            )
        if request.operator == "above_x":
            return self.tree.above_x(
                params["x"],
                depth=params.get("depth"),
                metric=params.get("metric"),
            )
        if request.operator == "hhh":
            return self.tree.hhh(
                params["threshold"], metric=params.get("metric")
            )
        if request.operator == "group_by":
            return self.tree.aggregate_by_feature(
                params["feature"],
                params["level"],
                metric=params.get("metric"),
                within=params.get("within"),
            )
        if request.operator == "total":
            return self.tree.total()
        if request.operator == "tree":
            return self.tree
        raise ValueError(
            f"flowtree primitive does not support operator {request.operator!r}"
        )

    # -- combine -----------------------------------------------------------

    def combine(self, other: "ComputingPrimitive") -> None:
        """Table II Merge, with the paper's shared-time-or-location check."""
        self._check_combinable(other)
        assert isinstance(other, FlowtreePrimitive)
        self.tree.merge(other.tree)

    # -- granularity ---------------------------------------------------------

    def set_granularity(self, granularity: float) -> None:
        """Granularity is the node budget; shrinking compresses now."""
        budget = int(granularity)
        if budget < self.policy.depth + 1:
            raise GranularityError(
                f"node budget {budget} below minimum chain length "
                f"{self.policy.depth + 1}"
            )
        self.node_budget = budget
        self.tree.node_budget = budget
        if self.tree.node_count > budget:
            self.tree.compress(target_nodes=budget)

    @property
    def uses_domain_knowledge(self) -> bool:
        """Aggregation follows subnet/port structure — domain semantics."""
        return True
