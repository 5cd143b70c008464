"""Hierarchical heavy hitters over generalized flows.

Section V names "hierarchical heavy hitter detection" among the existing
streaming algorithms; Figure 4 shows an "HHH" aggregator inside the data
store.  This implementation runs one Space-Saving sketch per canonical
generalization depth: each ingested flow is projected to every depth and
offered to that depth's sketch.  HHH extraction then walks from the
deepest level upward, discounting mass already attributed to reported
descendants — the same discounted semantics as
:meth:`repro.flows.tree.Flowtree.hhh`, but with sketch-bounded memory
independent of the number of distinct flows.

Contrast with the Flowtree primitive: this one answers *only* HHH-style
questions (the paper's point — existing methods are narrow), while the
Flowtree supports the full Table II operator set.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.flowtree import policy_from_config
from repro.core.heavy_hitters import SpaceSaving
from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
)
from repro.core.summary import DataSummary, Location
from repro.errors import SchemaMismatchError
from repro.flows.flowkey import FlowKey, GeneralizationPolicy
from repro.flows.records import FlowRecord


class HierarchicalHeavyHitterPrimitive(ComputingPrimitive):
    """Per-depth Space-Saving sketches over a generalization policy.

    Ingested items are :class:`~repro.flows.records.FlowRecord` objects;
    weights are the record's byte count.

    Supported query operators:

    * ``"hhh"`` — param ``threshold`` (absolute weight): discounted
      hierarchical heavy hitters as ``(FlowKey, estimate)`` pairs.
    * ``"top_k"`` — params ``k``, ``depth``: heaviest flows at one depth.
    * ``"count"`` — param ``key``: estimated weight of one on-chain key.
    """

    kind = "hhh"
    granularity_param = "capacity_per_level"

    def __init__(
        self,
        location: Location,
        policy: GeneralizationPolicy,
        capacity_per_level: int = 128,
    ) -> None:
        super().__init__(location)
        self.policy = policy
        self.capacity_per_level = capacity_per_level
        self._sketches: Dict[int, SpaceSaving] = {
            depth: SpaceSaving(capacity_per_level)
            for depth in range(policy.depth + 1)
        }

    @classmethod
    def from_config(
        cls, location: Location, config: dict
    ) -> "HierarchicalHeavyHitterPrimitive":
        config = dict(config, policy=policy_from_config(config))
        return super().from_config(location, config)

    @classmethod
    def empty_like(
        cls, summary: DataSummary
    ) -> "HierarchicalHeavyHitterPrimitive":
        return cls(
            summary.meta.location,
            policy=summary.attrs["policy"],
            capacity_per_level=summary.attrs["capacity_per_level"],
        )

    def _load(self, summary: DataSummary) -> None:
        self._sketches = summary.payload

    def _shrink(self, shrink: float) -> None:
        """Each level's counter budget shrinks, to no fewer than 16."""
        self.set_granularity(max(16, int(self.capacity_per_level * shrink)))

    def _ingest(self, item: Any, timestamp: float) -> None:
        record: FlowRecord = item
        weight = float(max(record.bytes, 1))
        values = record.key.values
        for depth, sketch in self._sketches.items():
            sketch.offer(self.policy.project(values, depth), weight)

    def _reset(self) -> None:
        self._sketches = {
            depth: SpaceSaving(self.capacity_per_level)
            for depth in range(self.policy.depth + 1)
        }

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=self._sketches,
            size_bytes=self.footprint_bytes(),
            attrs={
                "capacity_per_level": self.capacity_per_level,
                "policy": self.policy,
            },
        )

    def footprint_bytes(self) -> int:
        return sum(sketch.footprint_bytes() for sketch in self._sketches.values())

    def _key_for(self, depth: int, values: Tuple[int, ...]) -> FlowKey:
        return FlowKey(self.policy.schema, values, self.policy.levels_at(depth))

    def query(self, request: QueryRequest) -> Any:
        params = request.params
        if request.operator == "hhh":
            return self._hhh(params["threshold"])
        if request.operator == "top_k":
            depth = params.get("depth", self.policy.depth)
            triples = self._sketches[depth].top(params.get("k", 10))
            return [
                (self._key_for(depth, values), count)
                for values, count, _ in triples
            ]
        if request.operator == "count":
            key: FlowKey = params["key"]
            depth = self.policy.depth_of(key.levels)
            if depth is None:
                raise ValueError(f"key levels {key.levels} are off-chain")
            estimate, _ = self._sketches[depth].estimate(key.values)
            return estimate
        raise ValueError(
            f"hhh primitive does not support operator {request.operator!r}"
        )

    def _hhh(self, threshold: float) -> List[Tuple[FlowKey, float]]:
        """Discounted HHH across the per-depth sketches."""
        results: List[Tuple[FlowKey, float]] = []
        # discount[depth][values] = mass already attributed below
        discount: Dict[int, Dict[Tuple[int, ...], float]] = {
            depth: {} for depth in range(self.policy.depth + 1)
        }
        for depth in range(self.policy.depth, -1, -1):
            sketch = self._sketches[depth]
            level_discount = discount[depth]
            for values, count, _error in sketch.top(sketch.capacity):
                residual = count - level_discount.get(values, 0.0)
                if residual >= threshold:
                    results.append((self._key_for(depth, values), count))
                    attributed = residual
                else:
                    attributed = 0.0
                carried = level_discount.get(values, 0.0) + attributed
                if depth > 0 and carried > 0:
                    parent_values = self.policy.project(values, depth - 1)
                    parents = discount[depth - 1]
                    parents[parent_values] = parents.get(parent_values, 0.0) + carried
        results.sort(key=lambda pair: (-pair[1], pair[0].values))
        return results

    def combine(self, other: "ComputingPrimitive") -> None:
        self._check_combinable(other)
        assert isinstance(other, HierarchicalHeavyHitterPrimitive)
        if not self.policy.compatible_with(other.policy):
            raise SchemaMismatchError(
                "cannot combine HHH primitives over different policies"
            )
        for depth, sketch in self._sketches.items():
            sketch.merge(other._sketches[depth])

    def set_granularity(self, granularity: float) -> None:
        """Granularity is the per-level counter budget."""
        capacity = int(granularity)
        self.capacity_per_level = capacity
        for sketch in self._sketches.values():
            sketch.resize(capacity)

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Shrink the per-level budget under storage pressure."""
        if feedback.storage_pressure > 0.5 and self.capacity_per_level > 16:
            self.set_granularity(max(16, self.capacity_per_level // 2))

    @property
    def uses_domain_knowledge(self) -> bool:
        """The generalization hierarchy *is* network-domain knowledge."""
        return True
