"""The FlowQL plan tail.

*Any* component able to assemble a Flowtree for a query window can
answer FlowQL through it:

* :func:`compile_pattern` / :func:`apply_operator` — the pure
  "plan tail": compile the WHERE clause into a generalized
  :class:`FlowKey` pattern and map the SELECT operator onto the
  corresponding Table II read operator over the window's operands
  (including the LIMIT clause).
* :class:`FlowQLResult` — what the tail returns.

The federated planner (:mod:`repro.query`) runs this tail over the
trees its window folds hold, read from FlowDB or from hierarchy stores; the cloud-only front
the planner's differential tests compare against lives with those
tests (``tests/flowql_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import FlowQLPlanningError
from repro.flows import tree as ops
from repro.flows.flowkey import FlowKey
from repro.flows.records import Score
from repro.flows.tree import Flowtree, Operand
from repro.flowql.ast import FlowQLQuery, Restriction


@dataclass
class FlowQLResult:
    """The outcome of one FlowQL query.

    Row-producing operators fill ``rows`` (flow text plus the three
    score counters); scalar operators (QUERY, TOTAL) fill ``scalar``
    with a :class:`~repro.flows.records.Score`.
    """

    operator: str
    columns: Tuple[str, ...] = ("flow", "packets", "bytes", "flows")
    rows: List[Tuple[str, int, int, int]] = field(default_factory=list)
    scalar: Optional[Score] = None

    def __len__(self) -> int:
        return len(self.rows)

    def copy(self) -> "FlowQLResult":
        """An independent copy (cached results hand out copies so a
        caller mutating ``rows`` cannot poison the cache)."""
        return FlowQLResult(
            operator=self.operator,
            columns=self.columns,
            rows=list(self.rows),
            scalar=self.scalar,
        )

    # -- wire schema ---------------------------------------------------------

    def to_wire(self) -> dict:
        """The result's JSON-safe wire body (see :mod:`repro.serve.wire`)."""
        return {
            "operator": self.operator,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "scalar": (
                {
                    "packets": self.scalar.packets,
                    "bytes": self.scalar.bytes,
                    "flows": self.scalar.flows,
                }
                if self.scalar is not None
                else None
            ),
        }

    @classmethod
    def from_wire(cls, data: dict) -> "FlowQLResult":
        """Rebuild a result from its wire body (tuple shapes restored,
        so a round-tripped result compares equal field-for-field)."""
        from repro.errors import WireSchemaError

        try:
            scalar = data.get("scalar")
            return cls(
                operator=data["operator"],
                columns=tuple(data["columns"]),
                rows=[
                    (row[0], int(row[1]), int(row[2]), int(row[3]))
                    for row in data.get("rows", [])
                ],
                scalar=(
                    Score(
                        packets=int(scalar["packets"]),
                        bytes=int(scalar["bytes"]),
                        flows=int(scalar["flows"]),
                    )
                    if scalar is not None
                    else None
                ),
            )
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise WireSchemaError(f"bad FlowQLResult on the wire: {exc}")


def compile_pattern(
    tree: Flowtree, restrictions: List[Restriction]
) -> Optional[FlowKey]:
    """Compile WHERE restrictions into a generalized key pattern."""
    if not restrictions:
        return None
    schema = tree.schema
    values = [0] * len(schema)
    levels = [0] * len(schema)
    for restriction in restrictions:
        index = schema.index_of(restriction.feature)
        feature = schema.features[index]
        value = feature.parse(restriction.value)
        level = (
            restriction.mask
            if restriction.mask is not None
            else feature.max_level
        )
        values[index] = feature.mask(value, level)
        levels[index] = level
    return FlowKey(schema, tuple(values), tuple(levels))


def _rows(
    operator: str, pairs: List[Tuple[FlowKey, Score]]
) -> FlowQLResult:
    return FlowQLResult(
        operator=operator,
        rows=[
            (str(key), score.packets, score.bytes, score.flows)
            for key, score in pairs
        ],
    )


def apply_operator(
    operands: Sequence[Operand], query: FlowQLQuery
) -> FlowQLResult:
    """Run a parsed query's SELECT operator over a window's operands.

    This is the source-independent tail of FlowQL execution: the
    caller hands over the window as ``(sign, tree)`` operands — a
    window's trees at +1, a ``VS`` window's at -1 — and this function
    applies the WHERE pattern, the Table II operator (which sums the
    operands, :mod:`repro.flows.tree`), and the LIMIT clause.
    """
    pattern = compile_pattern(operands[0][1], query.where)
    operator = query.select.name
    metric = query.metric
    args = query.select.args
    result: Optional[FlowQLResult] = None

    if operator == "total":
        result = FlowQLResult(operator=operator, scalar=ops.total(operands))

    elif operator == "query":
        if pattern is None:
            raise FlowQLPlanningError(
                "QUERY needs a WHERE clause naming the flow"
            )
        result = FlowQLResult(
            operator=operator, scalar=ops.query(operands, pattern)
        )

    elif operator == "drilldown":
        if pattern is None:
            raise FlowQLPlanningError(
                "DRILLDOWN needs a WHERE clause naming the flow"
            )
        policy = operands[0][1].policy
        depth = policy.nearest_depth_at_or_above(pattern.levels)
        pairs = ops.drilldown(operands, policy.key_at(pattern, depth))
        result = _rows(operator, pairs)

    elif operator == "topk":
        pairs = ops.top_k(
            operands, int(args[0]), metric=metric, within=pattern
        )
        result = _rows(operator, pairs)

    elif operator == "above":
        pairs = ops.above_x(
            operands, int(args[0]), metric=metric, within=pattern
        )
        result = _rows(operator, pairs)

    elif operator == "hhh":
        threshold = float(args[0])
        if threshold < 1.0:
            threshold = threshold * max(1, ops.total(operands).metric(metric))
        results = ops.hhh(operands, int(threshold), metric=metric)
        pairs = [(r.key, r.score) for r in results]
        if pattern is not None:
            pairs = [
                (key, score) for key, score in pairs if pattern.contains(key)
            ]
        result = _rows(operator, pairs)

    elif operator == "groupby":
        feature = str(args[0])
        level = int(float(args[1]))
        pairs = ops.aggregate_by_feature(
            operands, feature, level, metric=metric, within=pattern
        )
        result = _rows(operator, pairs)

    if result is None:
        raise FlowQLPlanningError(f"unhandled operator {operator!r}")
    if query.limit is not None and result.rows:
        result.rows = result.rows[: query.limit]
    return result
