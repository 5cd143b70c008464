"""The cloud-only FlowQL front, kept as a test reference.

The runtime answers every query through :mod:`repro.query`; this is the
standalone spelling — FROM/AT select FlowDB entries, Merge + Compress
collapses them into one tree (Diff for ``VS``), then the shared plan
tail runs — that the FlowQL, planner and persistence tests compare
against.
"""

from repro.flowdb.db import FlowDB
from repro.flowql.ast import FlowQLQuery, TimeSpec
from repro.flowql.executor import FlowQLResult, apply_operator
from repro.flowql.parser import parse
from repro.flows.tree import Flowtree


class FlowQLExecutor:
    """Executes FlowQL text against one FlowDB instance."""

    def __init__(self, db: FlowDB) -> None:
        self.db = db
        self.queries_executed = 0

    def _merged(self, query: FlowQLQuery, spec: TimeSpec) -> Flowtree:
        return self.db.merged_tree(
            locations=query.sites or None,
            start=spec.start,
            end=spec.end,
        )

    def execute(self, text: str) -> FlowQLResult:
        """Parse and run one FlowQL query."""
        return self.execute_query(parse(text))

    def execute_query(self, query: FlowQLQuery) -> FlowQLResult:
        """Run a parsed FlowQL query."""
        self.queries_executed += 1
        tree = self._merged(query, query.time)
        if query.vs_time is not None:
            tree = tree.diff(self._merged(query, query.vs_time))
        return apply_operator([(1, tree)], query)
