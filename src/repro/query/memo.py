"""The front door for FlowQL text: one memo from text to (AST, plan, key).

Every reader of FlowQL text — :meth:`FederatedQueryPlanner.execute
<repro.query.planner.FederatedQueryPlanner.execute>`, the gateway's
routing, a node server's deadline answer and the subscription registry
— goes through the planner's one :class:`QueryMemo`.  Per distinct text
it keeps:

* the parsed :class:`~repro.flowql.ast.FlowQLQuery`, a pure function of
  the text, for as long as the entry lives;
* a :class:`QueryFront`: that query's routing decision (route, level,
  sites) and its result-cache key, stamped with what they were made
  from — :func:`~repro.core.summary.stores_version` and the topology
  generation.  Planning reads nothing else, so while the stamp holds the
  front is exactly what planning again would give; once it moves, the
  next lookup plans again from the kept query.

So a repeated query, a cache hit above all, is answered without
lexing, parsing, planning or freezing its key again, and the gateway
routes from the very entry the node then executes.  The memo keeps at
most :data:`MEMO_MAX` texts (the result cache's entry count): ad-hoc
traffic brings new text with every query, so the oldest insertion goes
first and an evicted text is simply parsed again.  Text that fails to
parse or plan is not kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Tuple, Union

from repro.core.summary import stores_version
from repro.flowql.ast import FlowQLQuery
from repro.flowql.parser import parse
from repro.query.plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.planner import FederatedQueryPlanner


#: texts kept, and results kept by :class:`~repro.query.cache.QueryCache`
MEMO_MAX = 1024


@dataclass(frozen=True)
class QueryFront:
    """One query's routing decision and cache key, and when they held."""

    query: FlowQLQuery
    route: str
    level: Optional[str]
    sites: Tuple[str, ...]
    #: the result-cache key
    key: Hashable
    #: (stores version, topology generation) the plan was made at
    stamp: Tuple[int, int]

    def plan(self) -> QueryPlan:
        """A new plan record for one execution to fill in."""
        return QueryPlan(
            route=self.route,
            window=(self.query.time.start, self.query.time.end),
            level=self.level,
            sites=list(self.sites),
        )


class QueryMemo:
    """FlowQL text → (parsed query, current :class:`QueryFront`).

    Every lookup counts as exactly one of ``hits`` (answered from the
    memo), ``misses`` (the text was parsed) or ``replans`` (a kept query
    was planned again because its stamp moved).
    """

    def __init__(self, planner: "FederatedQueryPlanner") -> None:
        self.planner = planner
        self._entries: Dict[
            str, Tuple[FlowQLQuery, Optional[QueryFront]]
        ] = {}
        # lookups run on the gateway's loop and the data thread at once;
        # the entries and the counts change only under it.  Lookups take
        # it by hand: ``with`` costs ~0.2 us more, 2 % of a cache hit.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.replans = 0

    def __len__(self) -> int:
        return len(self._entries)

    def parse(self, text: str) -> FlowQLQuery:
        """The text's parsed query (parsed once while the entry lives)."""
        self._lock.acquire()
        try:
            entry = self._entries.get(text)
            if entry is not None:
                self.hits += 1
                return entry[0]
            self.misses += 1
        finally:
            self._lock.release()
        query = parse(text)
        self._keep(text, query, None)
        return query

    def front(self, flowql: Union[str, FlowQLQuery]) -> QueryFront:
        """The query's current front: kept while its stamp holds.

        A parsed query (not text) is planned every time: there is no
        text to keep it under.
        """
        stamp = (stores_version(), self.planner._topology_generation())
        if not isinstance(flowql, str):
            return self._plan(flowql, stamp)
        self._lock.acquire()
        try:
            entry = self._entries.get(flowql)
            if entry is None:
                self.misses += 1
            else:
                query, front = entry
                if front is not None and front.stamp == stamp:
                    self.hits += 1
                    return front
                self.replans += 1
        finally:
            self._lock.release()
        if entry is None:
            query = parse(flowql)
        front = self._plan(query, stamp)
        self._keep(flowql, query, front)
        return front

    def _plan(
        self, query: FlowQLQuery, stamp: Tuple[int, int]
    ) -> QueryFront:
        plan = self.planner.plan(query)
        return QueryFront(
            query=query,
            route=plan.route,
            level=plan.level,
            sites=tuple(plan.sites),
            key=self.planner.cache_key(query, plan),
            stamp=stamp,
        )

    def _keep(
        self, text: str, query: FlowQLQuery, front: Optional[QueryFront]
    ) -> None:
        with self._lock:
            if text not in self._entries and len(self._entries) >= MEMO_MAX:
                del self._entries[next(iter(self._entries))]
            self._entries[text] = (query, front)
