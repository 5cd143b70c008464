"""The Flowstream system: wiring routers to FlowQL (Figure 5).

:class:`Flowstream` is the *flat* preset of the generic
:class:`~repro.runtime.runtime.HierarchyRuntime` — one
:class:`~repro.datastore.store.DataStore` per router site with a
Flowtree aggregator (steps 1-2 of the figure), whose epoch summaries
ship over the simulated WAN — transfer volume is accounted, which is
how the benchmarks show the summary/raw reduction factor — into a
:class:`~repro.flowdb.db.FlowDB` (step 4), queried through the
runtime's :class:`~repro.query.planner.FederatedQueryPlanner` (step 5).

Sites are addressed by their short names (``region1/router1``) in both
:meth:`ingest` and FlowQL ``AT`` clauses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.datastore.store import DataStore
from repro.errors import PlacementError
from repro.flows.flowkey import FIVE_TUPLE, FeatureSchema, GeneralizationPolicy
from repro.flows.records import FlowRecord
from repro.flowql.executor import FlowQLResult
from repro.runtime.presets import flat_runtime


class Flowstream:
    """Routers → data stores → Flowtrees → FlowDB → FlowQL."""

    AGGREGATOR = "flowtree"

    def __init__(
        self,
        sites: List[str],
        schema: FeatureSchema = FIVE_TUPLE,
        policy: Optional[GeneralizationPolicy] = None,
        node_budget: int = 8192,
        epoch_seconds: float = 60.0,
        store_budget_bytes: int = 64 * 1024 * 1024,
        merge_node_budget: int = 65536,
    ) -> None:
        if not sites:
            raise PlacementError("Flowstream needs at least one site")
        self.runtime = flat_runtime(
            sites,
            schema=schema,
            policy=policy,
            node_budget=node_budget,
            epoch_seconds=epoch_seconds,
            store_budget_bytes=store_budget_bytes,
            merge_node_budget=merge_node_budget,
        )
        self.sites = list(sites)
        self.policy = self.runtime.policy
        self.node_budget = node_budget
        self.epoch_seconds = epoch_seconds
        self.hierarchy = self.runtime.hierarchy
        self.fabric = self.runtime.fabric
        self.db = self.runtime.db
        self.stats = self.runtime.stats
        self.stores: Dict[str, DataStore] = {
            site: self.runtime.store_for(site) for site in dict.fromkeys(sites)
        }

    # -- data path ------------------------------------------------------------

    def store_for(self, site: str):
        """The data store of one site."""
        return self.runtime.store_for(site)

    def ingest(self, site: str, records: Iterable[FlowRecord]) -> int:
        """Feed router flow exports into the site's data store (step 1)."""
        return self.runtime.ingest(site, records)

    def close_epoch(self, now: float) -> int:
        """Cut summaries everywhere and export them to FlowDB (steps 2-4).

        Returns the number of summaries exported.  Export volume is
        charged to the WAN path from each site to the cloud.
        """
        return self.runtime.close_epoch(now)

    # -- query path -------------------------------------------------------------

    def query(self, flowql: str) -> FlowQLResult:
        """Answer a FlowQL query from FlowDB (step 5)."""
        return self.runtime.query(flowql)

    def wan_summary_bytes(self) -> int:
        """Bytes of summaries that crossed into the cloud."""
        return self.runtime.wan_bytes()
