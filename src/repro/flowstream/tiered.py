"""Tiered Flowstream: data stores at every hierarchy level.

The flat :class:`~repro.flowstream.system.Flowstream` ships router
summaries straight to the cloud.  The paper's Figure 2b, however, shows
data stores *between* the edge and the cloud ("further data stores
exist to merge and aggregate data from multiple mega-datasets").  This
variant — the tiered preset of the generic
:class:`~repro.runtime.runtime.HierarchyRuntime` — adds a region tier:
router trees merge into per-region stores first, the region stores
compress, and only the compressed regional summaries cross the WAN.

The interesting measurable consequence (exercised by tests and the
Figure 1 benchmark family): WAN volume drops again relative to the flat
design — the merge at the region tier deduplicates generalized nodes
shared by its routers — at the price of the extra aggregation delay.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.datastore.store import DataStore
from repro.errors import PlacementError
from repro.flows.flowkey import FIVE_TUPLE, FeatureSchema, GeneralizationPolicy
from repro.flows.records import FlowRecord
from repro.flowql.executor import FlowQLResult
from repro.runtime.presets import tiered_runtime


class TieredFlowstream:
    """Router stores → region stores (merge + compress) → cloud FlowDB.

    ``sites`` are ``region/router`` paths; routers sharing the region
    segment share a region store.  ``region_node_budget`` bounds the
    merged regional trees — the knob that trades WAN volume against
    regional fidelity.
    """

    AGGREGATOR = "flowtree"

    def __init__(
        self,
        sites: List[str],
        schema: FeatureSchema = FIVE_TUPLE,
        policy: Optional[GeneralizationPolicy] = None,
        router_node_budget: int = 8192,
        region_node_budget: Optional[int] = 8192,
        epoch_seconds: float = 60.0,
        merge_node_budget: int = 65536,
    ) -> None:
        if not sites:
            raise PlacementError("TieredFlowstream needs at least one site")
        for site in sites:
            if "/" not in site:
                raise PlacementError(
                    f"site {site!r} must be region/router shaped"
                )
        self.runtime = tiered_runtime(
            sites,
            schema=schema,
            policy=policy,
            router_node_budget=router_node_budget,
            region_node_budget=region_node_budget,
            epoch_seconds=epoch_seconds,
            merge_node_budget=merge_node_budget,
        )
        self.sites = list(sites)
        self.policy = self.runtime.policy
        self.router_node_budget = router_node_budget
        self.region_node_budget = region_node_budget
        self.epoch_seconds = epoch_seconds
        self.hierarchy = self.runtime.hierarchy
        self.fabric = self.runtime.fabric
        self.db = self.runtime.db
        self.stats = self.runtime.stats
        self.router_stores: Dict[str, DataStore] = (
            self.runtime.stores_at_level("router")
        )
        self.region_stores: Dict[str, DataStore] = (
            self.runtime.stores_at_level("region")
        )

    # -- data path ------------------------------------------------------------

    def ingest(self, site: str, records: Iterable[FlowRecord]) -> int:
        """Feed router flow exports into the router's store."""
        return self.runtime.ingest(site, records)

    def close_epoch(self, now: float) -> int:
        """Roll router trees into regions, then regions into FlowDB.

        Returns the number of regional summaries exported to the cloud.
        The WAN hop applies each region store's privacy guard (if any):
        the cloud only ever sees the policy-degraded view.
        """
        return self.runtime.close_epoch(now)

    # -- query path -------------------------------------------------------------

    def query(self, flowql: str) -> FlowQLResult:
        """Answer a FlowQL query from the cloud FlowDB.

        Note the locations indexed in FlowDB are *regions*, matching
        what crossed the WAN.
        """
        return self.runtime.query(flowql)

    def wan_bytes(self) -> int:
        """Bytes that crossed into the cloud."""
        return self.runtime.wan_bytes()
