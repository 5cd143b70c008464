"""Traffic matrices for provisioning (Section II.B, problem (b)).

"Compute traffic matrices, for planning network upgrades."  Per epoch
the app aggregates each site's Flowtree by source /8 prefix, assembles
the (source prefix x site) demand matrix, projects the demands onto the
hierarchy links (every site's traffic transits its ancestor chain), and
reports the most loaded link relative to its capacity — the upgrade
candidate.  The link projection uses :mod:`networkx` over the hierarchy
graph, standing in for a real routing model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.apps.base import Application, AppReport
from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.core.primitive import QueryRequest
from repro.core.summary import Location
from repro.errors import ReproError
from repro.flows.features import format_ipv4
from repro.hierarchy.network import NetworkFabric


class TrafficMatrixApp(Application):
    """Source-prefix x site demand matrices and link load projection."""

    def __init__(
        self,
        sites: List[Location],
        fabric: Optional[NetworkFabric] = None,
        node_budget: int = 4096,
        prefix_level: int = 8,
    ) -> None:
        super().__init__("traffic-matrix")
        self.sites = sites
        self.fabric = fabric
        self.node_budget = node_budget
        self.prefix_level = prefix_level
        self.matrices: List[Dict[Tuple[str, str], int]] = []

    def aggregator_name(self, site: Location) -> str:
        """The per-site Flowtree aggregator this app relies on."""
        return f"matrix/{site.path}"

    def requirements(self) -> List[ApplicationRequirement]:
        return [
            ApplicationRequirement(
                app_name=self.name,
                aggregator_name=self.aggregator_name(site),
                kind="flowtree",
                location=site,
                config={"node_budget": self.node_budget},
            )
            for site in self.sites
        ]

    def build_matrix(
        self, manager: Manager, now: float
    ) -> Dict[Tuple[str, str], int]:
        """The (source prefix, site) -> bytes demand matrix."""
        matrix: Dict[Tuple[str, str], int] = {}
        for site in self.sites:
            store = manager.covering_store(site)
            try:
                groups = store.query(
                    self.aggregator_name(site),
                    QueryRequest(
                        "group_by",
                        {"feature": "src_ip", "level": self.prefix_level},
                    ),
                    now=now,
                ).value
            except ReproError:
                continue
            for key, score in groups:
                prefix = (
                    f"{format_ipv4(key.feature_value('src_ip'))}"
                    f"/{self.prefix_level}"
                )
                matrix[(prefix, site.path)] = score.bytes
        return matrix

    def project_link_loads(
        self, matrix: Dict[Tuple[str, str], int]
    ) -> Dict[Tuple[str, str], float]:
        """Per-link utilization assuming traffic enters at the root.

        External traffic reaches each site over the hierarchy path from
        the root; utilization is demand divided by link capacity over
        the epoch (informational — not a queueing model).
        """
        if self.fabric is None:
            return {}
        graph = nx.Graph()
        for link in self.fabric.links():
            graph.add_edge(
                link.upper.path, link.lower.path, capacity=link.bandwidth_bps
            )
        root = self.fabric.hierarchy.root.location.path
        loads: Dict[Tuple[str, str], int] = {}
        for (_prefix, site), demand in matrix.items():
            if site not in graph or root not in graph:
                continue
            path = nx.shortest_path(graph, root, site)
            for a, b in zip(path, path[1:]):
                loads[(a, b)] = loads.get((a, b), 0) + demand
        utilization: Dict[Tuple[str, str], float] = {}
        for edge, demand_bytes in loads.items():
            capacity = graph.edges[edge]["capacity"]
            utilization[edge] = demand_bytes * 8.0 / capacity
        return utilization

    def on_epoch(self, manager: Manager, now: float) -> List[AppReport]:
        matrix = self.build_matrix(manager, now)
        if not matrix:
            return []
        self.matrices.append(matrix)
        utilization = self.project_link_loads(matrix)
        hottest = (
            max(utilization.items(), key=lambda pair: pair[1])
            if utilization
            else (None, 0.0)
        )
        return [
            self.report(
                now,
                "traffic-matrix",
                entries=len(matrix),
                total_bytes=sum(matrix.values()),
                hottest_link=hottest[0],
                hottest_seconds_of_traffic=hottest[1],
            )
        ]
