"""Network trends (Section II.B, problem (a)).

"Determine network trends, e.g., popular network applications or
traffic sources."  The app requires a Flowtree per monitored site and,
each epoch, reports the service (destination-port) mix, the top source
prefixes, and the top flows — all straight Table II operator calls,
which is the point: one primitive, many a-priori-unknown questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps.base import Application, AppReport
from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.core.primitive import QueryRequest
from repro.core.summary import Location
from repro.errors import ReproError
from repro.flows.features import format_ipv4


@dataclass(frozen=True)
class TrendReport:
    """One epoch's trend snapshot for one site."""

    site: str
    time: float
    services: List[Tuple[int, int]]
    top_source_prefixes: List[Tuple[str, int]]
    top_flows: List[Tuple[str, int]]


class NetworkTrendsApp(Application):
    """Service mix, top sources, and top flows per site."""

    def __init__(
        self,
        sites: List[Location],
        node_budget: int = 4096,
        top_n: int = 10,
    ) -> None:
        super().__init__("network-trends")
        self.sites = sites
        self.node_budget = node_budget
        self.top_n = top_n
        self.trend_reports: List[TrendReport] = []

    def aggregator_name(self, site: Location) -> str:
        """The per-site Flowtree aggregator this app relies on."""
        return f"trends/{site.path}"

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

    def on_epoch(self, manager: Manager, now: float) -> List[AppReport]:
        emitted: List[AppReport] = []
        for site in self.sites:
            store = manager.covering_store(site)
            name = self.aggregator_name(site)
            try:
                services = store.query(
                    name,
                    QueryRequest("group_by", {"feature": "dst_port", "level": 16}),
                    now=now,
                ).value
                sources = store.query(
                    name,
                    QueryRequest("group_by", {"feature": "src_ip", "level": 8}),
                    now=now,
                ).value
                flows = store.query(
                    name, QueryRequest("top_k", {"k": self.top_n}), now=now
                ).value
            except ReproError:
                continue
            snapshot = TrendReport(
                site=site.path,
                time=now,
                services=[
                    (key.feature_value("dst_port"), score.bytes)
                    for key, score in services[: self.top_n]
                ],
                top_source_prefixes=[
                    (
                        f"{format_ipv4(key.feature_value('src_ip'))}/8",
                        score.bytes,
                    )
                    for key, score in sources[: self.top_n]
                ],
                top_flows=[
                    (str(key), score.bytes)
                    for key, score in flows[: self.top_n]
                ],
            )
            self.trend_reports.append(snapshot)
            emitted.append(
                self.report(
                    now,
                    "trends",
                    site=site.path,
                    top_service=(
                        snapshot.services[0][0] if snapshot.services else None
                    ),
                    services=len(snapshot.services),
                    sources=len(snapshot.top_source_prefixes),
                )
            )
        return emitted
