"""The network-monitoring scenario (Section II.B) as a reusable harness.

Builds per-site data stores over a region hierarchy, deploys the
monitoring applications (trends, traffic matrix, DDoS investigation
with controller-backed mitigation), and replays a configurable number
of traffic epochs with optional attack injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.base import AppReport
from repro.apps.ddos import DDoSFinding, DDoSInvestigationApp
from repro.apps.traffic_matrix import TrafficMatrixApp
from repro.apps.trends import NetworkTrendsApp, TrendReport
from repro.control.controller import Controller
from repro.core.summary import Location
from repro.hierarchy.topology import network_monitoring_hierarchy
from repro.runtime.config import EXPORT_NONE, LevelConfig
from repro.runtime.runtime import HierarchyRuntime
from repro.simulation.sensors import Actuator
from repro.simulation.traffic import TrafficConfig, TrafficGenerator


@dataclass
class NetworkOutcome:
    """What a monitoring run produced."""

    epochs: int
    sites: List[str]
    findings: List[DDoSFinding] = field(default_factory=list)
    trend_reports: List[TrendReport] = field(default_factory=list)
    matrix_reports: List[AppReport] = field(default_factory=list)
    mitigation_rules: Dict[str, List[str]] = field(default_factory=dict)
    wan_bytes: int = 0


class NetworkScenario:
    """A deterministic multi-site monitoring world."""

    def __init__(
        self,
        regions: int = 4,
        routers_per_region: int = 1,
        flows_per_epoch: int = 2000,
        seed: int = 7,
        node_budget: int = 8192,
        epoch_seconds: float = 60.0,
        with_trends: bool = True,
        with_matrix: bool = True,
        with_ddos: bool = True,
    ) -> None:
        self.epoch_seconds = epoch_seconds
        self.site_names: List[str] = [
            f"region{r + 1}/router{i + 1}"
            for r in range(regions)
            for i in range(routers_per_region)
        ]
        # the monitoring world is a HierarchyRuntime with bare router
        # stores: applications install their own aggregators through the
        # Manager, and epoch partitions stay local (no WAN export)
        self.runtime = HierarchyRuntime(
            network_monitoring_hierarchy(
                regions=regions, routers_per_region=routers_per_region
            ),
            levels={
                "router": LevelConfig(
                    aggregator=None,
                    storage_bytes=10**8,
                    export=EXPORT_NONE,
                )
            },
            epoch_seconds=epoch_seconds,
        )
        self.hierarchy = self.runtime.hierarchy
        self.fabric = self.runtime.fabric
        self.manager = self.runtime.manager
        self.sites: List[Location] = []
        self.controllers: Dict[str, Controller] = self.runtime.controllers
        for name in self.site_names:
            location = Location(f"cloud/network/{name}")
            controller = self.runtime.attach_controller(location)
            controller.register_actuator(
                Actuator(f"{location.path}/filter", location)
            )
            self.sites.append(location)
        self.generator = TrafficGenerator(
            TrafficConfig(
                sites=tuple(self.site_names),
                flows_per_epoch=flows_per_epoch,
            ),
            seed=seed,
        )
        self.apps = []
        self.trends_app: Optional[NetworkTrendsApp] = None
        self.matrix_app: Optional[TrafficMatrixApp] = None
        self.ddos_app: Optional[DDoSInvestigationApp] = None
        if with_trends:
            self.trends_app = NetworkTrendsApp(
                self.sites, node_budget=node_budget
            )
            self.apps.append(self.trends_app)
        if with_matrix:
            self.matrix_app = TrafficMatrixApp(
                self.sites, fabric=self.fabric, node_budget=node_budget
            )
            self.apps.append(self.matrix_app)
        if with_ddos:
            self.ddos_app = DDoSInvestigationApp(
                self.sites,
                epoch_seconds=epoch_seconds,
                node_budget=node_budget,
                controllers=self.controllers,
                # drilldowns go through the unified query plane: reads
                # are fabric-accounted and feed adaptive replication
                planner=self.runtime.planner,
            )
            self.apps.append(self.ddos_app)
        for app in self.apps:
            app.deploy(self.manager)

    def run(
        self,
        epochs: int = 4,
        attacks: Optional[List[Tuple[int, str]]] = None,
        attack_flows: int = 2000,
    ) -> NetworkOutcome:
        """Replay ``epochs`` traffic epochs.

        ``attacks`` lists ``(epoch index, site name)`` pairs where a
        DDoS is injected.
        """
        attack_set = set(attacks or [])
        for epoch in range(epochs):
            for name, location in zip(self.site_names, self.sites):
                store = self.runtime.store_at(location)
                if (epoch, name) in attack_set:
                    records = self.generator.ddos_epoch(
                        name, epoch, attack_flows=attack_flows
                    )
                else:
                    records = self.generator.epoch(name, epoch)
                store.ingest(
                    "flows",
                    [(record, record.first_seen) for record in records],
                    size_bytes=48,
                )
            now = (epoch + 1) * self.epoch_seconds
            # live-view apps read before the epoch is cut
            if self.trends_app is not None:
                self.trends_app.on_epoch(self.manager, now)
            if self.matrix_app is not None:
                self.matrix_app.on_epoch(self.manager, now)
            self.runtime.close_epoch(now)
            if self.ddos_app is not None:
                self.ddos_app.on_epoch(self.manager, now)
        return NetworkOutcome(
            epochs=epochs,
            sites=list(self.site_names),
            findings=(
                list(self.ddos_app.findings) if self.ddos_app else []
            ),
            trend_reports=(
                list(self.trends_app.trend_reports)
                if self.trends_app
                else []
            ),
            matrix_reports=(
                list(self.matrix_app.reports) if self.matrix_app else []
            ),
            mitigation_rules={
                path: [rule.rule_id for rule in controller.rules()]
                for path, controller in self.controllers.items()
                if controller.rules()
            },
            wan_bytes=self.fabric.total_bytes(),
        )
