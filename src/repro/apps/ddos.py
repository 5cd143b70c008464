"""DDoS investigation (Section II.B, problem (c)).

"Investigate performance and/or DDoS incidents, i.e., identify affected
network parts and possible sources."  The detection logic is the
paper's Diff operator at work: the current epoch's Flowtree minus the
previous epoch's isolates *change*; a destination host whose inbound
popularity jumped by an order of magnitude is a victim candidate, and a
``group_by(src_ip)`` *within* the victim's flows attributes the attack
to source prefixes.  On detection the app installs a mitigation rule in
the site controller — the Figure 2 loop closing from application back
to the physical network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.base import Application, AppReport
from repro.control.controller import Controller
from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.core.summary import Location
from repro.errors import RuleConflictError
from repro.flows.features import format_ipv4
from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.tree import Flowtree


def victim_first_policy() -> GeneralizationPolicy:
    """A 5-tuple generalization chain that specializes the destination
    address *first*.

    This is the paper's "uses domain knowledge" property in action: the
    investigation cares about per-victim aggregates, so the tree is
    shaped to keep destination specificity near the root — under heavy
    compression, per-victim mass survives where the default
    (source-interleaved) chain would fold it away.
    """
    return GeneralizationPolicy.build(
        FIVE_TUPLE,
        [
            ("dst_ip", 8), ("dst_ip", 16), ("dst_ip", 24), ("dst_ip", 32),
            ("src_ip", 8), ("src_ip", 16), ("src_ip", 24), ("src_ip", 32),
            ("proto", 8),
            ("dst_port", 16), ("src_port", 16),
        ],
    )


@dataclass(frozen=True)
class DDoSFinding:
    """One detected incident."""

    site: str
    time: float
    victim: str
    surge_bytes: int
    surge_flows: int
    top_sources: List[Tuple[str, int]]


class DDoSInvestigationApp(Application):
    """Diff-based anomaly localization over per-site Flowtrees."""

    def __init__(
        self,
        sites: List[Location],
        epoch_seconds: float = 60.0,
        surge_factor: float = 5.0,
        min_surge_bytes: int = 1_000_000,
        node_budget: int = 8192,
        controllers: Optional[Dict[str, Controller]] = None,
        planner=None,
    ) -> None:
        super().__init__("ddos-investigation")
        self.sites = sites
        self.epoch_seconds = epoch_seconds
        self.surge_factor = surge_factor
        self.min_surge_bytes = min_surge_bytes
        self.node_budget = node_budget
        self.controllers = controllers or {}
        #: optional federated query planner
        #: (:class:`~repro.query.planner.FederatedQueryPlanner`) — when
        #: wired, drilldowns go through the unified query plane, which
        #: serves replicas locally and feeds the replication engine
        self.planner = planner
        self.policy = victim_first_policy()
        self.findings: List[DDoSFinding] = []
        self._mitigations: int = 0

    def aggregator_name(self, site: Location) -> str:
        """The per-site Flowtree aggregator this app relies on."""
        return f"ddos/{site.path}"

    def requirements(self) -> List[ApplicationRequirement]:
        return [
            ApplicationRequirement(
                app_name=self.name,
                aggregator_name=self.aggregator_name(site),
                kind="flowtree",
                location=site,
                config={"node_budget": self.node_budget,
                        "policy": self.policy},
            )
            for site in self.sites
        ]

    def _window_tree(
        self, manager: Manager, site: Location, start: float, end: float,
        now: float,
    ) -> Optional[Flowtree]:
        if self.planner is not None:
            return self.planner.window_tree(
                site, start, end,
                aggregator=self.aggregator_name(site), now=now,
            )
        # standalone fallback (no query plane): read the covering store
        store = manager.covering_store(site)
        summary, _ = store.window_summary(
            self.aggregator_name(site), start, end, now=now
        )
        return summary.payload if summary is not None else None

    def investigate_site(
        self, manager: Manager, site: Location, now: float
    ) -> List[DDoSFinding]:
        """Compare the last two epochs at one site."""
        current = self._window_tree(
            manager, site, now - self.epoch_seconds, now, now
        )
        baseline = self._window_tree(
            manager,
            site,
            now - 2 * self.epoch_seconds,
            now - self.epoch_seconds,
            now,
        )
        if current is None or baseline is None:
            return []
        delta = current.diff(baseline)
        by_victim = delta.aggregate_by_feature("dst_ip", 32)
        findings = []
        for victim_key, surge in by_victim:
            if surge.bytes < self.min_surge_bytes:
                continue
            victim_value = victim_key.feature_value("dst_ip")
            baseline_score = baseline.query(victim_key)
            if surge.bytes < self.surge_factor * max(1, baseline_score.bytes):
                continue
            sources = current.aggregate_by_feature(
                "src_ip", 8, within=victim_key
            )
            finding = DDoSFinding(
                site=site.path,
                time=now,
                victim=format_ipv4(victim_value),
                surge_bytes=surge.bytes,
                surge_flows=surge.flows,
                top_sources=[
                    (f"{format_ipv4(k.feature_value('src_ip'))}/8", s.bytes)
                    for k, s in sources[:5]
                ],
            )
            findings.append(finding)
        return findings

    def _mitigate(self, finding: DDoSFinding, now: float) -> bool:
        """Install a drop rule at the site controller (if wired)."""
        controller = self.controllers.get(finding.site)
        if controller is None:
            return False
        from repro.control.rules import ControlRule

        self._mitigations += 1
        rule = ControlRule(
            rule_id=f"ddos-mitigate-{self._mitigations}",
            command=f"rate-limit dst={finding.victim}",
            target_actuator=f"{finding.site}/filter",
            priority=100,
            exclusive_group=f"mitigate/{finding.victim}",
            installed_by=self.name,
            certified=True,
        )
        try:
            controller.install_rule(rule)
            return True
        except RuleConflictError:
            return False

    def on_epoch(self, manager: Manager, now: float) -> List[AppReport]:
        emitted: List[AppReport] = []
        for site in self.sites:
            for finding in self.investigate_site(manager, site, now):
                self.findings.append(finding)
                mitigated = self._mitigate(finding, now)
                emitted.append(
                    self.report(
                        now,
                        "ddos-detected",
                        site=finding.site,
                        victim=finding.victim,
                        surge_bytes=finding.surge_bytes,
                        top_sources=finding.top_sources,
                        mitigated=mitigated,
                    )
                )
        return emitted
