"""Links, routing, and transfer accounting over a hierarchy.

The fabric models exactly what the transfer-optimization problem of
Section VII needs: every byte moved between sites is charged to the
links it crosses, transfers take ``latency + bytes/bandwidth`` per hop,
and WAN links (those touching the top levels) are orders of magnitude
slower than intra-site links — which is why shipping raw mega-datasets
is infeasible (Table I, challenge 3) and replication decisions matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.summary import Location
from repro.errors import PlacementError, TransferError
from repro.faults import FaultPlan
from repro.hierarchy.topology import Hierarchy

#: Default link capacities by the *upper* endpoint's level name.
DEFAULT_BANDWIDTH_BPS: Dict[str, float] = {
    "cloud": 100e6 / 8 * 8,      # WAN uplink: 100 Mbit/s
    "network": 1e9,              # backbone: 1 Gbit/s
    "factory": 1e9,
    "region": 10e9,
    "line": 10e9,
}
_FALLBACK_BANDWIDTH_BPS = 10e9

DEFAULT_LATENCY_S: Dict[str, float] = {
    "cloud": 0.050,   # WAN round to the cloud
    "network": 0.020,
    "factory": 0.020,
    "region": 0.005,
    "line": 0.001,
}
_FALLBACK_LATENCY_S = 0.0005


@dataclass
class Link:
    """A bidirectional parent–child link with bandwidth and latency."""

    upper: Location
    lower: Location
    bandwidth_bps: float
    latency_s: float
    bytes_carried: int = 0
    transfers: int = 0
    #: hop traversals attempted, including ones that failed mid-transfer
    attempts: int = 0
    #: hop traversals refused by the fault plan (drop or outage)
    failures: int = 0
    #: bytes burned by failed transfer attempts; kept out of
    #: ``bytes_carried`` so delivered-volume accounting is fault-free
    wasted_bytes: int = 0

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical (upper, lower) path pair identifying the link."""
        return (self.upper.path, self.lower.path)

    def charge(self, size_bytes: int, bandwidth_factor: float = 1.0) -> float:
        """Account one transfer; returns the per-hop duration.

        ``bandwidth_factor`` in ``(0, 1]`` models fault-plan bandwidth
        degradation: the bytes still arrive, but slower.
        """
        self.bytes_carried += size_bytes
        self.transfers += 1
        return self.latency_s + size_bytes * 8.0 / (
            self.bandwidth_bps * bandwidth_factor
        )


@dataclass(frozen=True)
class TransferRecord:
    """One completed site-to-site transfer."""

    origin: Location
    destination: Location
    size_bytes: int
    started_at: float
    duration: float
    hops: int


class NetworkFabric:
    """The network overlaying a hierarchy, with full accounting."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        bandwidth_by_level: Optional[Dict[str, float]] = None,
        latency_by_level: Optional[Dict[str, float]] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.faults = faults
        self._bandwidths = dict(DEFAULT_BANDWIDTH_BPS)
        if bandwidth_by_level:
            self._bandwidths.update(bandwidth_by_level)
        self._latencies = dict(DEFAULT_LATENCY_S)
        if latency_by_level:
            self._latencies.update(latency_by_level)
        self._links: Dict[Tuple[str, str], Link] = {}
        #: links removed by a topology reconfiguration; their historical
        #: byte counters stay in the totals (the bytes really crossed)
        self._retired: List[Link] = []
        for node in hierarchy.nodes():
            for child in node.children:
                link = self._make_link(node, child)
                self._links[link.key] = link
        self.transfers: List[TransferRecord] = []

    def _make_link(self, node, child) -> Link:
        return Link(
            upper=node.location,
            lower=child.location,
            bandwidth_bps=self._bandwidths.get(
                node.level.name, _FALLBACK_BANDWIDTH_BPS
            ),
            latency_s=self._latencies.get(
                node.level.name, _FALLBACK_LATENCY_S
            ),
        )

    def resync(self) -> None:
        """Re-derive the link set after a topology reconfiguration.

        New parent–child pairs get fresh links at the level's default
        (or overridden) bandwidth/latency; links whose pair no longer
        exists are retired — their accumulated counters remain part of
        :meth:`total_bytes` / :meth:`wan_bytes` / :meth:`wasted_bytes`,
        because retiring a link cannot un-spend the bytes it carried.
        """
        current: Dict[Tuple[str, str], Link] = {}
        for node in self.hierarchy.nodes():
            for child in node.children:
                key = (node.location.path, child.location.path)
                link = self._links.get(key)
                if link is None:
                    link = self._make_link(node, child)
                current[key] = link
        for key, link in self._links.items():
            if key not in current:
                self._retired.append(link)
        self._links = current

    def link_between(self, a: Location, b: Location) -> Link:
        """The direct link between a parent and child location."""
        link = self._links.get((a.path, b.path)) or self._links.get(
            (b.path, a.path)
        )
        if link is None:
            raise PlacementError(
                f"no direct link between {a.path!r} and {b.path!r}"
            )
        return link

    def links(self) -> List[Link]:
        """All live links in the fabric."""
        return list(self._links.values())

    def _all_links(self) -> List[Link]:
        return list(self._links.values()) + self._retired

    def inject_faults(self, faults: Optional[FaultPlan]) -> None:
        """Install (or clear, with ``None``) the active fault schedule."""
        self.faults = faults

    def transfer(
        self,
        origin: Location,
        destination: Location,
        size_bytes: int,
        at_time: float = 0.0,
    ) -> TransferRecord:
        """Move ``size_bytes`` along the hierarchy route and account it.

        Duration is the sum of per-hop latencies plus per-hop
        serialization delay (store-and-forward).  A zero-hop transfer
        (origin == destination) is free and instantaneous.

        With a :class:`~repro.faults.FaultPlan` installed, each hop is
        consulted in route order; the first faulty hop raises
        :class:`~repro.errors.TransferError`, charging the bytes burned
        so far (this hop and every hop already traversed) to the links'
        ``wasted_bytes`` — never to ``bytes_carried``, which only ever
        counts delivered volume.  Surviving hops may still be delivered
        at degraded bandwidth.
        """
        path = self.hierarchy.path_between(origin, destination)
        traversed: List[Tuple[Link, float]] = []
        for upper, lower in zip(path, path[1:]):
            link = self.link_between(upper.location, lower.location)
            link.attempts += 1
            factor = 1.0
            if self.faults is not None:
                verdict = self.faults.failure(
                    link.upper.path, link.lower.path, at_time
                )
                if verdict is not None:
                    link.failures += 1
                    link.wasted_bytes += size_bytes
                    for earlier, _ in traversed:
                        earlier.wasted_bytes += size_bytes
                    raise TransferError(
                        f"transfer {origin.path!r} -> {destination.path!r} "
                        f"lost on link {link.key} ({verdict})",
                        origin=origin.path,
                        destination=destination.path,
                        link=link.key,
                        reason=verdict,
                        at_time=at_time,
                        size_bytes=size_bytes,
                    )
                factor = self.faults.degradation(
                    link.upper.path, link.lower.path
                )
            traversed.append((link, factor))
        duration = 0.0
        hops = 0
        for link, factor in traversed:
            duration += link.charge(size_bytes, factor)
            hops += 1
        record = TransferRecord(
            origin=origin,
            destination=destination,
            size_bytes=size_bytes if hops else 0,
            started_at=at_time,
            duration=duration,
            hops=hops,
        )
        self.transfers.append(record)
        return record

    def total_bytes(self) -> int:
        """Bytes carried across all links, retired ones included."""
        return sum(link.bytes_carried for link in self._all_links())

    def wan_bytes(self) -> int:
        """Bytes that crossed a link whose upper endpoint is the root.

        This is the paper's scarce resource: traffic into/out of the
        cloud over the wide-area network.
        """
        root_path = self.hierarchy.root.location.path
        return sum(
            link.bytes_carried
            for link in self._all_links()
            if link.upper.path == root_path
        )

    def wasted_bytes(self) -> int:
        """Bytes burned by failed transfer attempts across all links."""
        return sum(link.wasted_bytes for link in self._all_links())

    def attempted_hops(self) -> int:
        """Hop traversals attempted (successful + faulted)."""
        return sum(link.attempts for link in self._all_links())

    def failed_hops(self) -> int:
        """Hop traversals refused by the fault plan."""
        return sum(link.failures for link in self._all_links())

    def reset_accounting(self) -> None:
        """Zero all counters (between experiment phases)."""
        for link in self._all_links():
            link.bytes_carried = 0
            link.transfers = 0
            link.attempts = 0
            link.failures = 0
            link.wasted_bytes = 0
        self.transfers = []
