"""Network-monitoring workload (Section II.B): per-router flow exports.

Each site (router) observes traffic between a global, Zipf-popular
population of external hosts and its own internal prefix.  Flow sizes
are heavy-tailed, service ports follow a configurable mix, and exports
can be packet-sampled (the paper's "1 of every 10K packets").  The
generator is deterministic per (seed, site, epoch), so multi-site,
multi-epoch experiments are reproducible and per-site summaries really
do describe overlapping-but-distinct traffic — the precondition for
meaningful Merge/Diff across locations.

A DDoS helper injects attack epochs: many spoofed sources converging on
one victim, which is what the investigation application (Section II.B
problem (c)) must localize.  :func:`drive` ingests and closes plain
traffic epochs on a runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.flows.features import parse_ipv4
from repro.flows.flowkey import FIVE_TUPLE, FeatureSchema
from repro.flows.records import FlowRecord, PacketRecord


#: Default service mix: (protocol, destination port, relative weight).
DEFAULT_SERVICES: Tuple[Tuple[int, int, float], ...] = (
    (6, 443, 0.45),   # HTTPS
    (6, 80, 0.20),    # HTTP
    (17, 53, 0.12),   # DNS
    (6, 22, 0.05),    # SSH
    (17, 123, 0.03),  # NTP
    (6, 25, 0.05),    # SMTP
    (6, 8080, 0.10),  # alt HTTP
)


@dataclass(frozen=True)
class TrafficConfig:
    """Parameters of the synthetic traffic mix."""

    sites: Tuple[str, ...] = ("region1/router1", "region2/router1")
    flows_per_epoch: int = 5000
    epoch_seconds: float = 60.0
    external_hosts: int = 20000
    internal_hosts_per_site: int = 256
    zipf_exponent: float = 1.2
    mean_packets_per_flow: float = 20.0
    mean_packet_bytes: int = 800
    services: Tuple[Tuple[int, int, float], ...] = DEFAULT_SERVICES
    sample_1_in: int = 1
    schema: FeatureSchema = field(default=FIVE_TUPLE)


class TrafficGenerator:
    """Deterministic flow-record generator over a site set."""

    def __init__(self, config: TrafficConfig = TrafficConfig(), seed: int = 42):
        self.config = config
        self.seed = seed
        rng = random.Random(seed)
        # Global external population with prefix structure: hosts cluster
        # into /24s inside a handful of /8s, mirroring real allocation.
        self._external: List[int] = []
        base_networks = [parse_ipv4(f"{octet}.0.0.0") for octet in (23, 64, 98, 151, 203)]
        prefixes = max(1, config.external_hosts // 200)
        prefix_bases = [
            rng.choice(base_networks)
            | (rng.randrange(1 << 16) << 8)
            for _ in range(prefixes)
        ]
        for _ in range(config.external_hosts):
            base = rng.choice(prefix_bases)
            self._external.append(base | rng.randrange(256))
        # Popularity rank: shuffle so host identity and rank decouple.
        rng.shuffle(self._external)
        self._service_cdf = self._build_cdf([w for _, _, w in config.services])
        self._site_index = {site: i for i, site in enumerate(config.sites)}

    @staticmethod
    def _build_cdf(weights: Sequence[float]) -> List[float]:
        total = sum(weights)
        cdf, running = [], 0.0
        for weight in weights:
            running += weight / total
            cdf.append(running)
        return cdf

    def internal_prefix(self, site: str) -> int:
        """The site's internal /24 network address (10.0.x.0)."""
        index = self._site_index[site]
        return parse_ipv4("10.0.0.0") | (index << 8)

    def _internal_host(self, site: str, rng: random.Random) -> int:
        return self.internal_prefix(site) | rng.randrange(
            1, max(2, self.config.internal_hosts_per_site)
        )

    def _external_host(self, rng: random.Random) -> int:
        # Zipf-like popularity: heavy-tailed rank via a Pareto draw.
        rank = int(rng.paretovariate(self.config.zipf_exponent)) - 1
        return self._external[rank % len(self._external)]

    def _pick_service(self, rng: random.Random) -> Tuple[int, int]:
        draw = rng.random()
        for cdf_value, (proto, port, _) in zip(self._service_cdf, self.config.services):
            if draw <= cdf_value:
                return proto, port
        proto, port, _ = self.config.services[-1]
        return proto, port

    def _epoch_rng(self, site: str, epoch: int, salt: str = "") -> random.Random:
        return random.Random((self.seed, site, epoch, salt).__repr__())

    def epoch(self, site: str, epoch: int) -> List[FlowRecord]:
        """Generate the flow records router ``site`` exports for one epoch.

        Epoch ``e`` spans ``[e * epoch_seconds, (e+1) * epoch_seconds)``.
        With ``sample_1_in > 1`` the packet counts are thinned
        binomially, modeling sampled NetFlow; flows whose every packet is
        dropped by sampling are not exported at all.
        """
        config = self.config
        rng = self._epoch_rng(site, epoch)
        start = epoch * config.epoch_seconds
        records: List[FlowRecord] = []
        for _ in range(config.flows_per_epoch):
            src = self._external_host(rng)
            dst = self._internal_host(site, rng)
            proto, dst_port = self._pick_service(rng)
            src_port = rng.randrange(1024, 65536)
            packets = max(1, int(rng.expovariate(1.0 / config.mean_packets_per_flow)))
            packet_bytes = max(
                64, int(rng.gauss(config.mean_packet_bytes, config.mean_packet_bytes / 4))
            )
            if config.sample_1_in > 1:
                kept = sum(
                    1 for _ in range(packets) if rng.random() < 1.0 / config.sample_1_in
                )
                if kept == 0:
                    continue
                packets = kept * config.sample_1_in  # rescaled estimate
            first = start + rng.uniform(0, config.epoch_seconds * 0.9)
            last = min(
                start + config.epoch_seconds,
                first + rng.uniform(0, config.epoch_seconds - (first - start)),
            )
            key = config.schema.key(
                proto=proto,
                src_ip=src,
                dst_ip=dst,
                src_port=src_port,
                dst_port=dst_port,
            )
            records.append(
                FlowRecord(
                    key=key,
                    packets=packets,
                    bytes=packets * packet_bytes,
                    first_seen=first,
                    last_seen=last,
                )
            )
        return records

    def ddos_epoch(
        self,
        site: str,
        epoch: int,
        victim: Optional[int] = None,
        attack_flows: int = 2000,
        attack_port: int = 80,
    ) -> List[FlowRecord]:
        """An epoch of background traffic plus a DDoS on ``victim``.

        Attack sources are drawn uniformly (not by popularity) from the
        external population — the signature the HHH/Flowtree diff-based
        investigation detects as a new heavy prefix aimed at one host.
        """
        records = self.epoch(site, epoch)
        rng = self._epoch_rng(site, epoch, salt="ddos")
        config = self.config
        start = epoch * config.epoch_seconds
        if victim is None:
            victim = self.internal_prefix(site) | 1
        for _ in range(attack_flows):
            src = self._external[rng.randrange(len(self._external))]
            key = config.schema.key(
                proto=6,
                src_ip=src,
                dst_ip=victim,
                src_port=rng.randrange(1024, 65536),
                dst_port=attack_port,
            )
            packets = max(1, int(rng.expovariate(1.0 / 50.0)))
            records.append(
                FlowRecord(
                    key=key,
                    packets=packets,
                    bytes=packets * 60,  # small SYN-flood style packets
                    first_seen=start + rng.uniform(0, config.epoch_seconds * 0.5),
                    last_seen=start + config.epoch_seconds,
                )
            )
        return records

    def packet_epoch(
        self,
        site: str,
        epoch: int,
        sample_1_in: int = 10_000,
    ) -> List[PacketRecord]:
        """Per-packet sampled capture of one epoch ("1 of every 10K
        packets", Section II.B).

        Packets are drawn from the same flow population as
        :meth:`epoch` (ignoring the config's flow-level ``sample_1_in``
        so both views describe identical traffic); each sampled packet
        carries its inverse sampling rate, so Flowtree estimates built
        from packets are unbiased against the flow-level ground truth.
        """
        config = self.config
        if config.sample_1_in > 1:
            unsampled = TrafficGenerator(
                TrafficConfig(
                    **{
                        **config.__dict__,
                        "sample_1_in": 1,
                    }
                ),
                seed=self.seed,
            )
            flows = unsampled.epoch(site, epoch)
        else:
            flows = self.epoch(site, epoch)
        rng = self._epoch_rng(site, epoch, salt="packets")
        packets: List[PacketRecord] = []
        for record in flows:
            kept = sum(
                1 for _ in range(record.packets)
                if rng.random() < 1.0 / sample_1_in
            )
            if kept == 0:
                continue
            mean_size = max(64, record.bytes // max(1, record.packets))
            for _ in range(kept):
                packets.append(
                    PacketRecord(
                        key=record.key,
                        bytes=mean_size,
                        timestamp=rng.uniform(
                            record.first_seen, record.last_seen
                        ),
                        sampled_1_in=sample_1_in,
                    )
                )
        packets.sort(key=lambda p: p.timestamp)
        return packets

    def epochs(self, site: str, count: int) -> List[List[FlowRecord]]:
        """The first ``count`` epochs for one site."""
        return [self.epoch(site, index) for index in range(count)]


def drive(
    runtime,
    epochs: int,
    flows_per_epoch: int,
    seed: int,
    on_close: Optional[Callable[[int, int], None]] = None,
) -> List[str]:
    """Ingest and close ``epochs`` deterministic traffic epochs.

    One generator is drawn over the runtime's ingest sites; epoch ``e``
    closes at ``(e + 1) * runtime.epoch_seconds`` and
    ``on_close(e, exported)`` is told about each close.  The site list
    is re-read every epoch, because a reconfiguration drill may add,
    remove or rename sites at a close; a site the generator was not
    drawn over gets no traffic.  Returns the sites it was drawn over.
    """
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows_per_epoch),
        seed=seed,
    )
    for epoch in range(epochs):
        for site in runtime.ingest_sites():
            if site in generator.config.sites:
                runtime.ingest(site, generator.epoch(site, epoch))
        exported = runtime.close_epoch((epoch + 1) * runtime.epoch_seconds)
        if on_close is not None:
            on_close(epoch, exported)
    return sites
