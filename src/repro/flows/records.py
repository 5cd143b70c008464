"""Raw flow and packet observations, and the popularity score vector.

A router (or the traffic simulator) exports either per-packet samples or
per-flow records.  Both carry a fully-specific :class:`~repro.flows.flowkey.FlowKey`
plus counters.  The Flowtree annotates each node with a *popularity
score*, which the paper defines as "either its packet count, flow count,
byte count, or combinations thereof" — :class:`Score` keeps all three so
any combination can be queried after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.flows.flowkey import FlowKey


@dataclass(frozen=True, slots=True)
class Score:
    """The additive popularity vector: packets, bytes, and flow count.

    Scores form a commutative group under ``+``/``-`` which is what makes
    Flowtree summaries combinable (Merge) and comparable (Diff) across
    time periods and locations.

    Scores are the *external* currency: the Flowtree hot path
    accumulates popularity in plain integer counters on its nodes and
    materializes ``Score`` views only at the API boundary (query
    results, ``node.own``/``folded``/``subtree`` properties), so the
    per-record ingest cost carries no ``Score`` allocations.  A flow
    record reaches the tree as ``(key, packets, bytes, 1)``:
    ``runtime.ingest`` -> ``DataStore.ingest`` ->
    ``FlowtreePrimitive.ingest_many`` -> :func:`repro.flows.tree.counters`
    -> ``Flowtree.add_many``.  (A sampled packet record still scales
    its :meth:`PacketRecord.score`.)
    """

    packets: int = 0
    bytes: int = 0
    flows: int = 0

    def __add__(self, other: "Score") -> "Score":
        return Score(
            self.packets + other.packets,
            self.bytes + other.bytes,
            self.flows + other.flows,
        )

    def __sub__(self, other: "Score") -> "Score":
        return Score(
            self.packets - other.packets,
            self.bytes - other.bytes,
            self.flows - other.flows,
        )

    def __neg__(self) -> "Score":
        return Score(-self.packets, -self.bytes, -self.flows)

    def scale(self, factor: Union[int, float]) -> "Score":
        """Scale all counters, e.g. to invert a packet-sampling rate."""
        return Score(
            int(round(self.packets * factor)),
            int(round(self.bytes * factor)),
            int(round(self.flows * factor)),
        )

    def metric(self, name: str) -> int:
        """Fetch one counter by name (``packets``/``bytes``/``flows``)."""
        if name == "packets":
            return self.packets
        if name == "bytes":
            return self.bytes
        if name == "flows":
            return self.flows
        raise ValueError(f"unknown popularity metric {name!r}")

    def is_zero(self) -> bool:
        """True when every counter is zero."""
        return self.packets == 0 and self.bytes == 0 and self.flows == 0

    @staticmethod
    def zero() -> "Score":
        """The additive identity."""
        return Score(0, 0, 0)


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One exported flow: key plus its packet/byte counters and time span.

    ``first_seen``/``last_seen`` are simulation timestamps in seconds.
    """

    key: FlowKey
    packets: int
    bytes: int
    first_seen: float
    last_seen: float

    def __post_init__(self) -> None:
        if self.last_seen < self.first_seen:
            raise ValueError(
                f"flow ends ({self.last_seen}) before it starts "
                f"({self.first_seen})"
            )

    @property
    def duration(self) -> float:
        """The flow's active time span in seconds."""
        return self.last_seen - self.first_seen

    def score(self) -> Score:
        """The record's contribution to a popularity score."""
        return Score(packets=self.packets, bytes=self.bytes, flows=1)


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One (possibly sampled) packet observation."""

    key: FlowKey
    bytes: int
    timestamp: float
    sampled_1_in: int = 1

    def score(self) -> Score:
        """The packet's score, corrected for the sampling rate.

        A 1-in-N sampled packet stands for N packets of the same size;
        the flow count is deliberately 0 — flow arrivals are only counted
        from :class:`FlowRecord` so packets and flows can be mixed into
        one tree without double counting.
        """
        return Score(packets=1, bytes=self.bytes, flows=0).scale(
            self.sampled_1_in
        )


@dataclass
class EpochStats:
    """Running totals for one ingest epoch, kept by stream consumers."""

    records: int = 0
    packets: int = 0
    bytes: int = 0
    start: float = field(default=float("inf"))
    end: float = field(default=float("-inf"))

    def observe(self, record: FlowRecord) -> None:
        """Fold one flow record into the totals."""
        self.records += 1
        self.packets += record.packets
        self.bytes += record.bytes
        self.start = min(self.start, record.first_seen)
        self.end = max(self.end, record.last_seen)
