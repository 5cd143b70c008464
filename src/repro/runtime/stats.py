"""Unified per-level volume and latency accounting.

:class:`VolumeStats` tracks, for every level of an arbitrary-depth
hierarchy, the raw volume entering it, the summary volume flowing
through it, and the wall-clock the rollup spent there:
:attr:`VolumeStats.raw_bytes`, :attr:`VolumeStats.raw_records`,
:attr:`VolumeStats.exported_bytes`, and
``stats.level(name).summary_bytes_out``.

Fault accounting rides on the same buckets: every rollup export attempt
(first try, retry, or redelivery of a parked export) lands in its
level's ``transfer_attempts``/``transfer_failures``/``retried_bytes``,
so delivered volume and retry overhead stay separable.

These counters are the **single source of truth** for volume
accounting.  The observability layer (:mod:`repro.obs`) does not
double-count: the per-level rows of :data:`repro.obs.bridge.RUNTIME`
read these fields at collection time, so the Prometheus exposition can
never drift from the numbers the tests and benchmarks pin, and the hot
path pays nothing for metrics it is not exporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass
class LevelVolume:
    """Byte/latency accounting for one hierarchy level."""

    level: str
    raw_bytes: int = 0
    raw_items: int = 0
    #: summary bytes received from child stores during rollup
    summary_bytes_in: int = 0
    #: summary bytes this level shipped upward (or into FlowDB)
    summary_bytes_out: int = 0
    #: number of summaries this level exported
    exports: int = 0
    #: wall-clock seconds the epoch rollup spent at this level
    rollup_seconds: float = 0.0
    #: federated queries answered (at least partially) from this level
    queries_served: int = 0
    #: partial-result bytes this level shipped to the query plane
    query_bytes_out: int = 0
    #: rollup transfer attempts made at this level (incl. retries)
    transfer_attempts: int = 0
    #: rollup transfer attempts refused by the fault plan
    transfer_failures: int = 0
    #: bytes re-sent in retry/redelivery attempts (overhead, not volume)
    retried_bytes: int = 0
    #: exports parked after exhausting their retry budget
    exports_parked: int = 0
    #: parked exports later redelivered successfully
    exports_recovered: int = 0


class VolumeStats:
    """Volume accounting across a whole hierarchy runtime."""

    def __init__(self, levels: Optional[Iterable[str]] = None) -> None:
        self.per_level: Dict[str, LevelVolume] = {}
        for name in levels or ():
            self.per_level[name] = LevelVolume(name)
        self.epochs_closed = 0
        #: summaries delivered into FlowDB at the root, and their bytes
        self.exported_summaries = 0
        self.exported_bytes = 0
        #: query-plane routing census (filled by the federated planner)
        self.queries_cloud = 0
        self.queries_federated = 0
        self.queries_cached = 0
        #: federated queries that returned a partial (degraded) answer
        self.queries_degraded = 0

    # -- structured access --------------------------------------------------

    def level(self, name: str) -> LevelVolume:
        """The accounting bucket for one level (created on first use)."""
        bucket = self.per_level.get(name)
        if bucket is None:
            bucket = self.per_level[name] = LevelVolume(name)
        return bucket

    def levels(self) -> List[LevelVolume]:
        """All level buckets, in registration order."""
        return list(self.per_level.values())

    @property
    def raw_bytes(self) -> int:
        """Raw bytes ingested across every level."""
        return sum(v.raw_bytes for v in self.per_level.values())

    @property
    def raw_records(self) -> int:
        """Raw items ingested across every level."""
        return sum(v.raw_items for v in self.per_level.values())

    @property
    def reduction_factor(self) -> float:
        """Raw traffic volume over root-exported summary volume."""
        if self.exported_bytes == 0:
            return float("inf") if self.raw_bytes else 1.0
        return self.raw_bytes / self.exported_bytes

    # -- fault/retry accounting (summed across levels) -----------------------

    @property
    def transfer_attempts(self) -> int:
        """Rollup transfer attempts across every level (incl. retries)."""
        return sum(v.transfer_attempts for v in self.per_level.values())

    @property
    def transfer_failures(self) -> int:
        """Rollup transfer attempts the fault plan refused."""
        return sum(v.transfer_failures for v in self.per_level.values())

    @property
    def retried_bytes(self) -> int:
        """Bytes re-sent in retry/redelivery attempts across every level."""
        return sum(v.retried_bytes for v in self.per_level.values())

    @property
    def exports_parked(self) -> int:
        """Exports parked after exhausting retries, across every level."""
        return sum(v.exports_parked for v in self.per_level.values())

    @property
    def exports_recovered(self) -> int:
        """Parked exports redelivered successfully, across every level."""
        return sum(v.exports_recovered for v in self.per_level.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        levels = ", ".join(
            f"{v.level}: raw={v.raw_bytes} out={v.summary_bytes_out}"
            for v in self.per_level.values()
        )
        return (
            f"VolumeStats(epochs={self.epochs_closed}, "
            f"exported={self.exported_bytes}B, {levels})"
        )
