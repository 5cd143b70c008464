"""Time-binned statistics: the "simple statistics over time bins"
aggregation method of Section V (sum, mean, min/max, standard deviation,
and an approximate median).

Values are folded into fixed-width time bins.  Each bin keeps streaming
moments (count/sum/min/max and Welford's M2 for variance) plus a small
bounded reservoir for quantile estimates.  Bins re-aggregate losslessly
(for the moments) to any integer multiple of the current width, which is
what the data store's hierarchical storage strategy and the merge rule
rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import GranularityError
from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
    stable_seed,
)
from repro.core.summary import DataSummary, Location

_BIN_BYTES = 48
_RESERVOIR_BYTES = 8


@dataclass
class BinStats:
    """Streaming statistics for one time bin."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    mean: float = 0.0
    m2: float = 0.0
    reservoir: List[float] = field(default_factory=list)
    reservoir_seen: int = 0

    def observe(self, value: float, rng: random.Random, reservoir_size: int) -> None:
        """Fold one value into the bin."""
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.reservoir_seen += 1
        if len(self.reservoir) < reservoir_size:
            self.reservoir.append(value)
        else:
            slot = rng.randrange(self.reservoir_seen)
            if slot < reservoir_size:
                self.reservoir[slot] = value

    def merge(self, other: "BinStats", rng: random.Random, reservoir_size: int) -> None:
        """Fold another bin into this one (parallel-variance formula)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.mean = other.mean
            self.m2 = other.m2
            self.reservoir = list(other.reservoir)
            self.reservoir_seen = other.reservoir_seen
            return
        combined = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / combined
        self.mean = (self.mean * self.count + other.mean * other.count) / combined
        self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        # weighted subsample of the union keeps the reservoir representative
        pool = self.reservoir + other.reservoir
        self.reservoir_seen += other.reservoir_seen
        if len(pool) > reservoir_size:
            pool = rng.sample(pool, reservoir_size)
        self.reservoir = pool

    @property
    def variance(self) -> float:
        """Population variance of the bin's values."""
        if self.count == 0:
            return 0.0
        return self.m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile from the reservoir (None when empty)."""
        if not self.reservoir:
            return None
        ordered = sorted(self.reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    @property
    def median(self) -> Optional[float]:
        """Approximate median from the reservoir."""
        return self.quantile(0.5)


class TimeBinStatistics(ComputingPrimitive):
    """Per-bin statistics over a numeric stream.

    Supported query operators:

    * ``"series"`` — params ``field`` (``mean``/``total``/``count``/
      ``min``/``max``/``stddev``/``median``), ``start``/``end``: a list of
      ``(bin_start, value)`` pairs.
    * ``"stats"`` — aggregate :class:`BinStats` over a window.
    * ``"bins"`` — raw window bins as ``(bin_start, BinStats)`` pairs.
    """

    kind = "timebin"
    granularity_param = "bin_seconds"
    granularity_is_count = False

    def __init__(
        self,
        location: Location,
        bin_seconds: float = 1.0,
        reservoir_size: int = 32,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(location)
        if bin_seconds <= 0:
            raise GranularityError(f"bin width must be positive, got {bin_seconds}")
        self.bin_seconds = bin_seconds
        self.reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._bins: Dict[int, BinStats] = {}

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "TimeBinStatistics":
        meta = summary.meta
        return cls(
            meta.location,
            bin_seconds=summary.attrs["bin_seconds"],
            seed=stable_seed(meta.location.path, meta.interval),
        )

    def _load(self, summary: DataSummary) -> None:
        self._bins = {
            int(round(bin_start / self.bin_seconds)): stats
            for bin_start, stats in summary.payload.items()
        }

    def _shrink(self, shrink: float) -> None:
        """Bins widen by the inverse shrink factor."""
        self.set_granularity(
            self.bin_seconds * max(1, int(round(1.0 / shrink)))
        )

    # -- ingest ----------------------------------------------------------

    def _bin_index(self, timestamp: float) -> int:
        return int(timestamp // self.bin_seconds)

    def _ingest(self, item: Any, timestamp: float) -> None:
        value = float(item)
        stats = self._bins.setdefault(self._bin_index(timestamp), BinStats())
        stats.observe(value, self._rng, self.reservoir_size)

    def _reset(self) -> None:
        self._bins = {}

    # -- summaries -------------------------------------------------------

    def bins(self) -> Dict[float, BinStats]:
        """Bins keyed by their start timestamp, in time order."""
        return {
            index * self.bin_seconds: stats
            for index, stats in sorted(self._bins.items())
        }

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=self.bins(),
            size_bytes=self.footprint_bytes(),
            attrs={"bin_seconds": self.bin_seconds},
        )

    def footprint_bytes(self) -> int:
        reservoir_total = sum(len(b.reservoir) for b in self._bins.values())
        return _BIN_BYTES * len(self._bins) + _RESERVOIR_BYTES * reservoir_total

    # -- queries ---------------------------------------------------------

    def _window_bins(
        self, start: Optional[float], end: Optional[float]
    ) -> List[tuple]:
        pairs = []
        for index, stats in sorted(self._bins.items()):
            bin_start = index * self.bin_seconds
            if start is not None and bin_start + self.bin_seconds <= start:
                continue
            if end is not None and bin_start >= end:
                continue
            pairs.append((bin_start, stats))
        return pairs

    def query(self, request: QueryRequest) -> Any:
        params = request.params
        window = self._window_bins(params.get("start"), params.get("end"))
        if request.operator == "bins":
            return window
        if request.operator == "series":
            field_name = params.get("field", "mean")
            series = []
            for bin_start, stats in window:
                if field_name == "median":
                    value = stats.median
                elif field_name == "min":
                    value = stats.minimum
                elif field_name == "max":
                    value = stats.maximum
                else:
                    value = getattr(stats, field_name)
                series.append((bin_start, value))
            return series
        if request.operator == "stats":
            # a read draws from the window, never from the ingest RNG:
            # the same window answers the same and ingest is unmoved
            rng = random.Random(
                stable_seed(
                    self.location.path, params.get("start"), params.get("end")
                )
            )
            aggregate = BinStats()
            for _, stats in window:
                aggregate.merge(stats, rng, self.reservoir_size)
            return aggregate
        raise ValueError(
            f"timebin primitive does not support operator {request.operator!r}"
        )

    # -- combine -----------------------------------------------------------

    def combine(self, other: "ComputingPrimitive") -> None:
        """Merge bins; the result uses the coarser of the two widths.

        Widths must be integer multiples of each other (the library's
        default ladder — 1s, 60s, 3600s … — guarantees this)."""
        self._check_combinable(other)
        assert isinstance(other, TimeBinStatistics)
        coarse = max(self.bin_seconds, other.bin_seconds)
        self.set_granularity(coarse)
        rebinned = other._rebinned(coarse)
        for index, stats in rebinned.items():
            mine = self._bins.setdefault(index, BinStats())
            mine.merge(stats, self._rng, self.reservoir_size)

    def _rebinned(self, bin_seconds: float) -> Dict[int, BinStats]:
        ratio = bin_seconds / self.bin_seconds
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise GranularityError(
                f"cannot rebin width {self.bin_seconds} to {bin_seconds}: "
                "target must be an integer multiple"
            )
        rebinned: Dict[int, BinStats] = {}
        for index, stats in self._bins.items():
            new_index = int((index * self.bin_seconds) // bin_seconds)
            target = rebinned.setdefault(new_index, BinStats())
            target.merge(stats, self._rng, self.reservoir_size)
        return rebinned

    # -- granularity / adaptation -------------------------------------------

    def set_granularity(self, granularity: float) -> None:
        """Widen bins to ``granularity`` seconds (an integer multiple)."""
        if granularity == self.bin_seconds:
            return
        self._bins = self._rebinned(granularity)
        self.bin_seconds = granularity

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Match queried granularity; widen bins under storage pressure."""
        width = self.bin_seconds
        if feedback.requested_granularity:
            requested = feedback.requested_granularity
            if requested > width:
                multiple = max(1, int(requested // width))
                width = width * multiple
        if feedback.storage_pressure > 0.5:
            width *= 2
        if width != self.bin_seconds:
            self.set_granularity(width)
