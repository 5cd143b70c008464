"""The paper's toy computing primitive (Section V.B): random sampling.

An aggregator that keeps each incoming time-series point with
probability ``rate``.  It demonstrates all five design properties in
their simplest form:

* **Query** — time-range selection with value predicates, and unbiased
  estimates of totals/means (scaled by the sampling rate).
* **Combine** — two sampled series combine by thinning the finer-sampled
  one down to the coarser rate, then concatenating.
* **Aggregate** — the granularity knob *is* the sampling rate.
* **Self-adapt** — the rate follows the observed ingest rate and the
  granularity requested by recent queries.
* **Domain knowledge** — deliberately none; the paper uses this
  primitive as the example of domain-agnostic aggregation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.errors import GranularityError
from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
    stable_seed,
)
from repro.core.summary import DataSummary, Location

_POINT_BYTES = 16  # one float timestamp + one float value


@dataclass(frozen=True)
class SampledPoint:
    """One retained time-series observation."""

    timestamp: float
    value: float


class RandomSamplePrimitive(ComputingPrimitive):
    """Bernoulli sampling over a numeric time series.

    Supported query operators:

    * ``"select"`` — params ``start``, ``end`` (optional), ``min_value``
      (optional): the retained points matching the window/predicate.
    * ``"estimate_count"`` — unbiased estimate of the number of stream
      points in a window (retained count divided by the rate).
    * ``"estimate_sum"`` / ``"mean"`` — unbiased sum estimate / plain
      mean of retained values in a window.
    """

    kind = "sample"
    granularity_param = "rate"
    granularity_is_count = False

    def __init__(
        self,
        location: Location,
        rate: float = 0.1,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(location)
        if not 0.0 < rate <= 1.0:
            raise GranularityError(f"sampling rate must be in (0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed)
        self._points: List[SampledPoint] = []

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "RandomSamplePrimitive":
        meta = summary.meta
        return cls(
            meta.location,
            rate=max(summary.attrs["rate"], 1e-9),
            seed=stable_seed(meta.location.path, meta.interval),
        )

    def _load(self, summary: DataSummary) -> None:
        self._points = list(summary.payload)

    def _shrink(self, shrink: float) -> None:
        """The rate, and with it the sample, thins by ``shrink``."""
        self.set_granularity(self.rate * shrink)

    # -- ingest ----------------------------------------------------------

    def _ingest(self, item: Any, timestamp: float) -> None:
        value = float(item)
        if self._rng.random() < self.rate:
            self._points.append(SampledPoint(timestamp, value))

    def _reset(self) -> None:
        self._points = []

    # -- summaries -------------------------------------------------------

    @property
    def points(self) -> List[SampledPoint]:
        """The retained sample, in arrival order."""
        return list(self._points)

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=self.points,
            size_bytes=self.footprint_bytes(),
            attrs={"rate": self.rate},
        )

    def footprint_bytes(self) -> int:
        return _POINT_BYTES * len(self._points)

    # -- queries ---------------------------------------------------------

    def _window(
        self, start: Optional[float], end: Optional[float]
    ) -> List[SampledPoint]:
        selected = self._points
        if start is not None:
            selected = [p for p in selected if p.timestamp >= start]
        if end is not None:
            selected = [p for p in selected if p.timestamp < end]
        return selected

    def query(self, request: QueryRequest) -> Any:
        params = request.params
        window = self._window(params.get("start"), params.get("end"))
        if request.operator == "select":
            min_value = params.get("min_value")
            if min_value is not None:
                window = [p for p in window if p.value >= min_value]
            return window
        if request.operator == "estimate_count":
            return len(window) / self.rate
        if request.operator == "estimate_sum":
            return sum(p.value for p in window) / self.rate
        if request.operator == "mean":
            if not window:
                return None
            return sum(p.value for p in window) / len(window)
        raise ValueError(
            f"sample primitive does not support operator {request.operator!r}"
        )

    # -- combine -----------------------------------------------------------

    def combine(self, other: "ComputingPrimitive") -> None:
        """Concatenate two samples at the coarser of the two rates.

        The finer-sampled series is thinned with probability
        ``coarse/fine`` so both sides represent the stream at the same
        rate and estimates stay unbiased.
        """
        self._check_combinable(other)
        assert isinstance(other, RandomSamplePrimitive)
        target = min(self.rate, other.rate)
        self._points = self._thin(self._points, self.rate, target)
        merged = self._thin(other._points, other.rate, target)
        self._points.extend(merged)
        self._points.sort(key=lambda p: p.timestamp)
        self.rate = target

    def _thin(
        self, points: List[SampledPoint], rate: float, target: float
    ) -> List[SampledPoint]:
        if target >= rate:
            return list(points)
        keep = target / rate
        return [p for p in points if self._rng.random() < keep]

    # -- granularity / adaptation -------------------------------------------

    def set_granularity(self, granularity: float) -> None:
        """Set the sampling rate directly (granularity == probability).

        Lowering the rate retroactively thins the retained sample so the
        summary stays consistent with the new rate.
        """
        if not 0.0 < granularity <= 1.0:
            raise GranularityError(
                f"sampling rate must be in (0, 1], got {granularity}"
            )
        if granularity < self.rate:
            self._points = self._thin(self._points, self.rate, granularity)
        self.rate = granularity

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Track the rate queries need, bounded by storage pressure.

        With a requested granularity of ``g`` seconds between points and
        an observed ingest rate ``r`` points/second, a rate of
        ``1/(g*r)`` retains roughly one point per requested interval.
        Storage pressure (0..1) scales the rate down proportionally.
        """
        rate = self.rate
        if feedback.requested_granularity and feedback.ingest_rate > 0:
            wanted = 1.0 / (feedback.requested_granularity * feedback.ingest_rate)
            rate = min(1.0, wanted)
        if feedback.storage_pressure > 0:
            rate *= max(0.0, 1.0 - feedback.storage_pressure)
        rate = min(1.0, max(rate, 1e-6))
        self.set_granularity(rate)
