"""Count-Min sketch: fixed-size frequency estimation.

Another of Section V's "existing methods".  The Count-Min sketch answers
point frequency queries with one-sided error (always overestimates, by
at most ``eps * total`` with probability ``1 - delta``), and merges by
cell-wise addition — making it a natural building block for combinable
summaries when the key universe is too large for per-key counters.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any, Hashable, List, Optional

from repro.errors import GranularityError, SchemaMismatchError
from repro.core.primitive import (
    AdaptationFeedback,
    ComputingPrimitive,
    QueryRequest,
)
from repro.core.summary import DataSummary, Location

_CELL_BYTES = 8
_MERSENNE_PRIME = (1 << 61) - 1


class CountMinSketch:
    """A ``depth x width`` Count-Min sketch with pairwise-independent
    hashing.

    Construct either from explicit dimensions or from accuracy targets
    via :meth:`from_error`.
    """

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if width < 1 or depth < 1:
            raise GranularityError(
                f"sketch dimensions must be positive, got {width}x{depth}"
            )
        self.width = width
        self.depth = depth
        self.seed = seed
        rng = random.Random(seed)
        self._hash_params = [
            (rng.randrange(1, _MERSENNE_PRIME), rng.randrange(_MERSENNE_PRIME))
            for _ in range(depth)
        ]
        self._cells: List[List[float]] = [[0.0] * width for _ in range(depth)]
        self.total = 0.0

    @classmethod
    def from_error(
        cls, eps: float, delta: float, seed: int = 0
    ) -> "CountMinSketch":
        """Dimension the sketch for error ``eps`` at confidence
        ``1 - delta`` (standard ``w = ceil(e/eps)``, ``d = ceil(ln 1/delta)``)."""
        if not 0 < eps < 1 or not 0 < delta < 1:
            raise GranularityError(
                f"eps and delta must be in (0, 1), got {eps}, {delta}"
            )
        width = math.ceil(math.e / eps)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=max(1, depth), seed=seed)

    def _row_index(self, row: int, item: Hashable) -> int:
        # a digest of the item, not ``hash()``: a str's hash is salted
        # per process, and a sketch must answer (and merge) in another
        a, b = self._hash_params[row]
        code = zlib.crc32(repr(item).encode())
        return ((a * code + b) % _MERSENNE_PRIME) % self.width

    def add(self, item: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` occurrences of ``item``."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        self.total += weight
        for row in range(self.depth):
            self._cells[row][self._row_index(row, item)] += weight

    def estimate(self, item: Hashable) -> float:
        """Point frequency estimate (never underestimates)."""
        return min(
            self._cells[row][self._row_index(row, item)]
            for row in range(self.depth)
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Cell-wise addition; dimensions and seeds must match."""
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.seed != other.seed
        ):
            raise SchemaMismatchError(
                "cannot merge Count-Min sketches with different shapes/seeds"
            )
        for row in range(self.depth):
            mine, theirs = self._cells[row], other._cells[row]
            for column in range(self.width):
                mine[column] += theirs[column]
        self.total += other.total

    def footprint_bytes(self) -> int:
        """Approximate memory footprint."""
        return _CELL_BYTES * self.width * self.depth


class CountMinPrimitive(ComputingPrimitive):
    """Count-Min wrapped as a computing primitive.

    Supported query operators: ``"count"`` (param ``item``), ``"total"``.
    Granularity is the sketch width (a budget, adjustable only between
    epochs because cells cannot be re-hashed in place).
    """

    kind = "count_min"
    granularity_param = "width"

    def __init__(
        self,
        location: Location,
        width: int = 1024,
        depth: int = 4,
        seed: int = 0,
        weight_of=None,
    ) -> None:
        super().__init__(location)
        self._weight_of = weight_of
        self._pending_width: Optional[int] = None
        self.sketch = CountMinSketch(width=width, depth=depth, seed=seed)

    @classmethod
    def empty_like(cls, summary: DataSummary) -> "CountMinPrimitive":
        sketch = summary.payload
        return cls(
            summary.meta.location,
            width=sketch.width,
            depth=sketch.depth,
            seed=sketch.seed,
        )

    def _load(self, summary: DataSummary) -> None:
        self.sketch = summary.payload

    def _ingest(self, item: Any, timestamp: float) -> None:
        weight = float(self._weight_of(item)) if self._weight_of else 1.0
        self.sketch.add(item, weight)

    def _reset(self) -> None:
        width = self._pending_width or self.sketch.width
        self._pending_width = None
        self.sketch = CountMinSketch(
            width=width, depth=self.sketch.depth, seed=self.sketch.seed
        )

    def summary(self) -> DataSummary:
        return DataSummary(
            kind=self.kind,
            meta=self.meta(),
            payload=self.sketch,
            size_bytes=self.footprint_bytes(),
            attrs={"width": self.sketch.width, "depth": self.sketch.depth},
        )

    def footprint_bytes(self) -> int:
        return self.sketch.footprint_bytes()

    def query(self, request: QueryRequest) -> Any:
        if request.operator == "count":
            return self.sketch.estimate(request.params["item"])
        if request.operator == "total":
            return self.sketch.total
        raise ValueError(
            f"count-min primitive does not support operator "
            f"{request.operator!r}"
        )

    def combine(self, other: "ComputingPrimitive") -> None:
        self._check_combinable(other)
        assert isinstance(other, CountMinPrimitive)
        self.sketch.merge(other.sketch)

    def set_granularity(self, granularity: float) -> None:
        """Schedule a new width for the next epoch."""
        width = int(granularity)
        if width < 1:
            raise GranularityError(f"width must be >= 1, got {width}")
        self._pending_width = width

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Halve the width next epoch under storage pressure."""
        if feedback.storage_pressure > 0.5 and self.sketch.width > 64:
            self.set_granularity(self.sketch.width // 2)
