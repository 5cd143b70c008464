"""Summary metadata: time intervals, locations, lineage, and the
:class:`DataSummary` envelope.

The paper's combination rule — "each summary represents a single time
interval and a collection of data streams at a single location" and two
summaries combine when they share either the time period or the location
— lives here, as does schema-level lineage (Section III.C): every summary
records which operation produced it from which inputs, so a faulty sensor
can be traced to every summary it contaminated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import LineageError


@dataclass(frozen=True)
class TimeInterval:
    """A half-open interval ``[start, end)`` in simulation seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"interval end {self.end} precedes start {self.start}"
            )

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start

    def contains(self, timestamp: float) -> bool:
        """True if ``timestamp`` falls inside the interval."""
        return self.start <= timestamp < self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """True if the two intervals share any time."""
        return self.start < other.end and other.start < self.end

    def adjacent_to(self, other: "TimeInterval") -> bool:
        """True if one interval starts exactly where the other ends."""
        return self.end == other.start or other.end == self.start

    def union(self, other: "TimeInterval") -> "TimeInterval":
        """The smallest interval covering both (inputs may be disjoint)."""
        return TimeInterval(
            min(self.start, other.start), max(self.end, other.end)
        )

    def __str__(self) -> str:
        return f"[{self.start:g}, {self.end:g})"


@dataclass(frozen=True)
class Location:
    """A position in the physical hierarchy, as a slash-separated path.

    ``Location("factory1/line2/machine3")`` sits below
    ``Location("factory1/line2")``.  The common-ancestor operation is what
    merged summaries use as their combined location.
    """

    path: str

    def __post_init__(self) -> None:
        if not self.path or self.path.startswith("/") or self.path.endswith("/"):
            raise ValueError(f"bad location path {self.path!r}")

    @property
    def parts(self) -> Tuple[str, ...]:
        """The path segments, root first."""
        return tuple(self.path.split("/"))

    @property
    def level(self) -> int:
        """Depth in the hierarchy (the root is level 0)."""
        return len(self.parts) - 1

    @property
    def parent(self) -> Optional["Location"]:
        """The enclosing location, or None at the root."""
        parts = self.parts
        if len(parts) == 1:
            return None
        return Location("/".join(parts[:-1]))

    def is_ancestor_of(self, other: "Location") -> bool:
        """True if ``other`` lies strictly below this location."""
        mine, theirs = self.parts, other.parts
        return len(mine) < len(theirs) and theirs[: len(mine)] == mine

    def common_ancestor(self, other: "Location") -> "Location":
        """The deepest location containing both (root at minimum)."""
        common: List[str] = []
        for a, b in zip(self.parts, other.parts):
            if a != b:
                break
            common.append(a)
        if not common:
            raise ValueError(
                f"locations {self.path!r} and {other.path!r} share no root"
            )
        return Location("/".join(common))

    def child(self, name: str) -> "Location":
        """The location one level below with segment ``name``."""
        return Location(f"{self.path}/{name}")

    def __str__(self) -> str:
        return self.path


_lineage_counter = itertools.count(1)


@dataclass(frozen=True)
class LineageRecord:
    """Schema-level lineage: one transformation step.

    ``operation`` names the transformation (``ingest``, ``merge``,
    ``compress``, ``replicate`` …), ``inputs`` are the lineage ids of the
    consumed summaries (empty for sensor ingest), and ``location`` is
    where the step ran.
    """

    lineage_id: int
    operation: str
    inputs: Tuple[int, ...]
    location: Optional[Location]
    timestamp: float
    detail: str = ""


class LineageLog:
    """An append-only log of lineage records with ancestry queries."""

    def __init__(self) -> None:
        self._records: Dict[int, LineageRecord] = {}

    def record(
        self,
        operation: str,
        inputs: Iterable[int] = (),
        location: Optional[Location] = None,
        timestamp: float = 0.0,
        detail: str = "",
    ) -> LineageRecord:
        """Append a record and return it (its id is globally unique)."""
        input_ids = tuple(inputs)
        for input_id in input_ids:
            if input_id not in self._records:
                raise LineageError(f"unknown lineage input id {input_id}")
        entry = LineageRecord(
            lineage_id=next(_lineage_counter),
            operation=operation,
            inputs=input_ids,
            location=location,
            timestamp=timestamp,
            detail=detail,
        )
        self._records[entry.lineage_id] = entry
        return entry

    def get(self, lineage_id: int) -> LineageRecord:
        """Fetch one record by id."""
        try:
            return self._records[lineage_id]
        except KeyError as exc:
            raise LineageError(f"unknown lineage id {lineage_id}") from exc

    def ancestry(self, lineage_id: int) -> List[LineageRecord]:
        """All records the given one (transitively) derives from,
        including itself, in discovery order."""
        seen: Dict[int, LineageRecord] = {}
        frontier = [lineage_id]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            record = self.get(current)
            seen[current] = record
            frontier.extend(record.inputs)
        return list(seen.values())

    def descendants(self, lineage_id: int) -> List[LineageRecord]:
        """All records that (transitively) derive from the given one.

        This is the "how does faulty data propagate" query of
        Section III.C.
        """
        self.get(lineage_id)
        children: Dict[int, List[int]] = {}
        for record in self._records.values():
            for parent in record.inputs:
                children.setdefault(parent, []).append(record.lineage_id)
        result: List[LineageRecord] = []
        seen = set()
        frontier = list(children.get(lineage_id, []))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            result.append(self.get(current))
            frontier.extend(children.get(current, []))
        return result

    def __len__(self) -> int:
        return len(self._records)


@dataclass(frozen=True)
class SummaryMeta:
    """Where and when a summary comes from, plus its lineage id."""

    interval: TimeInterval
    location: Location
    lineage_id: Optional[int] = None

    def combinable_with(self, other: "SummaryMeta") -> bool:
        """The paper's Merge precondition: shared time or shared location.

        "Shared time" accepts overlapping or adjacent intervals (merging
        hour 1 and hour 2 of the same site is the canonical use)."""
        same_location = self.location == other.location
        shared_time = self.interval.overlaps(
            other.interval
        ) or self.interval.adjacent_to(other.interval)
        return same_location or shared_time

    def combined(self, other: "SummaryMeta") -> "SummaryMeta":
        """Metadata of the merged summary: union interval, common-ancestor
        location."""
        if self.location == other.location:
            location = self.location
        else:
            location = self.location.common_ancestor(other.location)
        return SummaryMeta(
            interval=self.interval.union(other.interval),
            location=location,
        )


@dataclass
class DataSummary:
    """The envelope a primitive hands to the data store.

    ``payload`` is primitive-specific (a Flowtree, a list of sampled
    points, a table of bin statistics …); ``size_bytes`` is the
    approximate wire footprint used for storage budgeting and transfer
    accounting; ``attrs`` carries primitive-specific facts a query planner
    may need (e.g. sampling rate).
    """

    kind: str
    meta: SummaryMeta
    payload: Any
    size_bytes: int
    attrs: Dict[str, Any] = field(default_factory=dict)


# -- which summaries the stores hold -----------------------------------------

#: bumped by every partition catalog and FlowDB index change in the
#: process (see :func:`stores_version`)
_stores_version = 0


def stores_changed() -> None:
    """Note that a catalog or FlowDB index gained, lost or re-homed a
    summary (or was replaced)."""
    global _stores_version
    _stores_version += 1


def stores_version() -> int:
    """A number that moves whenever any store's set of summaries moves.

    A query plan reads nothing but which summaries the stores hold and
    the topology, so a plan made at one version (and generation) is
    still the plan at that version: :class:`~repro.query.memo.QueryMemo`
    keeps plans stamped with it.
    """
    return _stores_version
