"""The computing-primitive interface (Section V.A).

A :class:`ComputingPrimitive` is a streaming aggregator that a data store
instantiates per subscribed stream.  The abstract interface maps the
paper's five design properties onto methods:

=====================================  ==================================
Design property                        Interface
=====================================  ==================================
(1) support arbitrary queries          :meth:`ComputingPrimitive.query`
(2) combinable summaries               :meth:`ComputingPrimitive.combine`
(3) adjustable aggregation granularity :meth:`ComputingPrimitive.set_granularity`
(4) self-adaptation                    :meth:`ComputingPrimitive.adapt`
(5) domain knowledge                   :attr:`ComputingPrimitive.uses_domain_knowledge`
(2) rebuild from a stored summary      :meth:`ComputingPrimitive.from_summary`
(2), (3) coarsen stored summaries      :meth:`ComputingPrimitive.coarsen`
=====================================  ==================================

A kind is one class: it builds itself from a requirement's config
(:meth:`ComputingPrimitive.from_config`), rebuilds itself from a stored
summary and coarsens a run of its own summaries, and the registry
(:mod:`repro.core.registry`) maps kind names to classes.  A rebuilt
primitive that draws randomness seeds it from the summary's
:class:`~repro.core.summary.SummaryMeta` (:func:`stable_seed`), so a
combine or a read is a function of its inputs alone.

Primitives also expose their resource footprint
(:meth:`ComputingPrimitive.footprint_bytes`) because the data store's
storage strategies and the manager's placement decisions are driven by
it.
"""

from __future__ import annotations

import abc
import inspect
import zlib
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import SchemaMismatchError
from repro.core.summary import DataSummary, Location, SummaryMeta, TimeInterval


def stable_seed(*parts: Any) -> int:
    """A seed that is a function of ``parts`` alone, in every process.

    Parts are numbers, strings and tuples of them; never seed from the
    builtin ``hash()`` of a str, which is salted per process.
    """
    return zlib.crc32(repr(parts).encode())


@dataclass(frozen=True)
class QueryRequest:
    """A generic query against a primitive's summary.

    ``operator`` selects among the primitive's supported operations (each
    primitive documents its set); ``params`` carries operator arguments.
    Primitives raise ``ValueError`` for unsupported operators, which is
    how the data store discovers it must route a sub-query elsewhere.
    """

    operator: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AdaptationFeedback:
    """What a primitive learns from its environment between epochs.

    At each close the data store feeds the epoch's ingest rate (items
    per second since the epoch opened) and its storage pressure; only a
    caller adapting a primitive directly sets ``requested_granularity``.
    Primitives re-tune themselves from it (design property 4).  A
    Flowtree's node budget is resized per level by the runtime instead.
    """

    ingest_rate: float = 0.0
    storage_pressure: float = 0.0
    requested_granularity: Optional[float] = None


class ComputingPrimitive(abc.ABC):
    """Base class for all aggregators installed in data stores."""

    #: A short, registry-unique kind name (e.g. ``"flowtree"``).
    kind: str = "abstract"

    #: The config key of the granularity knob (property 3), which an
    #: application's ``precision`` sets; ``None`` when there is none.
    granularity_param: Optional[str] = None

    #: Whether that knob counts whole units (a capacity, a budget).
    granularity_is_count: bool = True

    def __init__(self, location: Location) -> None:
        self.location = location
        self._epoch_start: Optional[float] = None
        self._epoch_end: Optional[float] = None
        self.items_ingested = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def from_config(
        cls, location: Location, config: Dict[str, Any]
    ) -> "ComputingPrimitive":
        """A fresh primitive from a requirement's config dict.

        Each key the constructor takes is passed to it and the rest are
        ignored, so a kind's defaults are its constructor's.
        """
        accepted = inspect.signature(cls).parameters
        return cls(
            location,
            **{key: value for key, value in config.items() if key in accepted},
        )

    @classmethod
    @abc.abstractmethod
    def empty_like(cls, summary: DataSummary) -> "ComputingPrimitive":
        """An empty primitive configured like the one that cut
        ``summary``, at its location, owning all of its state.  A kind
        that draws randomness seeds it with :func:`stable_seed` over
        the summary's location and interval."""

    @classmethod
    def from_summary(cls, summary: DataSummary) -> "ComputingPrimitive":
        """A queryable primitive around a stored summary.

        The payload is borrowed, not copied: the rebuilt primitive is
        read and combined *from*, never ingested into.
        """
        primitive = cls.empty_like(summary)
        primitive._load(summary)
        primitive._epoch_start = summary.meta.interval.start
        primitive._epoch_end = summary.meta.interval.end
        return primitive

    @abc.abstractmethod
    def _load(self, summary: DataSummary) -> None:
        """Take a stored summary's payload as this primitive's state."""

    @classmethod
    def coarsen(
        cls, summaries: Sequence[DataSummary], shrink: float
    ) -> DataSummary:
        """Combine a run of stored summaries (oldest first) into one,
        at ``shrink`` times their footprint (Section IV's hierarchical
        aggregation).

        The inputs are only read.  The output's metadata is the fold of
        theirs.
        """
        primitive = cls.empty_like(summaries[0])
        for summary in summaries:
            # a rebuilt input counts no items, so it combines as "empty"
            # metadata-wise; the fold below is the output's metadata
            primitive.combine(cls.from_summary(summary))
        primitive._shrink(shrink)
        coarse = primitive.summary()
        coarse.meta = reduce(SummaryMeta.combined, [s.meta for s in summaries])
        return coarse

    def _shrink(self, shrink: float) -> None:
        """Cut the footprint to ``shrink`` times, through the kind's
        own knob.  The default keeps everything (no lossless shrink)."""

    # -- ingest --------------------------------------------------------

    def ingest(self, item: Any, timestamp: float) -> None:
        """Feed one stream item into the aggregator."""
        if self._epoch_start is None or timestamp < self._epoch_start:
            self._epoch_start = timestamp
        if self._epoch_end is None or timestamp > self._epoch_end:
            self._epoch_end = timestamp
        self.items_ingested += 1
        self._ingest(item, timestamp)

    @abc.abstractmethod
    def _ingest(self, item: Any, timestamp: float) -> None:
        """Primitive-specific ingest."""

    def ingest_many(self, timed_items: Iterable[Tuple[Any, float]]) -> int:
        """Feed a batch of ``(item, timestamp)`` pairs; returns the count.

        The default just loops :meth:`ingest`.  Primitives with a cheaper
        batched path (amortized budget checks, fewer epoch-bound updates)
        override this — behavior must stay equivalent to the loop.
        """
        count = 0
        for item, timestamp in timed_items:
            self.ingest(item, timestamp)
            count += 1
        return count

    # -- summaries -----------------------------------------------------

    def interval(self) -> TimeInterval:
        """The time span covered by ingested data so far."""
        if self._epoch_start is None:
            return TimeInterval(0.0, 0.0)
        return TimeInterval(self._epoch_start, self._epoch_end)

    def meta(self) -> SummaryMeta:
        """Current summary metadata."""
        return SummaryMeta(interval=self.interval(), location=self.location)

    @abc.abstractmethod
    def summary(self) -> DataSummary:
        """Snapshot the current aggregate as a :class:`DataSummary`.

        The aliasing contract, stated once for every primitive: the
        caller may read the returned payload until the primitive's next
        ingest, combine or granularity change.  Primitives that document
        a stronger guarantee (``FlowtreePrimitive`` returns an
        independent deep copy) may be kept longer; the others hand out
        their live sketch.  Nobody but the primitive may mutate it.
        """

    def reset_epoch(self) -> DataSummary:
        """Seal the current epoch and start a fresh one.

        This is an *ownership transfer*: the returned summary's payload
        is never touched by the primitive again — further ingest lands
        in new state — so the data store may keep it as the epoch's
        partition without copying.  The receiver treats it as read-only.
        Data stores call this at epoch boundaries.
        """
        sealed = self._seal()
        self._epoch_start = None
        self._epoch_end = None
        self.items_ingested = 0
        self._reset()
        return sealed

    def _seal(self) -> DataSummary:
        """The summary :meth:`reset_epoch` hands over.

        The default is :meth:`summary`, which is a transfer as long as
        :meth:`_reset` *replaces* the state it describes rather than
        clearing it in place.
        """
        return self.summary()

    @abc.abstractmethod
    def _reset(self) -> None:
        """Start a new epoch.  State the sealed summary aliases is
        replaced, never cleared in place."""

    # -- the five design properties -------------------------------------

    @abc.abstractmethod
    def query(self, request: QueryRequest) -> Any:
        """Answer a query over the current aggregate (property 1)."""

    @abc.abstractmethod
    def combine(self, other: "ComputingPrimitive") -> None:
        """Merge another primitive's aggregate into this one (property 2).

        Implementations must call :meth:`_check_combinable` first.
        """

    def _check_combinable(self, other: "ComputingPrimitive") -> None:
        if type(other) is not type(self):
            raise SchemaMismatchError(
                f"cannot combine {self.kind!r} with {other.kind!r}"
            )
        if self.items_ingested == 0 or other.items_ingested == 0:
            # an empty summary combines with anything: adopt the other
            # side's metadata wholesale
            if self.items_ingested == 0 and other.items_ingested > 0:
                self._epoch_start = other._epoch_start
                self._epoch_end = other._epoch_end
                self.location = other.location
            self.items_ingested += other.items_ingested
            return
        if not self.meta().combinable_with(other.meta()):
            raise SchemaMismatchError(
                "summaries share neither time nor location: "
                f"{self.meta()} vs {other.meta()}"
            )
        # the combined epoch spans both inputs
        merged = self.meta().combined(other.meta())
        self._epoch_start = merged.interval.start
        self._epoch_end = merged.interval.end
        self.location = merged.location
        self.items_ingested += other.items_ingested

    @abc.abstractmethod
    def set_granularity(self, granularity: float) -> None:
        """Re-target the aggregation granularity (property 3).

        The unit is primitive-specific: bin seconds for time-binned
        statistics, a sampling probability for samplers, a node budget
        for trees.  Implementations document theirs.
        """

    def adapt(self, feedback: AdaptationFeedback) -> None:
        """Self-adapt to the epoch's feedback (property 4).

        The default does nothing; adaptive primitives override it.
        """

    @property
    def uses_domain_knowledge(self) -> bool:
        """Whether aggregation levels are semantic (property 5)."""
        return False

    # -- resources -------------------------------------------------------

    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Approximate in-memory/wire size of the current aggregate."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(location={self.location.path!r}, "
            f"items={self.items_ingested})"
        )
