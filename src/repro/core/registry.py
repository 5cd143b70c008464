"""Primitive registry: how the Manager turns an application requirement
("I need a histogram at 60 s bins of stream X at location Y") into an
installed aggregator, and how a data store finds the class that reads
a stored summary back.

The registry maps kind names to
:class:`~repro.core.primitive.ComputingPrimitive` classes; it is the
only kind table.  A class builds itself from the
target :class:`~repro.core.summary.Location` plus the requirement's
configuration dict (``from_config``), rebuilds itself from a stored
summary (``from_summary``) and coarsens a run of its summaries
(``coarsen``).  :func:`default_registry` is the process's table: a
custom kind registered there is created, queried and compacted like
the shipped ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, Type

from repro.core.flowtree import FlowtreePrimitive
from repro.core.heavy_hitters import HeavyHitterPrimitive
from repro.core.hhh_primitive import HierarchicalHeavyHitterPrimitive
from repro.core.primitive import ComputingPrimitive
from repro.core.quantiles import QuantilePrimitive
from repro.core.rawstore import RawStorePrimitive
from repro.core.reservoir import ReservoirPrimitive
from repro.core.sampling import RandomSamplePrimitive
from repro.core.sketches import CountMinPrimitive
from repro.core.summary import Location
from repro.core.timebin import TimeBinStatistics
from repro.errors import PlacementError


class PrimitiveRegistry:
    """A kind name → primitive class mapping with helpful failure modes."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type[ComputingPrimitive]] = {}

    def register(self, cls: Type[ComputingPrimitive]) -> None:
        """Register a class under its ``kind``; re-registration replaces."""
        self._classes[cls.kind] = cls

    def kinds(self) -> Iterable[str]:
        """All registered kind names."""
        return sorted(self._classes)

    def class_of(self, kind: str) -> Type[ComputingPrimitive]:
        """The class registered for ``kind``."""
        cls = self._classes.get(kind)
        if cls is None:
            raise PlacementError(
                f"no computing primitive registered for kind {kind!r}; "
                f"known kinds: {list(self.kinds())}"
            )
        return cls

    def create(
        self, kind: str, location: Location, config: dict
    ) -> ComputingPrimitive:
        """Instantiate a primitive of ``kind`` at ``location``."""
        return self.class_of(kind).from_config(location, config)


_DEFAULT = PrimitiveRegistry()
for _cls in (
    RandomSamplePrimitive,
    TimeBinStatistics,
    HeavyHitterPrimitive,
    CountMinPrimitive,
    ReservoirPrimitive,
    FlowtreePrimitive,
    HierarchicalHeavyHitterPrimitive,
    RawStorePrimitive,
    QuantilePrimitive,
):
    _DEFAULT.register(_cls)


def default_registry() -> PrimitiveRegistry:
    """The process's registry: every primitive shipped by the library,
    plus any kind registered on it since."""
    return _DEFAULT
