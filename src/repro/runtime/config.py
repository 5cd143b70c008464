"""Per-level configuration for the hierarchy runtime.

A :class:`~repro.runtime.runtime.HierarchyRuntime` provisions one data
store per hierarchy node; a :class:`LevelConfig` describes every store
at one *level* of the hierarchy: which aggregator kind it runs, the
primitive's granularity (node budget), the storage strategy and its
capacity, the privacy guard applied at that level's trust boundary, and
the level's export policy.  The paper's settings become pure
configuration — the flat Figure 5 system, the tiered Figure 2b variant,
and the full 4-level Figure 1 topologies all use the same runtime with
different level tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.datastore.storage import RoundRobinStorage, StorageStrategy
from repro.errors import PlacementError

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datastore.privacy import PrivacyGuard

#: Export policies: ``auto`` rolls summaries up to the nearest ancestor
#: store (or into FlowDB at the root when there is none); ``none`` keeps
#: every partition local — the store still cuts epochs, but nothing
#: leaves the level (the scenario harnesses, whose applications read the
#: stores directly, use this).
EXPORT_AUTO = "auto"
EXPORT_NONE = "none"
_EXPORT_POLICIES = (EXPORT_AUTO, EXPORT_NONE)


@dataclass
class LevelConfig:
    """How one hierarchy level's data stores are provisioned and run.

    ``aggregator`` is a primitive kind from the registry (``None``
    provisions a bare store whose aggregators are installed later, e.g.
    by applications through the Manager).  ``node_budget`` is the
    Flowtree granularity knob, and live state: the runtime's adaptive
    cycle writes its resizes back here, so stores provisioned later at
    the level match.  ``config`` carries extra constructor
    arguments for non-Flowtree kinds.  ``storage`` overrides the default
    :class:`RoundRobinStorage` built from ``storage_bytes``.
    ``retain_partitions`` decides whether a store that forwards its
    summary to a parent also keeps the epoch partition in its own
    catalog (interior tiers usually do; pure edge forwarders do not).
    """

    aggregator: Optional[str] = "flowtree"
    aggregator_name: Optional[str] = None
    node_budget: Optional[int] = 8192
    config: Dict = field(default_factory=dict)
    storage_bytes: int = 256 * 1024 * 1024
    storage: Optional[Callable[[], StorageStrategy]] = None
    privacy: Optional["PrivacyGuard"] = None
    export: str = EXPORT_AUTO
    retain_partitions: bool = True

    def __post_init__(self) -> None:
        if self.export not in _EXPORT_POLICIES:
            raise PlacementError(
                f"unknown export policy {self.export!r}; "
                f"known: {list(_EXPORT_POLICIES)}"
            )
        if self.storage is None and self.storage_bytes <= 0:
            raise PlacementError(
                f"storage_bytes must be positive, got {self.storage_bytes}"
            )

    @property
    def resolved_aggregator_name(self) -> str:
        """The installed aggregator's name (defaults to its kind)."""
        return self.aggregator_name or self.aggregator or "flowtree"

    def make_storage(self) -> StorageStrategy:
        """A fresh storage strategy for one store at this level."""
        if self.storage is not None:
            return self.storage()
        return RoundRobinStorage(self.storage_bytes)
