"""The unified hierarchy runtime: one data plane for every depth.

:class:`HierarchyRuntime` provisions data stores over any
:class:`~repro.hierarchy.topology.Hierarchy` from per-level
:class:`LevelConfig` tables and runs the generic epoch rollup (edge →
interior merge → WAN export into FlowDB) with per-hop fabric accounting
in :class:`VolumeStats`.  Every runtime is built by a :mod:`presets
<repro.runtime.presets>` function (Figure 5's flat system, Figure 2b's
tiered one, the paper's 4-level topologies) or by a
:mod:`repro.scenarios` class (the Section II worlds).
"""

from repro.runtime.config import EXPORT_AUTO, EXPORT_NONE, LevelConfig
from repro.runtime.presets import (
    factory_4level_runtime,
    flat_runtime,
    network_4level_runtime,
    tiered_runtime,
)
from repro.runtime.runtime import HierarchyRuntime
from repro.runtime.stats import LevelVolume, VolumeStats

__all__ = [
    "EXPORT_AUTO",
    "EXPORT_NONE",
    "LevelConfig",
    "LevelVolume",
    "VolumeStats",
    "HierarchyRuntime",
    "flat_runtime",
    "tiered_runtime",
    "network_4level_runtime",
    "factory_4level_runtime",
]
