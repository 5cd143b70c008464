"""Elastic topology: the mutable, generation-versioned hierarchy seam.

The paper's Sec. V.A self-adaptation claim, made real: the hierarchy is
no longer frozen at construction.  :class:`TopologyModel` is the single
mutable topology source every component consumes, and the ops in
:mod:`repro.elastic.ops` reshape it live — between epoch closes, with
summary migration, pending-export re-homing, and fault-aware delivery —
while the generation counter keeps the query cache and replica store
coherent.
"""

from repro.elastic.model import (
    PendingMigration,
    ReconfigLedger,
    TopologyModel,
)

__all__ = [
    "PendingMigration",
    "ReconfigLedger",
    "TopologyModel",
]
