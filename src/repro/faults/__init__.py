"""Fault injection and recovery primitives (Table I, challenge 2).

The failure model for the hierarchy: :class:`FaultPlan` schedules
deterministic link faults that :class:`~repro.hierarchy.network.
NetworkFabric` consults per hop; :class:`RetryPolicy` bounds the
simulated-clock retry/backoff the runtime wraps around exports; and
:class:`PendingExportQueue` parks exports that exhaust their retries so
they are redelivered on the next epoch close — delayed, never lost.
"""

from repro.faults.pending import PendingExport, PendingExportQueue
from repro.faults.plan import (
    REASON_DROP,
    REASON_OUTAGE,
    FaultPlan,
    LinkOutage,
    ReconfigDrill,
    RestartDrill,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "REASON_DROP",
    "REASON_OUTAGE",
    "FaultPlan",
    "LinkOutage",
    "ReconfigDrill",
    "RestartDrill",
    "PendingExport",
    "PendingExportQueue",
    "RetryPolicy",
]
