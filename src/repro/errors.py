"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A flow key or record does not match the expected feature schema."""


class SchemaMismatchError(SchemaError):
    """Two summaries built over different schemas were combined."""


class MalformedSummaryError(ReproError):
    """A serialized summary is not a tree (orphan, duplicate or stray root)."""


class GranularityError(ReproError):
    """An invalid aggregation granularity (mask level, bin size) was given."""


class StorageError(ReproError):
    """A data-store storage operation failed (budget exceeded, missing key)."""


class PartitionNotFoundError(StorageError):
    """A query referenced a partition unknown to the data store."""


class CheckpointError(StorageError):
    """A runtime checkpoint cannot be adopted: torn, mistyped, of a
    foreign version, or cut under a topology this runtime lacks."""


class TriggerError(ReproError):
    """A trigger definition is invalid or references a missing aggregator."""


class RuleConflictError(ReproError):
    """A controller rule conflicts with an already-installed rule."""


class PlacementError(ReproError):
    """The manager could not place a primitive or analytics pipeline."""


class FlowQLSyntaxError(ReproError):
    """The FlowQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class FlowQLPlanningError(ReproError):
    """A parsed FlowQL query could not be mapped onto stored summaries."""


class TransferError(ReproError):
    """A fabric transfer failed on a faulty link (Table I, challenge 2).

    Raised by :meth:`~repro.hierarchy.network.NetworkFabric.transfer`
    when an injected :class:`~repro.faults.FaultPlan` drops the transfer
    or the link is inside an outage window.  Carries enough context for
    retry/recovery layers to account the failure precisely.
    """

    def __init__(
        self,
        message: str,
        origin: str = "",
        destination: str = "",
        link: tuple = (),
        reason: str = "drop",
        at_time: float = 0.0,
        size_bytes: int = 0,
    ) -> None:
        super().__init__(message)
        self.origin = origin
        self.destination = destination
        #: the (upper, lower) path pair of the failing hop
        self.link = link
        #: ``"drop"`` (probabilistic loss) or ``"outage"`` (window)
        self.reason = reason
        self.at_time = at_time
        self.size_bytes = size_bytes


class WireSchemaError(ReproError):
    """A wire envelope could not be decoded (bad version, shape, kind).

    The serving plane speaks a versioned JSON wire schema
    (:mod:`repro.serve.wire`); decoders raise this instead of
    ``KeyError``/``TypeError`` so clients can distinguish protocol
    drift from transport failures.
    """


class ServeError(ReproError):
    """A serving-plane operation failed (boot, transport, protocol)."""


class AdmissionError(ServeError):
    """The gateway refused a request (rate limit or backpressure).

    Carries the server's ``Retry-After`` hint so closed-loop clients
    can back off precisely instead of hammering the gateway.
    """

    def __init__(
        self,
        message: str,
        retry_after_s: float = 1.0,
        reason: str = "admission",
    ) -> None:
        super().__init__(message)
        #: seconds the server asked the client to wait before retrying
        self.retry_after_s = retry_after_s
        #: ``"admission"`` (client over rate) or ``"backpressure"``
        #: (the target node's request queue was full)
        self.reason = reason


class ReplicationError(ReproError):
    """An adaptive-replication operation failed."""


class LineageError(ReproError):
    """A lineage record is inconsistent (unknown parent, cyclic derivation)."""
