"""The networked FlowQL serving plane (``repro serve``).

The paper's hierarchies are *queried from outside*: operators and apps
drill down against whichever node answers cheapest.  This package
turns the in-process query plane into a served one — per-node asyncio
HTTP servers behind an admission-controlled gateway, speaking a
versioned JSON wire schema — while
:class:`~repro.client.FlowQLClient` keeps the programming model
identical to a local call.

* :class:`ServePlane` — boots one :class:`NodeServer` per
  store-bearing node plus a root coordinator and one
  :class:`FlowQLGateway`, on one event loop.
* :class:`FlowQLGateway` — coverage-based routing (from the plans the
  federated planner's query memo keeps), per-client token-bucket
  admission.
* :class:`NodeServer` — bounded queue, backpressure 429s, deadline
  degradation to partial outcomes.
* :mod:`repro.serve.wire` — the versioned envelope every hop speaks.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.gateway import FlowQLGateway
from repro.serve.plane import ServePlane
from repro.serve.server import NodeServer
from repro.serve.wire import (
    WIRE_VERSION,
    decode_outcome,
    encode_outcome,
)

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "FlowQLGateway",
    "ServePlane",
    "NodeServer",
    "WIRE_VERSION",
    "encode_outcome",
    "decode_outcome",
]
