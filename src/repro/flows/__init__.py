"""Generalized network flows and the Flowtree data structure.

This package implements the flow model of Section VI of the paper:

* **Features** (:mod:`repro.flows.features`) — typed flow attributes
  (IPv4 address, transport port, protocol) that can each be *generalized*
  by applying a mask, e.g. an IP address generalizes to a prefix.
* **Schemas and keys** (:mod:`repro.flows.flowkey`) — ordered feature sets
  such as the classic 5-tuple, and concrete (possibly generalized) flow
  keys over them.
* **Records** (:mod:`repro.flows.records`) — raw flow/packet observations
  as produced by routers or the traffic simulator.
* **Flowtree** (:mod:`repro.flows.tree`) — the self-adjusting tree of
  generalized flows with the eight operators of Table II (Merge, Compress,
  Diff, Query, Drilldown, Top-k, Above-x, HHH), with one ingest walk,
  :meth:`~repro.flows.tree.Flowtree.add_many`, that every record
  entering a tree takes, as a ``(key, packets, bytes, flows)`` tuple
  (:func:`~repro.flows.tree.counters` builds one from a flow or packet
  record).
"""

from repro.flows.features import (
    Feature,
    IPv4Feature,
    PortFeature,
    ProtocolFeature,
    format_ipv4,
    parse_ipv4,
)
from repro.flows.flowkey import (
    FIVE_TUPLE,
    SRC_DST,
    DST_IP_PORT,
    FeatureSchema,
    FlowKey,
    GeneralizationPolicy,
)
from repro.flows.records import FlowRecord, PacketRecord, Score
from repro.flows.tree import Flowtree, FlowtreeNode, HHHResult

__all__ = [
    "Feature",
    "IPv4Feature",
    "PortFeature",
    "ProtocolFeature",
    "parse_ipv4",
    "format_ipv4",
    "FeatureSchema",
    "FlowKey",
    "GeneralizationPolicy",
    "FIVE_TUPLE",
    "SRC_DST",
    "DST_IP_PORT",
    "FlowRecord",
    "PacketRecord",
    "Score",
    "Flowtree",
    "FlowtreeNode",
    "HHHResult",
]
