"""repro: a reproduction of "Distributed Mega-Datasets: The Need for
Novel Computing Primitives" (Semmler, Smaragdakis, Feldmann — ICDCS 2019).

The paper is a vision paper; this library *builds the vision*:

* **Computing primitives** (:mod:`repro.core`) — the five-property
  aggregator interface and a library of primitives, from time-binned
  statistics and sketches to the paper's novel, domain-aware Flowtree.
* **Flows and the Flowtree** (:mod:`repro.flows`) — generalized flows
  over maskable features and the self-adjusting tree with the eight
  Table II operators.
* **Data stores** (:mod:`repro.datastore`) — aggregators, the three
  storage strategies, triggers, partitions, and federated queries.
* **Hierarchy and network** (:mod:`repro.hierarchy`) — both Figure 1
  settings and a byte-accounted WAN.
* **Analytics** (:mod:`repro.analytics`) — communication-graph
  analytics and lightweight inference.
* **Control** (:mod:`repro.control`) — controllers with conflict
  resolution and the Manager control plane.
* **Applications** (:mod:`repro.apps`) — predictive maintenance,
  process mining, network trends, traffic matrices, and DDoS
  investigation.
* **FlowDB and FlowQL** (:mod:`repro.flowdb`, :mod:`repro.flowql`) —
  the Figure 5 system (routers → data stores → FlowDB → FlowQL) is
  :func:`~repro.runtime.presets.flat_runtime`; Figure 2b's tiered
  variant is :func:`~repro.runtime.presets.tiered_runtime`.
* **Adaptive replication** (:mod:`repro.replication`) — ski-rental
  policies, access prediction, and the Figure 6 engine.
* **Simulation** (:mod:`repro.simulation`) — stepped workload
  generators standing in for factory sensors, router exports, and the
  enterprise query trace; the factory and network scenarios advance
  their own clocks.

The frozen public API is what this module exports under ``__all__`` —
most programs need only the runtime entry points::

    from repro import TrafficConfig, TrafficGenerator, network_4level_runtime

    rt = network_4level_runtime(regions_per_network=2, routers_per_region=2)
    gen = TrafficGenerator(TrafficConfig(sites=tuple(rt.ingest_sites())))
    for epoch in range(3):
        for site in rt.ingest_sites():
            rt.ingest(site, gen.epoch(site, epoch))
        rt.close_epoch((epoch + 1) * 60.0)
    outcome = rt.query("SELECT TOPK(5) FROM ALL BY bytes")
    print(outcome.rows)            # result access delegates
    print(outcome.plan.describe()) # ...and the routing is attached

Fault tolerance rides on the same surface: build a
:class:`~repro.faults.FaultPlan` (or parse one with
``FaultPlan.from_spec("drop=0.2,seed=7")``), pass it to the runtime or
``rt.inject_faults(plan)``, and exports retry/park/redeliver while
queries degrade honestly (``outcome.degradation`` lists exactly the
unreachable sites).
"""

from repro.core import (
    ComputingPrimitive,
    DataSummary,
    FlowtreePrimitive,
    Location,
    QueryRequest,
    SummaryMeta,
    TimeInterval,
    default_registry,
)
from repro.flows import (
    FIVE_TUPLE,
    FlowKey,
    FlowRecord,
    Flowtree,
    GeneralizationPolicy,
    Score,
)
from repro.datastore import Aggregator, DataStore
from repro.hierarchy import (
    Hierarchy,
    NetworkFabric,
    network_monitoring_hierarchy,
    smart_factory_hierarchy,
)
from repro.client import FlowQLClient
from repro.control import Controller, Manager
from repro.errors import AdmissionError
from repro.faults import FaultPlan, LinkOutage, RetryPolicy
from repro.flowdb import FlowDB
from repro.obs import Observability
from repro.query import Degradation, QueryOutcome, QueryPlan
from repro.runtime import (
    HierarchyRuntime,
    LevelConfig,
    VolumeStats,
    factory_4level_runtime,
    flat_runtime,
    network_4level_runtime,
    tiered_runtime,
)
from repro.replication import (
    AdaptiveReplicationEngine,
    BreakEvenPolicy,
    DistributionAwarePolicy,
)
from repro.scenarios import (
    FactoryScenario,
    NetworkScenario,
)
from repro.serve import ServePlane
from repro.simulation import (
    TrafficConfig,
    TrafficGenerator,
    build_factory,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ComputingPrimitive",
    "QueryRequest",
    "DataSummary",
    "SummaryMeta",
    "TimeInterval",
    "Location",
    "default_registry",
    "FlowtreePrimitive",
    "FIVE_TUPLE",
    "FlowKey",
    "FlowRecord",
    "Flowtree",
    "GeneralizationPolicy",
    "Score",
    "DataStore",
    "Aggregator",
    "Hierarchy",
    "NetworkFabric",
    "smart_factory_hierarchy",
    "network_monitoring_hierarchy",
    "Controller",
    "Manager",
    "FlowDB",
    "HierarchyRuntime",
    "LevelConfig",
    "VolumeStats",
    "flat_runtime",
    "tiered_runtime",
    "network_4level_runtime",
    "factory_4level_runtime",
    "QueryOutcome",
    "QueryPlan",
    "Degradation",
    "FlowQLClient",
    "ServePlane",
    "AdmissionError",
    "FaultPlan",
    "LinkOutage",
    "RetryPolicy",
    "Observability",
    "AdaptiveReplicationEngine",
    "BreakEvenPolicy",
    "DistributionAwarePolicy",
    "TrafficGenerator",
    "TrafficConfig",
    "build_factory",
    "FactoryScenario",
    "NetworkScenario",
]
