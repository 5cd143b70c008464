"""The data store (Section IV, Figure 4).

A data store collects data from sensors/routers, feeds it into
subscribed **aggregators** (instances of computing primitives), stores
the resulting summaries as **partitions** under one of the three storage
strategies, evaluates **triggers** on both raw items and fresh
summaries, and answers queries from its own data.  A store does not
know its peers: reading one store's data on another's behalf (shipping
partials, or answering on a bought replica) is the federated planner's
job (:mod:`repro.query.planner`).
"""

from repro.datastore.partitions import Partition, PartitionCatalog
from repro.datastore.storage import (
    ExpirationStorage,
    HierarchicalStorage,
    RoundRobinStorage,
    StorageStrategy,
)
from repro.datastore.triggers import (
    RawTrigger,
    SummaryTrigger,
    TriggerEngine,
    TriggerFiring,
)
from repro.datastore.aggregator import Aggregator
from repro.datastore.store import DataStore, QueryResult

__all__ = [
    "Partition",
    "PartitionCatalog",
    "StorageStrategy",
    "ExpirationStorage",
    "RoundRobinStorage",
    "HierarchicalStorage",
    "RawTrigger",
    "SummaryTrigger",
    "TriggerEngine",
    "TriggerFiring",
    "Aggregator",
    "DataStore",
    "QueryResult",
]
