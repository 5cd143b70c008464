"""The adaptive-replication engine and its evaluation harness.

Two entry points:

* :func:`simulate_policy_on_trace` — replay a partition access trace
  (e.g. from :class:`~repro.simulation.querytrace.QueryTraceGenerator`)
  under one policy and total up the cost.  This is what the Figure 6
  benchmark sweeps; :func:`offline_optimal_cost` provides the
  clairvoyant lower bound for competitive ratios, and
  :func:`compare_policies` is the whole table: one trace, its optimum,
  and every default policy's costs.
* :class:`AdaptiveReplicationEngine` — the live integration: watch two
  data stores, record every remote access (Fig. 6 step 1-2), and fire
  :meth:`~repro.datastore.store.DataStore.replicate_partition` when the
  policy says buy (steps 3-4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.datastore.store import DataStore
from repro.replication.ski_rental import (
    PartitionAccessState,
    ReplicationPolicy,
    default_policies,
)
from repro.simulation.querytrace import (
    AccessEvent,
    QueryTraceConfig,
    QueryTraceGenerator,
)


@dataclass
class TraceCosts:
    """Cost breakdown of one policy on one trace (bytes)."""

    policy: str
    shipped_bytes: int = 0
    replication_bytes: int = 0
    replications: int = 0
    accesses: int = 0
    accesses_served_locally: int = 0

    @property
    def total_bytes(self) -> int:
        """Everything that crossed the network."""
        return self.shipped_bytes + self.replication_bytes

    def competitive_ratio(self, optimal_bytes: int) -> float:
        """Cost relative to the offline optimum."""
        if optimal_bytes == 0:
            return 1.0 if self.total_bytes == 0 else float("inf")
        return self.total_bytes / optimal_bytes


def simulate_policy_on_trace(
    trace: Iterable[AccessEvent],
    policy: ReplicationPolicy,
    partition_bytes: int,
    partition_sizes: Optional[Dict[str, int]] = None,
) -> TraceCosts:
    """Replay a time-ordered access trace under one policy.

    Each event is a remote query for one partition.  If the partition is
    already replicated the access is free (served locally); otherwise
    its result bytes are shipped and the policy is consulted.  When a
    partition goes quiet forever, its demand is reported to the policy
    (supporting distribution-aware learning) — detected here simply by
    the trace ending, processed in time order per partition.
    """
    costs = TraceCosts(policy=policy.name)
    states: Dict[str, PartitionAccessState] = {}
    demand: Dict[str, int] = {}
    events = sorted(trace, key=lambda e: (e.time, e.partition_id))
    last_access_index: Dict[str, int] = {}
    for index, event in enumerate(events):
        last_access_index[event.partition_id] = index
    for index, event in enumerate(events):
        size = (
            partition_sizes.get(event.partition_id, partition_bytes)
            if partition_sizes
            else partition_bytes
        )
        state = states.setdefault(
            event.partition_id,
            PartitionAccessState(
                partition_id=event.partition_id, partition_bytes=size
            ),
        )
        costs.accesses += 1
        demand[event.partition_id] = (
            demand.get(event.partition_id, 0) + event.result_bytes
        )
        if state.replicated:
            costs.accesses_served_locally += 1
        else:
            state.record(event.result_bytes)
            costs.shipped_bytes += event.result_bytes
            if policy.should_replicate(state):
                state.replicated = True
                costs.replication_bytes += size
                costs.replications += 1
        if last_access_index[event.partition_id] == index:
            # report the partition's *full* demand — what shipping every
            # access would have cost — so distribution learning is not
            # truncated at the replication point
            policy.observe_completed(demand[event.partition_id])
    return costs


def offline_optimal_cost(
    trace: Iterable[AccessEvent],
    partition_bytes: int,
    partition_sizes: Optional[Dict[str, int]] = None,
) -> int:
    """The clairvoyant optimum: per partition, ``min(total demand, C)``.

    (Replicating before the first access costs exactly ``C``; anything
    in between is dominated by one of the two extremes.)
    """
    demand: Dict[str, int] = {}
    for event in trace:
        demand[event.partition_id] = (
            demand.get(event.partition_id, 0) + event.result_bytes
        )
    total = 0
    for partition_id, total_demand in demand.items():
        size = (
            partition_sizes.get(partition_id, partition_bytes)
            if partition_sizes
            else partition_bytes
        )
        total += min(total_demand, size)
    return total


@dataclass(frozen=True)
class PolicyComparison:
    """Every default policy replayed on one generated trace."""

    trace: List[AccessEvent]
    optimal_bytes: int
    #: one entry per policy, in :func:`default_policies` order
    costs: List[TraceCosts]


def compare_policies(
    config: QueryTraceConfig, trace_seed: int, policy_seed: int
) -> PolicyComparison:
    """The Figure 6 table: draw a trace from ``config`` and replay it
    under every default policy against the offline optimum."""
    trace = QueryTraceGenerator(config, seed=trace_seed).trace()
    size = config.partition_bytes
    return PolicyComparison(
        trace=trace,
        optimal_bytes=offline_optimal_cost(trace, size),
        costs=[
            simulate_policy_on_trace(trace, policy, size)
            for policy in default_policies(seed=policy_seed)
        ],
    )


@dataclass(frozen=True)
class ReplicationOutcome:
    """One replication performed by the live engine."""

    partition_id: str
    origin: str
    destination: str
    time: float
    partition_bytes: int


class AdaptiveReplicationEngine:
    """Live policy enforcement between data stores (Fig. 6 steps 1-4).

    Wire it between a *consumer* store (where queries arrive) and the
    *producer* stores that own the data: call :meth:`on_remote_access`
    after every shipped result (the manager records these), and the
    engine replicates the partition to the consumer when the policy
    fires.
    """

    def __init__(self, policy: ReplicationPolicy) -> None:
        self.policy = policy
        self._states: Dict[str, PartitionAccessState] = {}
        self.outcomes: List[ReplicationOutcome] = []
        self.shipped_bytes = 0
        self.replication_bytes = 0

    def on_remote_access(
        self,
        producer: DataStore,
        consumer: DataStore,
        partition_id: str,
        result_bytes: int,
        now: float,
    ) -> bool:
        """Record a shipped result; maybe replicate.  Returns True when a
        replication was triggered."""
        partition = producer.catalog.get(partition_id)
        state = self._states.setdefault(
            partition_id,
            PartitionAccessState(
                partition_id=partition_id,
                partition_bytes=partition.size_bytes,
            ),
        )
        if state.replicated:
            return False
        state.record(result_bytes)
        self.shipped_bytes += result_bytes
        if not self.policy.should_replicate(state):
            return False
        state.replicated = True
        producer.replicate_partition(partition_id, consumer, now=now)
        self.replication_bytes += partition.size_bytes
        self.outcomes.append(
            ReplicationOutcome(
                partition_id=partition_id,
                origin=producer.location.path,
                destination=consumer.location.path,
                time=now,
                partition_bytes=partition.size_bytes,
            )
        )
        return True

    def complete_partition(self, partition_id: str) -> None:
        """Tell the policy a partition's demand is final."""
        state = self._states.get(partition_id)
        if state is not None:
            self.policy.observe_completed(state.shipped_bytes)

    @property
    def total_bytes(self) -> int:
        """All bytes this engine caused to cross the network."""
        return self.shipped_bytes + self.replication_bytes
