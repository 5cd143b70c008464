"""Tests for ski-rental replication policies, the predictor, and engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowtree import FlowtreePrimitive
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.errors import ReplicationError
from repro.hierarchy.network import NetworkFabric
from repro.hierarchy.topology import network_monitoring_hierarchy
from repro.replication.engine import (
    AdaptiveReplicationEngine,
    offline_optimal_cost,
    simulate_policy_on_trace,
)
from repro.replication.predictor import AccessPredictor
from repro.replication.ski_rental import (
    AlwaysReplicate,
    BreakEvenPolicy,
    CountThresholdPolicy,
    DistributionAwarePolicy,
    NeverReplicate,
    PartitionAccessState,
    PercentThresholdPolicy,
    RandomizedSkiRental,
)
from repro.simulation.querytrace import (
    AccessEvent,
    QueryTraceConfig,
    QueryTraceGenerator,
)


def state(partition_bytes=1000, shipped=0, accesses=0):
    s = PartitionAccessState("p", partition_bytes=partition_bytes)
    s.shipped_bytes = shipped
    s.access_count = accesses
    return s


class TestPolicies:
    def test_never_always(self):
        assert not NeverReplicate().should_replicate(state(shipped=10**9))
        assert AlwaysReplicate().should_replicate(state())

    def test_count_threshold(self):
        policy = CountThresholdPolicy(3)
        assert not policy.should_replicate(state(accesses=2))
        assert policy.should_replicate(state(accesses=3))
        with pytest.raises(ReplicationError):
            CountThresholdPolicy(0)

    def test_percent_threshold(self):
        policy = PercentThresholdPolicy(50.0)
        assert not policy.should_replicate(state(shipped=499))
        assert policy.should_replicate(state(shipped=500))

    def test_break_even(self):
        policy = BreakEvenPolicy()
        assert not policy.should_replicate(state(shipped=999))
        assert policy.should_replicate(state(shipped=1000))

    def test_randomized_threshold_in_range(self):
        policy = RandomizedSkiRental(seed=1)
        for i in range(50):
            fraction = policy._threshold_fraction(f"p{i}")
            assert 0.0 <= fraction <= 1.0
        # threshold is sticky per partition
        assert policy._threshold_fraction("p0") == (
            policy._threshold_fraction("p0")
        )

    def test_distribution_aware_falls_back_to_break_even(self):
        policy = DistributionAwarePolicy(min_observations=5)
        assert not policy.should_replicate(state(shipped=999))
        assert policy.should_replicate(state(shipped=1000))

    def test_distribution_aware_never_buys_for_tiny_demands(self):
        policy = DistributionAwarePolicy(min_observations=3)
        for _ in range(20):
            policy.observe_completed(10)  # demand << cost (1000)
        assert policy.optimal_threshold(1000) == float("inf")
        assert not policy.should_replicate(state(shipped=900))

    def test_distribution_aware_buys_early_for_huge_demands(self):
        policy = DistributionAwarePolicy(min_observations=3)
        for _ in range(20):
            policy.observe_completed(100_000)  # demand >> cost
        threshold = policy.optimal_threshold(1000)
        assert threshold < 100_000
        assert policy.should_replicate(
            state(partition_bytes=1000, shipped=int(threshold) + 1)
        )


@settings(max_examples=60, deadline=None)
@given(
    results=st.lists(
        st.integers(min_value=1, max_value=2000), min_size=1, max_size=50
    ),
    cost=st.integers(min_value=100, max_value=5000),
)
def test_break_even_is_2_competitive(results, cost):
    """On any single-partition sequence, break-even pays <= 2x OPT + one
    result (the access that crosses the threshold)."""
    trace = [
        AccessEvent(float(i), "p", result) for i, result in enumerate(results)
    ]
    costs = simulate_policy_on_trace(trace, BreakEvenPolicy(), cost)
    optimal = offline_optimal_cost(trace, cost)
    assert costs.total_bytes <= 2 * optimal + max(results)


class TestTraceSimulation:
    @pytest.fixture()
    def trace(self):
        return QueryTraceGenerator(
            QueryTraceConfig(
                partitions=150,
                partition_bytes=5_000_000,
                mean_result_bytes=800_000,
            ),
            seed=5,
        ).trace()

    def test_never_cost_is_pure_shipping(self, trace):
        costs = simulate_policy_on_trace(trace, NeverReplicate(), 5_000_000)
        assert costs.replication_bytes == 0
        assert costs.shipped_bytes == sum(e.result_bytes for e in trace)

    def test_always_cost_is_one_ship_plus_copy_each(self, trace):
        costs = simulate_policy_on_trace(trace, AlwaysReplicate(), 5_000_000)
        partitions = len({e.partition_id for e in trace})
        assert costs.replications == partitions
        assert costs.accesses_served_locally == len(trace) - partitions

    def test_offline_optimal_is_lower_bound(self, trace):
        optimal = offline_optimal_cost(trace, 5_000_000)
        for policy in (
            NeverReplicate(),
            AlwaysReplicate(),
            BreakEvenPolicy(),
            CountThresholdPolicy(3),
            PercentThresholdPolicy(50),
            RandomizedSkiRental(seed=2),
            DistributionAwarePolicy(),
        ):
            costs = simulate_policy_on_trace(trace, policy, 5_000_000)
            assert costs.total_bytes >= optimal

    def test_break_even_bound_on_full_trace(self, trace):
        optimal = offline_optimal_cost(trace, 5_000_000)
        costs = simulate_policy_on_trace(trace, BreakEvenPolicy(), 5_000_000)
        # per-partition overshoot is bounded by one result; globally a
        # little slack over 2x
        assert costs.competitive_ratio(optimal) < 2.5

    def test_adaptive_beats_naive_heuristics(self, trace):
        adaptive = simulate_policy_on_trace(
            trace, DistributionAwarePolicy(), 5_000_000
        )
        always = simulate_policy_on_trace(trace, AlwaysReplicate(), 5_000_000)
        count3 = simulate_policy_on_trace(
            trace, CountThresholdPolicy(3), 5_000_000
        )
        assert adaptive.total_bytes < always.total_bytes
        assert adaptive.total_bytes < count3.total_bytes

    def test_per_partition_sizes(self, trace):
        sizes = {e.partition_id: 1_000_000 for e in trace}
        costs = simulate_policy_on_trace(
            trace, BreakEvenPolicy(), 5_000_000, partition_sizes=sizes
        )
        # smaller partitions are cheaper to buy: more replications
        base = simulate_policy_on_trace(trace, BreakEvenPolicy(), 5_000_000)
        assert costs.replications > base.replications


class TestPredictor:
    def test_lifecycle(self):
        predictor = AccessPredictor(completion_timeout=100.0)
        predictor.record_access("p1", 500, time=0.0)
        predictor.record_access("p1", 300, time=10.0)
        assert predictor.spent("p1") == 800
        assert predictor.expected_remaining("p1") is None  # no history yet
        finished = predictor.sweep(now=200.0)
        assert finished == ["p1"]
        assert predictor.completed_demands == [800]

    def test_conditional_expectation(self):
        predictor = AccessPredictor(completion_timeout=1.0)
        for demand in (100, 200, 300, 400):
            predictor.record_access(f"p{demand}", demand, time=0.0)
        predictor.sweep(now=10.0)
        predictor.record_access("live", 150, time=20.0)
        # demands above 150: 200, 300, 400 -> E[remaining] = mean(50,150,250)
        assert predictor.expected_remaining("live") == pytest.approx(150.0)

    def test_exceed_probability(self):
        predictor = AccessPredictor(completion_timeout=1.0)
        for demand in (100, 200, 300, 400):
            predictor.record_access(f"p{demand}", demand, time=0.0)
        predictor.sweep(now=10.0)
        predictor.record_access("live", 150, time=20.0)
        assert predictor.exceed_probability("live", 250) == pytest.approx(
            2 / 3
        )

    def test_unseen_partition(self):
        predictor = AccessPredictor()
        assert predictor.spent("ghost") == 0
        assert predictor.exceed_probability("ghost", 10) == 0.0


class TestEngineWithStores:
    def test_engine_replicates_after_break_even(self, policy, random_flows):
        hierarchy = network_monitoring_hierarchy(
            regions=2, routers_per_region=1
        )
        fabric = NetworkFabric(hierarchy)
        producer_loc = Location("cloud/network/region1/router1")
        consumer_loc = Location("cloud/network/region2/router1")
        producer = DataStore(
            producer_loc, RoundRobinStorage(10**8), fabric=fabric
        )
        consumer = DataStore(
            consumer_loc, RoundRobinStorage(10**8), fabric=fabric
        )
        producer.install_aggregator(
            Aggregator("ft", FlowtreePrimitive(producer_loc, policy))
        )
        for record in random_flows(100):
            producer.ingest("flows", record, record.first_seen)
        producer.close_epoch(60.0)
        partition = producer.catalog.all()[0]
        engine = AdaptiveReplicationEngine(BreakEvenPolicy())
        chunk = partition.size_bytes // 3 + 1
        replicated = []
        for i in range(4):
            replicated.append(
                engine.on_remote_access(
                    producer, consumer, partition.partition_id, chunk,
                    now=70.0 + i,
                )
            )
        assert replicated == [False, False, True, False]
        assert len(consumer.replicas) == 1
        assert engine.replication_bytes == partition.size_bytes
        assert engine.outcomes[0].destination == consumer_loc.path

    def test_complete_partition_feeds_policy(self):
        policy_obj = DistributionAwarePolicy(min_observations=1)
        engine = AdaptiveReplicationEngine(policy_obj)
        engine._states["p"] = PartitionAccessState("p", 1000)
        engine._states["p"].record(700)
        engine.complete_partition("p")
        assert policy_obj._history == [700]
