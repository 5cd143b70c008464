"""Tests for the sharded parallel ingest pool and its runtime wiring.

The determinism contract under test: a runtime running with
``parallel=N`` produces *bit-identical* state to the same runtime
running serially — same edge trees (node for node), same root mass, same WAN bytes, same VolumeStats — because each worker
replays the exact serial ingest semantics on its own shard and the
epoch barrier folds the shards back before the unchanged rollup.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaMismatchError
from repro.faults import FaultPlan
from repro.flows.features import Feature
from repro.flows.flowkey import (
    FIVE_TUPLE,
    SRC_DST,
    FeatureSchema,
    GeneralizationPolicy,
)
from repro.flows.records import PacketRecord
from repro.flows.tree import Flowtree
from repro.hierarchy.topology import Hierarchy
from repro.parallel import (
    ParallelIngestConfig,
    ShardedIngestPool,
    SiteShardSpec,
)
from repro.runtime import HierarchyRuntime, LevelConfig, tiered_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

POLICY = GeneralizationPolicy.default_for(FIVE_TUPLE)
SITES = ["region1/router1", "region1/router2", "region2/router1"]


def make_traffic(flows_per_epoch=400, seed=23, sites=tuple(SITES)):
    return TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows_per_epoch),
        seed=seed,
    )


def tree_state(tree):
    return (tree.to_dict(), tree.compressions)


def drive(
    runtime, generator, sites, epochs=2, submissions=1, unit_weight=False
):
    """Ingest + close ``epochs`` epochs; returns comparable state."""
    try:
        for epoch in range(epochs):
            for site in sites:
                records = generator.epoch(site, epoch)
                if unit_weight:
                    records = [
                        replace(r, packets=1, bytes=1) for r in records
                    ]
                step = max(1, len(records) // submissions)
                for lo in range(0, len(records), step):
                    runtime.ingest(site, records[lo:lo + step])
            runtime.close_epoch((epoch + 1) * runtime.epoch_seconds)
        vols = {
            level: {
                k: v
                for k, v in vars(runtime.stats.level(level)).items()
                if not k.endswith("seconds")
            }
            for level in runtime.store_levels()
        }
        return {
            "mass": runtime.query("SELECT TOTAL FROM ALL").scalar,
            "wan": runtime.wan_bytes(),
            "root": tree_state(runtime.db.merged_tree()),
            "vols": vols,
            "epochs": runtime.stats.epochs_closed,
        }
    finally:
        runtime.shutdown()


def shard_state(summary):
    return (summary["tree"], summary["compressions"])


class LowBitsFeature(Feature):
    """A feature with custom masking (keeps *low* bits, not high)."""

    def mask(self, value: int, level: int) -> int:
        if level == 0:
            return 0
        return value & ((1 << level) - 1)


def packet_records(flows):
    return POLICY, [
        PacketRecord(
            key=r.key, bytes=r.bytes, timestamp=r.first_seen,
            sampled_1_in=1 + i % 4,
        )
        for i, r in enumerate(flows)
    ]


def generalized_records(flows):
    return POLICY, [
        replace(r, key=POLICY.key_at(r.key, 1 + i % POLICY.depth))
        for i, r in enumerate(flows)
    ]


def huge_counter_records(flows):
    return POLICY, [
        replace(r, bytes=r.bytes + 2**63 if i % 3 == 0 else r.bytes)
        for i, r in enumerate(flows)
    ]


def custom_mask_records(flows):
    schema = FeatureSchema(
        "custom_mask_pair",
        (LowBitsFeature("a", bits=8), Feature("b", bits=8)),
    )
    rng = random.Random(9)
    return GeneralizationPolicy.default_for(schema), [
        replace(r, key=schema.key(a=rng.randrange(32), b=rng.randrange(32)))
        for r in flows
    ]


class TestPoolStandalone:
    def test_flush_matches_serial_add_many(self, random_flows):
        records = {
            "s1": random_flows(count=300, seed=1),
            "s2": random_flows(count=250, seed=2),
        }
        specs = {site: SiteShardSpec(node_budget=256) for site in records}
        config = ParallelIngestConfig(workers=2)
        with ShardedIngestPool(POLICY, specs, config) as pool:
            for site, batch in records.items():
                pool.submit(site, batch[:170])
                pool.submit(site, batch[170:])
            summaries = pool.flush()
        for site, batch in records.items():
            serial = Flowtree(POLICY, node_budget=256)
            serial.add_many((r.key, r.score()) for r in batch[:170])
            serial.add_many((r.key, r.score()) for r in batch[170:])
            assert shard_state(summaries[site]) == tree_state(serial)
            assert summaries[site]["items"] == len(batch)
            assert summaries[site]["opened_at"] == batch[0].first_seen

    @pytest.mark.parametrize(
        "shape",
        [
            packet_records,
            generalized_records,
            huge_counter_records,
            custom_mask_records,
        ],
        ids=lambda shape: shape.__name__,
    )
    def test_record_shapes_match_serial_add_many(self, random_flows, shape):
        policy, records = shape(random_flows(count=300, seed=6))
        stamp = (
            lambda r: r.timestamp if isinstance(r, PacketRecord)
            else r.first_seen
        )
        specs = {"s1": SiteShardSpec(node_budget=64)}
        with ShardedIngestPool(policy, specs) as pool:
            pool.submit("s1", records[:120])
            pool.submit("s1", records[120:])
            summary = pool.flush()["s1"]
        serial = Flowtree(policy, node_budget=64)
        serial.add_many((r.key, r.score()) for r in records[:120])
        serial.add_many((r.key, r.score()) for r in records[120:])
        assert shard_state(summary) == tree_state(serial)
        assert summary["items"] == len(records)
        assert summary["opened_at"] == stamp(records[0])

    def test_empty_epoch_yields_no_summaries(self):
        specs = {"s1": SiteShardSpec()}
        with ShardedIngestPool(POLICY, specs) as pool:
            assert pool.flush() == {}
            assert pool.epoch == 1

    def test_crash_replay_restores_shard(self, random_flows):
        records = random_flows(count=300, seed=4)
        specs = {"s1": SiteShardSpec(node_budget=256)}
        config = ParallelIngestConfig(workers=1)
        with ShardedIngestPool(
            POLICY, specs, config, crash_points={"s1": [(0, 2)]}
        ) as pool:
            for lo in range(0, len(records), 64):
                pool.submit("s1", records[lo:lo + 64])
            summaries = pool.flush()
            stats = pool.worker_stats()
        serial = Flowtree(POLICY, node_budget=256)
        for lo in range(0, len(records), 64):
            serial.add_many(
                (r.key, r.score()) for r in records[lo:lo + 64]
            )
        assert shard_state(summaries["s1"]) == tree_state(serial)
        assert stats[0].restarts == 1
        assert stats[0].replayed_batches >= 2

    def test_worker_stats_progress(self, random_flows):
        specs = {"s1": SiteShardSpec()}
        with ShardedIngestPool(POLICY, specs) as pool:
            pool.submit("s1", random_flows(count=100, seed=5))
            pool.flush()
            (ws,) = pool.worker_stats()
            assert ws.records_done == 100
            assert ws.records_submitted == 100
            assert ws.busy_seconds > 0
            assert ws.queue_depth == 0

    def test_submit_after_shutdown_rejected(self):
        pool = ShardedIngestPool(POLICY, {"s1": SiteShardSpec()})
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit("s1", [])

    def test_unknown_site_rejected(self, random_flows):
        with ShardedIngestPool(POLICY, {"s1": SiteShardSpec()}) as pool:
            with pytest.raises(KeyError):
                pool.submit("nowhere", random_flows(count=1))


class TestRuntimeParallelEqualsSerial:
    def test_tiered_bit_identical(self):
        serial = drive(
            tiered_runtime(SITES, router_node_budget=512),
            make_traffic(), SITES,
        )
        parallel = drive(
            tiered_runtime(SITES, router_node_budget=512, parallel=2),
            make_traffic(), SITES,
        )
        assert parallel == serial

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        workers=st.integers(min_value=1, max_value=4),
        budget=st.sampled_from([64, 512]),
        flows=st.integers(min_value=50, max_value=400),
    )
    @settings(max_examples=6, deadline=None)
    def test_random_configs_bit_identical(self, seed, workers, budget, flows):
        sites = SITES[: 1 + seed % 3]
        serial = drive(
            tiered_runtime(sites, router_node_budget=budget),
            make_traffic(flows, seed, sites), sites,
            submissions=1 + seed % 3,
        )
        parallel = drive(
            tiered_runtime(sites, router_node_budget=budget, parallel=workers),
            make_traffic(flows, seed, sites), sites,
            submissions=1 + seed % 3,
        )
        assert parallel == serial

    def test_unit_weight_trace_bit_identical(self):
        """Every leaf ties on popularity, so each fold is decided by the
        tie-break alone — and a shard that crossed the process boundary
        through ``to_dict`` folds like the tree that never left."""
        serial = drive(
            tiered_runtime(SITES, router_node_budget=64),
            make_traffic(), SITES, submissions=2, unit_weight=True,
        )
        parallel = drive(
            tiered_runtime(SITES, router_node_budget=64, parallel=2),
            make_traffic(), SITES, submissions=2, unit_weight=True,
        )
        assert parallel == serial

    def test_crash_mid_epoch_still_bit_identical(self):
        serial = drive(
            tiered_runtime(SITES, router_node_budget=512),
            make_traffic(), SITES, submissions=3,
        )
        faults = FaultPlan.from_spec("crash=region1/router2:1:1")
        runtime = tiered_runtime(
            SITES, router_node_budget=512, parallel=2, faults=faults
        )
        crashed = drive(runtime, make_traffic(), SITES, submissions=3)
        assert crashed == serial

    def test_bad_record_rejected_before_it_costs_an_epoch(self, random_flows):
        """A record serial ingest rejects is rejected at ``ingest`` on
        the pooled path too, so no worker ever sees it and every other
        site's epoch still ships."""
        sites = ["r1/a", "r1/b"]
        good = random_flows(count=10, seed=8)
        bad = replace(good[0], key=SRC_DST.key(src_ip=1, dst_ip=2))

        def wan(parallel):
            runtime = tiered_runtime(sites, parallel=parallel)
            try:
                runtime.ingest("r1/a", good)
                with pytest.raises(SchemaMismatchError):
                    runtime.ingest("r1/b", [bad])
                runtime.close_epoch(60.0)
                return runtime.wan_bytes()
            finally:
                runtime.shutdown()

        serial = wan(None)
        assert serial > 0
        assert wan(2) == serial

    def test_crash_increments_restart_metric(self):
        faults = FaultPlan.from_spec("crash=region1/router1:0")
        runtime = tiered_runtime(SITES, parallel=3, faults=faults)
        try:
            generator = make_traffic()
            for site in SITES:
                runtime.ingest(site, generator.epoch(site, 0))
            runtime.close_epoch(60.0)
            restarts = {
                ws.worker: ws.restarts
                for ws in runtime._pool.worker_stats()
            }
            assert sum(restarts.values()) == 1
            snap = runtime.obs.registry.snapshot()
            series = snap["repro_parallel_worker_restarts_total"]["series"]
            assert sum(entry["value"] for entry in series) == 1
        finally:
            runtime.shutdown()


class TestOptOutAndWiring:
    def test_parallel_off_never_forks(self):
        runtime = tiered_runtime(SITES)
        try:
            generator = make_traffic()
            for site in SITES:
                runtime.ingest(site, generator.epoch(site, 0))
            assert runtime.parallel_config is None
            assert runtime._pool is None
        finally:
            runtime.shutdown()

    def test_level_config_opt_out(self):
        hierarchy = Hierarchy.from_site_paths(
            SITES, level_names=["region", "router"]
        )
        runtime = HierarchyRuntime(
            hierarchy,
            {
                "router": LevelConfig(
                    aggregator="flowtree", node_budget=512, parallel=False
                ),
                "region": LevelConfig(aggregator="flowtree"),
            },
            parallel=2,
        )
        try:
            generator = make_traffic()
            for site in SITES:
                runtime.ingest(site, generator.epoch(site, 0))
            # the level opted out: no site is pooled, no worker forked
            assert runtime._pool_aggs == {}
            assert runtime._pool is None
        finally:
            runtime.shutdown()

    def test_pool_is_lazy_and_context_managed(self):
        with tiered_runtime(SITES, parallel=2) as runtime:
            assert runtime._pool is None
            runtime.ingest("region1/router1", make_traffic().epoch(SITES[0], 0))
            assert runtime._pool is not None
            pool = runtime._pool
        assert runtime._pool is None
        assert pool._closed


class TestCLI:
    def test_run_with_workers(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--epochs", "1",
                "--flows-per-epoch", "120",
                "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worker 0:" in out
        assert "worker 1:" in out

    def test_run_workers_matches_serial_wan(self, capsys):
        from repro.cli import main

        main(["run", "--epochs", "1", "--flows-per-epoch", "120"])
        serial = capsys.readouterr().out
        main(
            [
                "run",
                "--epochs", "1",
                "--flows-per-epoch", "120",
                "--workers", "2",
            ]
        )
        parallel = capsys.readouterr().out
        line = next(l for l in serial.splitlines() if "volume:" in l)
        assert line in parallel
