"""Crash-restart drills: every epoch boundary is a durability point.

The contract under test: killing the runtime (or one site) at any
epoch boundary and recovering from the storage engine yields the same
root state the uninterrupted run produces — bit-identical trees, 100%
delivered mass, pending exports replayed exactly once.  The drills run
against both engines: :class:`MemoryEngine` recovers from process
memory, :class:`SegmentLogEngine` from an on-disk data directory.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError, StorageError
from repro.faults import FaultPlan, LinkOutage, RestartDrill
from repro.hierarchy.topology import Hierarchy
from repro.runtime import HierarchyRuntime, LevelConfig
from repro.runtime.checkpoint import CHECKPOINT_VERSION, Checkpoint
from repro.runtime.presets import network_4level_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from repro.storage import MemoryEngine, SegmentLogEngine, encode_summary
from repro.storage.segment import MANIFEST_NAME

EPOCHS = 3
FLOWS = 120


def build(storage=None, faults=None, routers=2):
    return network_4level_runtime(
        networks=1,
        regions_per_network=2,
        routers_per_region=routers,
        retain_partitions=True,
        storage=storage,
        faults=faults,
    )


def drive(runtime, epochs=EPOCHS, flows=FLOWS, seed=23):
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows), seed=seed
    )
    for epoch in range(epochs):
        for site in sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * 60.0)
    return runtime


def root_state(runtime):
    return runtime.db.merged_tree().to_dict()


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference run: no faults, default memory engine."""
    runtime = drive(build())
    return {
        "tree": root_state(runtime),
        "wan": runtime.wan_bytes(),
        "mass": runtime.query("SELECT TOTAL FROM ALL").scalar,
    }


def engine_for(kind, tmp_path):
    if kind == "memory":
        return MemoryEngine()
    return SegmentLogEngine(str(tmp_path / "data"))


class TestCrashAtEveryBoundary:
    @pytest.mark.parametrize("kind", ["memory", "segment"])
    @pytest.mark.parametrize("boundary", range(EPOCHS))
    def test_full_runtime_restart(self, kind, boundary, tmp_path,
                                  uninterrupted):
        plan = FaultPlan(restarts=[RestartDrill("cloud", boundary)])
        runtime = drive(build(storage=engine_for(kind, tmp_path),
                              faults=plan))
        assert runtime._restarts == 1
        assert root_state(runtime) == uninterrupted["tree"]
        assert runtime.wan_bytes() == uninterrupted["wan"]
        mass = runtime.query("SELECT TOTAL FROM ALL").scalar
        assert mass == uninterrupted["mass"]  # 100% delivered mass
        assert runtime.pending_exports() == 0

    def test_restart_drill_fires_once(self, tmp_path):
        plan = FaultPlan(restarts=[RestartDrill("cloud", 0)])
        runtime = drive(build(faults=plan))
        runtime.close_epoch((EPOCHS + 1) * 60.0)  # extra boundary
        assert runtime._restarts == 1

    def test_unknown_site_raises(self):
        from repro.errors import PlacementError

        plan = FaultPlan(restarts=[RestartDrill("no/such/site", 0)])
        with pytest.raises(PlacementError):
            drive(build(faults=plan), epochs=1)


SITE = "network1/region1/router1"
PEER = "network1/region1/router2"


def reopen(runtime, now):
    """A new runtime over what the old one left in its engine."""
    engine = runtime.engine
    if engine.durable:
        engine = SegmentLogEngine(engine.data_dir)
    return build(storage=engine)


def restart(runtime, now):
    runtime.restart(now)
    return runtime


def restart_site(runtime, now):
    runtime.restart_site(SITE, now)
    return runtime


class TestThreeDoorsOneRecovery:
    """Open over a data dir, ``restart`` and ``restart_site`` are one
    ``checkpoint.recover``: the same boundary state comes back the same
    behind each, and equals what the never-killed runtime held."""

    DOORS = {door.__name__: door for door in (reopen, restart, restart_site)}

    def boundary(self, storage):
        """Three closes that leave, at ``SITE``: a parked forward (the
        t=180 outage), a delivered id (the t=60 outage, redelivered at
        t=120) and a bought replica; and one planner replica."""
        plan = FaultPlan(
            outages=[LinkOutage(SITE, 1, 2), LinkOutage(SITE, 3, 5)]
        )
        runtime = build(storage=storage, faults=plan)
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=FLOWS), seed=23
        )
        for epoch in range(EPOCHS):
            for site in sites:
                runtime.ingest(site, generator.epoch(site, epoch))
            if epoch == EPOCHS - 1:
                peer = runtime.store_for(PEER)
                bought = peer.catalog.all()[0].partition_id
                for target in (
                    runtime.store_for(SITE), runtime.planner.replica_store
                ):
                    peer.replicate_partition(bought, target, now=130.0)
            runtime.close_epoch((epoch + 1) * 60.0)
        return runtime

    @staticmethod
    def site_state(runtime):
        queue = runtime.pending_queue(SITE)
        replicas = runtime.store_for(SITE).replicas
        return queue.to_state(encode_summary), sorted(
            partition.partition_id for partition in replicas.all()
        )

    @staticmethod
    def planner_replicas(runtime):
        return sorted(
            partition.partition_id
            for partition in runtime.planner.replica_store.replicas.all()
        )

    @pytest.mark.parametrize("kind", ["memory", "segment"])
    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_same_state_behind_every_door(self, door, kind, tmp_path,
                                          uninterrupted):
        live = self.boundary(engine_for(kind, tmp_path))
        held = self.site_state(live)
        held_by_planner = self.planner_replicas(live)
        state, replica_ids = held
        assert [e["export_id"] for e in state["entries"]] == state[
            "queued_ids"
        ] and len(state["entries"]) == 1
        assert len(state["delivered_ids"]) == 1 and len(replica_ids) == 1
        assert len(held_by_planner) == 1

        runtime = self.DOORS[door](live, 180.0)
        assert self.site_state(runtime) == held
        assert self.planner_replicas(runtime) == held_by_planner
        whole = door != "restart_site"
        assert runtime.storage_stats()["recoveries"] == whole
        assert runtime.storage_stats()["restarts"] == (door != "reopen")
        assert runtime.stats.epochs_closed == EPOCHS
        assert runtime._last_close == 180.0
        if whole:
            assert runtime.planner.clock == runtime._last_close
        # each door under its span, recovery always under ``recover``
        tracer = runtime.obs.tracer
        recovered = tracer.last("recover")
        if door != "reopen":
            restart = tracer.last("restart")
            assert restart.attrs == {
                "site": "*" if whole else SITE, "at": 180.0
            }
            (recovered,) = restart.find("recover")
        assert recovered.attrs == {"engine": runtime.engine.name}
        # the parked forward lands exactly once, whichever door
        runtime.inject_faults(None)
        runtime.close_epoch(240.0)
        assert runtime.pending_exports() == 0
        assert root_state(runtime) == uninterrupted["tree"]
        mass = runtime.query("SELECT TOTAL FROM ALL").scalar
        assert mass == uninterrupted["mass"]


class TestCheckpointFormat:
    """The manifest is outside input: adopted typed, or refused typed."""

    def parked(self, tmp_path):
        """One close, router1's forward parked; returns the data dir."""
        data_dir = str(tmp_path / "data")
        plan = FaultPlan(outages=[LinkOutage(SITE, 0, 10)])
        first = drive(build(storage=SegmentLogEngine(data_dir),
                            faults=plan), epochs=1)
        assert first.pending_exports() == 1
        return data_dir

    def test_manifest_carries_version_and_store_paths(self, tmp_path):
        data_dir = self.parked(tmp_path)
        manifest = SegmentLogEngine(data_dir).read_manifest()
        assert manifest["version"] == CHECKPOINT_VERSION
        assert f"cloud/{SITE}" in manifest["stores"]
        checkpoint = Checkpoint.from_manifest(manifest)
        assert checkpoint.to_manifest() == manifest

    @pytest.mark.parametrize(
        "tear",
        [
            lambda m: m.update(version=CHECKPOINT_VERSION + 1),
            lambda m: m.update(pending=[]),
            lambda m: m.pop("epochs_closed"),
            lambda m: m.update(generation="1"),
            lambda m: m.pop("stores"),
            lambda m: next(iter(m["pending"].values()))["entries"][0].pop(
                "export_id"
            ),
            lambda m: m.update(replicas={"cloud": [{"partition_id": "x"}]}),
            lambda m: m.update(budgets={"router": "8192"}),
        ],
        ids=["version", "pending", "epochs_closed", "generation", "stores",
             "export_id", "replica", "budget"],
    )
    def test_torn_or_foreign_manifest_rejected_typed(self, tear, tmp_path):
        manifest = SegmentLogEngine(self.parked(tmp_path)).read_manifest()
        tear(manifest)
        with pytest.raises(CheckpointError):
            Checkpoint.from_manifest(manifest)
        assert issubclass(CheckpointError, StorageError)
        with pytest.raises(CheckpointError):
            Checkpoint.from_manifest([manifest])

    def test_undecodable_summary_rejected_at_recovery(self, tmp_path):
        data_dir = self.parked(tmp_path)
        path = tmp_path / "data" / MANIFEST_NAME
        document = json.loads(path.read_text())
        (state,) = document["runtime"]["pending"].values()
        del state["entries"][0]["summary"]["tree"]
        path.write_text(json.dumps(document))
        torn = path.read_bytes()
        with pytest.raises(CheckpointError, match="undecodable summary"):
            build(storage=SegmentLogEngine(data_dir))
        assert path.read_bytes() == torn  # left as it was found

    def test_reopen_under_the_wrong_topology_is_refused(self, tmp_path):
        """The topology is not durable.  A checkpoint cut after a join
        that parks an export at the joined store must not reopen under
        the preset that lacks it: that used to drop the export silently."""
        data_dir = str(tmp_path / "data")
        joined = "network1/region1/router9"
        first = drive(build(storage=SegmentLogEngine(data_dir)), epochs=1)
        first.site_join(joined)
        first.inject_faults(FaultPlan(outages=[LinkOutage(joined, 1, 9)]))
        records = TrafficGenerator(
            TrafficConfig(sites=(SITE,), flows_per_epoch=FLOWS), seed=5
        ).epoch(SITE, 1)
        first.ingest(joined, records)
        first.close_epoch(120.0)
        assert len(first.pending_queue(joined)) == 1
        manifest = tmp_path / "data" / MANIFEST_NAME
        committed = manifest.read_bytes()

        with pytest.raises(CheckpointError) as refused:
            build(storage=SegmentLogEngine(data_dir))
        message = str(refused.value)
        assert f"cloud/{joined}" in message
        assert "generation 1" in message and "generation 0" in message
        assert manifest.read_bytes() == committed
        # a correctly built runtime still finds the export and lands it
        rebuilt = SegmentLogEngine(data_dir)
        assert f"cloud/{joined}" in Checkpoint.from_manifest(
            rebuilt.read_manifest()
        ).pending

    def test_unknown_store_holding_nothing_is_skipped(self, tmp_path):
        data_dir = str(tmp_path / "data")
        first = drive(build(storage=SegmentLogEngine(data_dir)), epochs=1)
        first.site_join("network1/region1/router9")
        first.close_epoch(120.0)
        reopened = build(storage=SegmentLogEngine(data_dir))
        assert reopened.model.generation == 1
        assert reopened.stats.epochs_closed == 2


class TestNotDurableIsCounted:
    """What a kill would lose for want of a codec is one number."""

    def test_parked_hhh_forward_and_raw_replica(self):
        levels = {
            level: LevelConfig(aggregator="hhh", node_budget=None)
            for level in ("router", "region")
        }
        runtime = HierarchyRuntime(
            Hierarchy.from_site_paths(
                [SITE], level_names=["network", "region", "router"]
            ),
            levels,
            faults=FaultPlan(outages=[LinkOutage(SITE, 1, 2)]),
        )
        assert runtime.storage_stats()["not_durable"] == 0
        runtime.ingest(SITE, TrafficGenerator(
            TrafficConfig(sites=(SITE,), flows_per_epoch=80), seed=11
        ).epoch(SITE, 0))
        runtime.close_epoch(60.0)
        assert runtime.pending_exports() == 1  # an hhh forward: no codec
        assert runtime.storage_stats()["not_durable"] == 1
        snapshot = runtime.obs.registry.snapshot()
        series = snapshot["repro_storage_not_durable"]["series"]
        assert series[0]["value"] == 1
        runtime.close_epoch(120.0)  # landed: nothing left to lose
        assert runtime.storage_stats()["not_durable"] == 0
        # a bought hhh replica is dropped at encode: counted, not silent
        region = runtime.store_for("network1/region1")
        (partition,) = region.catalog.all()
        region.replicate_partition(
            partition.partition_id, runtime.planner.replica_store, now=130.0
        )
        runtime.close_epoch(180.0)
        assert runtime.storage_stats()["not_durable"] == 1


class TestOpenFromDataDir:
    def test_reopen_recovers_everything(self, tmp_path, uninterrupted):
        data_dir = str(tmp_path / "data")
        first = drive(build(storage=SegmentLogEngine(data_dir)))
        closed = first.stats.epochs_closed

        reopened = build(storage=SegmentLogEngine(data_dir))
        assert reopened._recoveries == 1
        assert reopened._recovered_records == len(first.db)
        assert reopened.stats.epochs_closed == closed
        assert root_state(reopened) == uninterrupted["tree"]

    def test_reopen_continues_the_trace(self, tmp_path):
        data_dir = str(tmp_path / "data")
        drive(build(storage=SegmentLogEngine(data_dir)), epochs=2)
        reopened = build(storage=SegmentLogEngine(data_dir))
        drive(reopened, epochs=1)  # one more epoch on top
        # the continued run holds the full history
        continuous = drive(build(), epochs=2)
        assert reopened.stats.epochs_closed == 3
        assert len(reopened.db) > len(continuous.db)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reopen_keeps_adapted_budgets(self, k, tmp_path):
        """With the adaptive cycle on, a reopen at boundary ``k`` resumes
        with the budgets it had, not the configured ones: per-level
        budgets and the root tree equal the uninterrupted run's."""

        def tuned(storage=None):
            runtime = network_4level_runtime(
                1, 2, 2, router_node_budget=128, region_node_budget=128,
                retain_partitions=True, storage=storage,
            )
            runtime.enable_adaptive_budgets()
            return runtime

        def run(runtime, epochs):
            sites = runtime.ingest_sites()
            generator = TrafficGenerator(
                TrafficConfig(sites=tuple(sites), flows_per_epoch=600),
                seed=23,
            )
            for epoch in epochs:
                for site in sites:
                    runtime.ingest(site, generator.epoch(site, epoch))
                runtime.close_epoch((epoch + 1) * 60.0)
            return runtime

        def budgets(runtime):
            return {
                level: config.node_budget
                for level, config in runtime.levels.items()
            }

        whole = run(tuned(), range(4))
        data_dir = str(tmp_path / "data")
        first = run(tuned(SegmentLogEngine(data_dir)), range(k))
        assert budgets(first) != {
            "router": 128, "region": 128, "network": None
        }
        reopened = tuned(SegmentLogEngine(data_dir))
        assert budgets(reopened) == budgets(first)
        for store in reopened.stores_at_level("router").values():
            primitive = store.aggregator("flowtree").primitive
            assert primitive.node_budget == budgets(first)["router"]
        run(reopened, range(k, 4))
        assert budgets(reopened) == budgets(whole)
        assert root_state(reopened) == root_state(whole)

    def test_fresh_dir_has_no_recovery(self, tmp_path):
        runtime = build(storage=SegmentLogEngine(str(tmp_path / "data")))
        assert runtime._recoveries == 0
        assert runtime._recovered_records == 0


class TestPendingReplayDedup:
    """Parked exports survive a restart and replay exactly once."""

    SITE = "network1/region1/router1"

    def run_with(self, storage):
        # outage parks router1's export at the t=60 close; the restart
        # drill at the same boundary wipes and recovers the runtime;
        # the t=120 close (outside the outage) must replay the parked
        # export once — not zero times, not twice
        plan = FaultPlan(
            outages=[LinkOutage(self.SITE, 1, 2)],
            restarts=[RestartDrill("cloud", 0)],
        )
        runtime = drive(build(storage=storage, faults=plan))
        return runtime

    @pytest.mark.parametrize("kind", ["memory", "segment"])
    def test_parked_export_replays_once(self, kind, tmp_path,
                                        uninterrupted):
        runtime = self.run_with(engine_for(kind, tmp_path))
        assert runtime.pending_exports() == 0
        assert runtime.stats.exports_parked == 1
        assert runtime.stats.exports_recovered == 1
        assert runtime.query("SELECT TOTAL FROM ALL").scalar == (
            uninterrupted["mass"]
        )

    def test_pending_queue_persisted_in_manifest(self, tmp_path):
        # crash while an export is still parked: reopening the data
        # dir restores the queue, and the next close drains it
        data_dir = str(tmp_path / "data")
        plan = FaultPlan(outages=[LinkOutage(self.SITE, 0, 10)])
        first = drive(build(storage=SegmentLogEngine(data_dir),
                            faults=plan), epochs=1)
        assert first.pending_exports() == 1

        reopened = build(storage=SegmentLogEngine(data_dir))
        assert reopened.pending_exports() == 1
        queue = reopened.pending_queue(self.SITE)
        assert len(queue) == 1
        drive(reopened, epochs=1, seed=99)  # next close, link restored
        assert reopened.pending_exports() == 0
        assert reopened.stats.exports_recovered == 1


class TestRestartSpecGrammar:
    def test_from_spec(self):
        plan = FaultPlan.from_spec("restart=cloud:2")
        assert plan.restarts == [RestartDrill("cloud", 2)]

    def test_site_with_slashes_and_colons(self):
        plan = FaultPlan.from_spec("restart=network1/region1:0")
        assert plan.restarts[0].site == "network1/region1"

    def test_describe_mentions_restart(self):
        plan = FaultPlan.from_spec("restart=cloud:1")
        assert "restart[cloud]@1" in plan.describe()

    def test_bad_specs_rejected(self):
        from repro.errors import PlacementError

        for spec in ("restart=cloud", "restart=:1", "restart=cloud:-1"):
            with pytest.raises((PlacementError, ValueError)):
                FaultPlan.from_spec(spec)
