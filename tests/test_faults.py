"""The failure model: fault plans, retrying exports, honest degradation.

Table I names unreliable connections as a core challenge of
distributed mega-datasets.  These tests pin the repository's answer:
a deterministic :class:`FaultPlan` consulted by the fabric, bounded
retry/backoff in the rollup with parked-export recovery (delayed,
never lost), and federated queries that return partial answers with an
exact :class:`Degradation` record instead of throwing.
"""

import contextlib
import gc
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summary import Location, TimeInterval
from repro.datastore.privacy import ExportRule, PrivacyGuard, PrivacyPolicy
from repro.datastore.store import DataStore
from repro.errors import PlacementError, SchemaMismatchError, TransferError
from repro.faults import (
    REASON_DROP,
    REASON_OUTAGE,
    FaultPlan,
    LinkOutage,
    PendingExport,
    PendingExportQueue,
    RetryPolicy,
)
from repro.flows.records import Score
from repro.flows.tree import Flowtree
from repro.hierarchy.network import NetworkFabric
from repro.hierarchy.topology import Hierarchy, network_monitoring_hierarchy
from repro.runtime import HierarchyRuntime, LevelConfig
from repro.runtime.presets import network_4level_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

ROUTER1 = "network1/region1/router1"
ROUTER2 = "network1/region2/router1"


def build_runtime(retain_partitions=True, **kwargs):
    return network_4level_runtime(
        networks=1,
        regions_per_network=2,
        routers_per_region=1,
        retain_partitions=retain_partitions,
        **kwargs,
    )


def drive(runtime, epochs=2, flows_per_epoch=80, seed=11, recovery_closes=8):
    """Ingest + close ``epochs`` epochs, then close until pending drains."""
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows_per_epoch),
        seed=seed,
    )
    for epoch in range(epochs):
        for site in sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * 60.0)
    closes = epochs
    while runtime.pending_exports() and closes < epochs + recovery_closes:
        closes += 1
        runtime.close_epoch(closes * 60.0)
    return runtime


def root_total(runtime):
    """The root's view of everything, with faults lifted for the read."""
    runtime.inject_faults(None)
    return runtime.query("SELECT TOTAL FROM ALL").scalar


class TestFaultPlanDeterminism:
    def test_same_seed_same_verdicts(self):
        verdicts = []
        for _ in range(2):
            plan = FaultPlan(seed=7, drop_probability=0.5)
            verdicts.append(
                [plan.failure("a", "b", 0.0) for _ in range(32)]
            )
        assert verdicts[0] == verdicts[1]
        assert REASON_DROP in verdicts[0]
        assert None in verdicts[0]

    def test_links_are_independent(self):
        """Interleaving calls on another link never shifts a link's
        verdict sequence — drops key on the per-link attempt counter."""
        solo = FaultPlan(seed=3, drop_probability=0.5)
        alone = [solo.failure("a", "b", 0.0) for _ in range(16)]
        mixed_plan = FaultPlan(seed=3, drop_probability=0.5)
        mixed = []
        for _ in range(16):
            mixed_plan.failure("x", "y", 0.0)  # unrelated traffic
            mixed.append(mixed_plan.failure("a", "b", 0.0))
        assert alone == mixed

    def test_different_seeds_differ(self):
        a = [
            FaultPlan(seed=s, drop_probability=0.5).failure("a", "b", 0.0)
            for s in range(64)
        ]
        assert len(set(a)) == 2  # both outcomes occur across seeds

    def test_reset_replays_the_schedule(self):
        plan = FaultPlan(seed=9, drop_probability=0.4)
        first = [plan.failure("a", "b", 0.0) for _ in range(8)]
        plan.reset()
        assert [plan.failure("a", "b", 0.0) for _ in range(8)] == first

    def test_validation(self):
        with pytest.raises(PlacementError):
            FaultPlan(drop_probability=1.0)
        with pytest.raises(PlacementError):
            FaultPlan(bandwidth_factor=0.0)
        with pytest.raises(PlacementError):
            LinkOutage("a", 3, 3)


class TestOutageWindows:
    def test_half_open_epoch_window(self):
        plan = FaultPlan(
            outages=[LinkOutage("a", 1, 3)], epoch_seconds=60.0
        )
        assert plan.failure("a", "b", 59.0) is None        # epoch 0
        assert plan.failure("a", "b", 60.0) == REASON_OUTAGE  # epoch 1
        assert plan.failure("a", "b", 179.0) == REASON_OUTAGE  # epoch 2
        assert plan.failure("a", "b", 180.0) is None       # epoch 3

    def test_suffix_matching_names_site_labels(self):
        plan = FaultPlan(
            outages=[LinkOutage("region1/router1", 0, 1)],
            epoch_seconds=60.0,
        )
        assert plan.link_down(
            "cloud/region1", "cloud/region1/router1", 0.0
        )
        assert not plan.link_down(
            "cloud/region1", "cloud/region1/router2", 0.0
        )
        # no accidental substring matches without a path boundary
        assert not plan.link_down(
            "cloud/xregion1", "cloud/xregion1/xrouter1", 0.0
        )

    def test_outage_beats_drop_as_reason(self):
        plan = FaultPlan(
            seed=1,
            drop_probability=0.99,
            outages=[LinkOutage("a", 0, 1)],
            epoch_seconds=60.0,
        )
        assert plan.failure("a", "b", 0.0) == REASON_OUTAGE


class TestBandwidthDegradation:
    def test_scoped_factor_overrides_global(self):
        plan = FaultPlan(
            bandwidth_factor=0.5, bandwidth_factors={"region1": 0.25}
        )
        assert plan.degradation("cloud/region1", "cloud/region1/r1") == 0.25
        assert plan.degradation("cloud/region2", "cloud/region2/r1") == 0.5

    def test_degraded_transfer_is_slower_not_lost(self):
        hierarchy = network_monitoring_hierarchy(
            regions=1, routers_per_region=1
        )
        src = Location("cloud/network/region1/router1")
        dst = Location("cloud/network/region1")
        clean = NetworkFabric(hierarchy)
        fast = clean.transfer(src, dst, 10**6, 0.0)
        slow_fabric = NetworkFabric(
            network_monitoring_hierarchy(regions=1, routers_per_region=1),
            faults=FaultPlan(bandwidth_factor=0.25),
        )
        slow = slow_fabric.transfer(src, dst, 10**6, 0.0)
        assert slow.duration > fast.duration
        assert slow_fabric.total_bytes() == clean.total_bytes()


class TestFromSpec:
    def test_full_spec(self):
        plan = FaultPlan.from_spec(
            "drop=0.2,seed=7,bw=0.5,bw=region1:0.25,"
            "outage=region1/router1:1-3,epoch=30"
        )
        assert plan.drop_probability == 0.2
        assert plan.seed == 7
        assert plan.bandwidth_factor == 0.5
        assert plan.bandwidth_factors == {"region1": 0.25}
        assert plan.outages == [LinkOutage("region1/router1", 1, 3)]
        assert plan.epoch_seconds == 30.0

    def test_describe_round_trips_the_schedule(self):
        plan = FaultPlan.from_spec("drop=0.1,outage=r1:0-2")
        assert "drop=0.1" in plan.describe()
        assert "outage[r1]=0-2" in plan.describe()

    @pytest.mark.parametrize(
        "spec",
        [
            "drop",                 # not key=value
            "drop=lots",            # not a float
            "outage=region1",       # no window
            "outage=r1:3-1",        # empty window
            "teleport=1",           # unknown key
            "drop=1.5",             # out of range
            "epoch=0",              # would fall back to 60 s silently
            "epoch=-60",            # negative epochs: no outage fires
            "epoch=inf",            # every transfer in epoch 0
            "epoch=nan",            # untyped error on the first transfer
            "crash=region1/router1:0",  # unknown key
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(PlacementError):
            FaultPlan.from_spec(spec)

    def test_constructor_rejects_bad_epoch_seconds(self):
        with pytest.raises(PlacementError):
            FaultPlan(epoch_seconds=0.0)
        assert FaultPlan(epoch_seconds=30.0).epoch_of(90.0) == 3


class TestFabricFaultAccounting:
    @pytest.fixture()
    def fabric(self):
        return NetworkFabric(
            network_monitoring_hierarchy(regions=2, routers_per_region=1),
            faults=FaultPlan(
                outages=[LinkOutage("region1", 0, 1)], epoch_seconds=60.0
            ),
        )

    def test_failed_transfer_raises_typed_error(self, fabric):
        src = Location("cloud/network/region1/router1")
        with pytest.raises(TransferError) as excinfo:
            fabric.transfer(src, Location("cloud"), 1000, 0.0)
        error = excinfo.value
        assert error.reason == REASON_OUTAGE
        assert error.origin == src.path
        assert error.size_bytes == 1000

    def test_carried_bytes_count_only_delivered_volume(self, fabric):
        src = Location("cloud/network/region1/router1")
        with pytest.raises(TransferError):
            fabric.transfer(src, Location("cloud"), 1000, 0.0)
        assert fabric.total_bytes() == 0
        assert fabric.wasted_bytes() == 1000
        assert sum(link.failures for link in fabric.links()) == 1
        # after the outage window the same route delivers
        fabric.transfer(src, Location("cloud"), 1000, 60.0)
        assert fabric.total_bytes() == 3000  # one charge per hop
        assert fabric.wasted_bytes() == 1000

    def test_faultless_fabric_accounting_untouched(self):
        fabric = NetworkFabric(
            network_monitoring_hierarchy(regions=1, routers_per_region=1)
        )
        src = Location("cloud/network/region1/router1")
        fabric.transfer(src, Location("cloud"), 500, 0.0)
        assert fabric.wasted_bytes() == 0
        assert sum(link.failures for link in fabric.links()) == 0
        assert sum(link.attempts for link in fabric.links()) == 3


class TestRetryPolicy:
    def test_backoff_schedule_on_simulated_clock(self):
        policy = RetryPolicy(
            max_attempts=3, base_backoff_s=1.0, multiplier=2.0
        )
        assert list(policy.attempt_times(120.0)) == [
            (0, 120.0), (1, 121.0), (2, 123.0)
        ]

    def test_validation(self):
        with pytest.raises(PlacementError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PlacementError):
            RetryPolicy(base_backoff_s=-1.0)


class TestPendingExportQueue:
    def _entry(self, export_id):
        return PendingExport(
            export_id=export_id, kind="flowdb", summary=None, items=0,
            size_bytes=10, origin="o", label=export_id, created_at=0.0,
        )

    def test_fifo_oldest_stays_in_front_until_popped(self):
        """The drain peeks ``entries[0]``, delivers, and pops only once
        the export has landed — a failed redelivery never left."""
        queue = PendingExportQueue()
        assert queue.park(self._entry("a"))
        assert queue.park(self._entry("b"))
        assert queue.entries[0].export_id == "a"
        assert len(queue) == 2  # delivery failed: nothing moved
        assert queue.pop().export_id == "a"
        assert queue.pop().export_id == "b"
        assert queue.pop() is None

    def test_park_dedups_queued_and_delivered(self):
        queue = PendingExportQueue()
        assert queue.park(self._entry("a"))
        assert not queue.park(self._entry("a"))  # already queued
        entry = queue.pop()
        queue.mark_delivered(entry.export_id)
        assert not queue.park(self._entry("a"))  # at-least-once, not twice
        assert len(queue) == 0


class TestPendingQueueState:
    def make_queue(self, policy, make_key, count=3):
        from repro.core.summary import (
            DataSummary, Location, SummaryMeta,
        )
        from repro.faults.pending import PendingExport, PendingExportQueue

        queue = PendingExportQueue()
        for index in range(count):
            tree = Flowtree(policy, node_budget=None)
            tree.add(make_key(dst_port=80 + index), Score(1, 100, 1))
            summary = DataSummary(
                kind="flowtree",
                meta=SummaryMeta(
                    interval=TimeInterval(0.0, 60.0),
                    location=Location("a/r1"),
                ),
                payload=tree,
                size_bytes=1000 + index,
            )
            queue.park(
                PendingExport(
                    export_id=f"exp-{index}",
                    kind="forward",
                    summary=summary,
                    items=10 + index,
                    size_bytes=1000 + index,
                    origin="a/r1",
                    label=f"agg-{index}",
                    created_at=60.0,
                    attempts=index,
                )
            )
        queue.mark_delivered("exp-done")
        return queue

    def roundtrip(self, queue, policy):
        from repro.faults.pending import PendingExportQueue
        from repro.storage import decode_summary, encode_summary

        state = json.loads(json.dumps(queue.to_state(encode_summary)))
        return PendingExportQueue.from_state(
            state, lambda record: decode_summary(record, policy)
        )

    def test_roundtrip_preserves_order_ids_and_bytes(self, policy,
                                                     make_key):
        queue = self.make_queue(policy, make_key)
        restored = self.roundtrip(queue, policy)
        assert [e.export_id for e in restored.entries] == [
            e.export_id for e in queue.entries
        ]
        assert [e.attempts for e in restored.entries] == [0, 1, 2]
        assert restored.pending_bytes == queue.pending_bytes
        assert [e.items for e in restored.entries] == [
            e.items for e in queue.entries
        ]
        assert restored._queued_ids == queue._queued_ids
        assert restored._delivered_ids == queue._delivered_ids

    def test_restored_queue_still_dedups(self, policy, make_key):
        from repro.faults.pending import PendingExport

        queue = self.make_queue(policy, make_key)
        restored = self.roundtrip(queue, policy)
        duplicate = PendingExport(
            export_id="exp-0", kind="forward", summary=None, items=1,
            size_bytes=1, origin="a/r1", label="agg", created_at=60.0,
        )
        assert restored.park(duplicate) is False  # still queued
        delivered = PendingExport(
            export_id="exp-done", kind="forward", summary=None, items=1,
            size_bytes=1, origin="a/r1", label="agg", created_at=60.0,
        )
        assert restored.park(delivered) is False  # already delivered

    def test_non_durable_entries_skipped_and_counted(self, policy,
                                                     make_key):
        from repro.core.summary import (
            DataSummary, Location, SummaryMeta,
        )
        from repro.faults.pending import PendingExport
        from repro.storage import encode_summary

        queue = self.make_queue(policy, make_key, count=1)
        queue.park(
            PendingExport(
                export_id="exp-raw", kind="forward",
                summary=DataSummary(
                    kind="rawstore",
                    meta=SummaryMeta(
                        interval=TimeInterval(0.0, 60.0),
                        location=Location("a/r1"),
                    ),
                    payload={"rows": []},
                    size_bytes=10,
                ),
                items=1, size_bytes=10, origin="a/r1", label="raw",
                created_at=60.0,
            )
        )
        state = queue.to_state(encode_summary)
        assert state["skipped"] == 1
        restored = self.roundtrip(queue, policy)
        assert len(restored) == 1
        # the skipped id must not linger as queued: the entry is gone,
        # so a future park of the same id must be allowed again
        assert "exp-raw" not in restored._queued_ids


class TestRuntimeRecovery:
    def test_outage_parks_then_drains_with_mass_conserved(self):
        baseline = drive(build_runtime())
        clean_total = root_total(baseline)

        runtime = build_runtime()
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=80), seed=11
        )
        for epoch in range(2):
            for site in sites:
                runtime.ingest(site, generator.epoch(site, epoch))
            runtime.close_epoch((epoch + 1) * 60.0)
        # the close at t=60 falls in the outage window: router1's
        # forward export is parked, never dropped
        assert runtime.stats.exports_parked == 1
        queue = runtime.exports.queue_for(runtime.store_for(ROUTER1))
        assert len(queue) == 0  # drained at the t=120 close
        assert runtime.stats.exports_recovered == 1
        assert runtime.pending_exports() == 0
        assert root_total(runtime) == clean_total

    def test_adopted_parked_tree_does_not_alias_the_retained_partition(self):
        """A parked forward is the origin's sealed partition itself; a
        parent that adopts it as a live aggregator must grow a copy."""
        runtime = build_runtime(
            faults=FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=80), seed=11
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        runtime.close_epoch(60.0)
        router = runtime.store_for(ROUTER1)
        (partition,) = router.catalog.all()
        (parked,) = runtime.exports.queue_for(
            runtime.store_for(ROUTER1)
        ).entries
        assert parked.summary.payload is partition.summary.payload
        sealed = partition.summary.payload
        retained = (sealed.to_dict(), sealed.compressions)
        # the parent lost its aggregator (as after a reconfiguration):
        # redelivery installs the parked summary as the live one, and
        # the same close merges router1's fresh epoch into it
        region = runtime.store_for("network1/region1")
        region.remove_aggregator("flowtree")
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 1))
        runtime.close_epoch(120.0)
        assert runtime.stats.exports_recovered == 1
        assert (sealed.to_dict(), sealed.compressions) == retained
        clean_total = root_total(drive(build_runtime()))
        assert root_total(runtime) == clean_total

    def test_parked_hhh_forward_is_recovered(self):
        """Every registry kind can take the redelivery door: an ``hhh``
        router->region forward parked by an outage lands one close
        later instead of raising out of ``close_epoch``."""
        levels = {
            level: LevelConfig(aggregator="hhh", node_budget=None)
            for level in ("router", "region")
        }
        runtime = HierarchyRuntime(
            Hierarchy.from_site_paths(
                [ROUTER1], level_names=["network", "region", "router"]
            ),
            levels,
            faults=FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)]),
        )
        flows = TrafficGenerator(
            TrafficConfig(sites=(ROUTER1,), flows_per_epoch=80), seed=11
        ).epoch(ROUTER1, 0)
        runtime.ingest(ROUTER1, flows)
        runtime.close_epoch(60.0)
        assert runtime.stats.exports_parked == 1
        assert len(runtime.exports.queue_for(runtime.store_for(ROUTER1))) == 1
        runtime.close_epoch(120.0)
        assert runtime.stats.exports_recovered == 1
        assert runtime.pending_exports() == 0
        (partition,) = runtime.store_for("network1/region1").catalog.all()
        assert partition.summary.kind == "hhh"
        everything = partition.summary.payload[0].top(1)
        assert everything[0][1] == sum(max(f.bytes, 1) for f in flows)

    def test_drops_retry_and_conserve_mass(self):
        clean_total = root_total(drive(build_runtime()))
        runtime = build_runtime(
            faults=FaultPlan(seed=5, drop_probability=0.3)
        )
        drive(runtime)
        assert runtime.pending_exports() == 0
        assert root_total(runtime) == clean_total
        stats = runtime.stats
        assert stats.transfer_failures > 0
        assert stats.transfer_attempts > stats.transfer_failures
        assert runtime.fabric.wasted_bytes() > 0

    def test_zero_fault_plan_changes_nothing(self):
        clean = drive(build_runtime())
        nulled = drive(build_runtime(faults=FaultPlan(seed=1)))
        assert nulled.wan_bytes() == clean.wan_bytes()
        assert nulled.fabric.wasted_bytes() == 0
        assert nulled.stats.retried_bytes == 0
        assert root_total(nulled) == root_total(clean)

    def test_retry_stats_account_every_attempt(self):
        runtime = build_runtime(
            faults=FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        drive(runtime, epochs=1, recovery_closes=1)
        stats = runtime.stats
        # the parked export burned a full retry budget first
        assert stats.transfer_failures >= runtime.retry_policy.max_attempts
        assert stats.retried_bytes > 0


class TestOneLanding:
    """Fresh forward, redelivery and migration are one landing: the same
    sealed summary leaves the target aggregator in the same state
    whichever door it came through."""

    @staticmethod
    def landings(monkeypatch):
        """Record the target aggregator right after each landing of a
        summary shipped by ROUTER1."""
        seen = []
        original = DataStore.receive_summary

        def recording(target, origin, aggregator, summary, items, now, **kw):
            original(target, origin, aggregator, summary, items, now, **kw)
            if origin.location.path.endswith(ROUTER1):
                landed = target.aggregator(aggregator)
                seen.append({
                    "target": target,
                    "origin": origin,
                    "summary": summary,
                    "now": now,
                    "tree": landed.primitive.tree.to_dict(),
                    "interval": landed.primitive.interval(),
                    "items_this_epoch": landed.items_this_epoch,
                    "epoch_opened_at": landed.epoch_opened_at,
                })

        monkeypatch.setattr(DataStore, "receive_summary", recording)
        return seen

    @staticmethod
    def feed_router1(runtime, epoch=0):
        generator = TrafficGenerator(
            TrafficConfig(sites=(ROUTER1,), flows_per_epoch=80), seed=11
        )
        runtime.ingest(ROUTER1, generator.epoch(ROUTER1, epoch))

    def fresh(self, runtime):
        self.feed_router1(runtime)
        runtime.close_epoch(60.0)

    def redelivered(self, runtime):
        runtime.inject_faults(FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)]))
        self.feed_router1(runtime)
        runtime.close_epoch(60.0)
        assert runtime.stats.exports_parked == 1
        runtime.close_epoch(120.0)

    def site_leave(self, runtime):
        self.feed_router1(runtime)
        assert runtime.site_leave(ROUTER1, now=30.0) > 0

    def test_three_forward_doors_leave_the_same_aggregator(self, monkeypatch):
        seen = self.landings(monkeypatch)
        landed = {}
        for door, at in (
            (self.fresh, 60.0), (self.redelivered, 120.0),
            (self.site_leave, 30.0),
        ):
            del seen[:]
            door(build_runtime())
            (landing,) = seen
            landed[door.__name__] = landing
            assert landing["now"] == at
            assert landing["items_this_epoch"] == 80
            assert landing["epoch_opened_at"] == at
            (record,) = [
                record
                for record in landing["origin"].lineage._records.values()
                if record.operation == "export"
            ]
            assert record.location == landing["target"].location
            assert record.timestamp == at
        assert landed["fresh"]["tree"] == landed["redelivered"]["tree"]
        assert landed["fresh"]["tree"] == landed["site_leave"]["tree"]
        # only the late arrival is re-timed into the epoch it joins
        for door in ("fresh", "site_leave"):
            sealed = landed[door]["summary"].meta.interval
            assert landed[door]["interval"] == sealed
        late = landed["redelivered"]["interval"]
        assert (late.start, late.end) == (60.0, 120.0)

    def test_adopted_migrated_tree_does_not_alias_what_was_shipped(
        self, monkeypatch
    ):
        """The migration door against a target that lacks the
        aggregator: the store grows its own tree, and the summary that
        crossed the link is never written to again."""
        runtime = build_runtime()
        seen = self.landings(monkeypatch)
        peer = runtime.store_for(ROUTER2)
        peer.remove_aggregator("flowtree")
        self.site_leave(runtime)
        (landing,) = seen
        assert landing["target"] is peer
        shipped = landing["summary"].payload
        assert peer.aggregator("flowtree").primitive.tree is not shipped
        before = (shipped.to_dict(), shipped.compressions)
        generator = TrafficGenerator(
            TrafficConfig(sites=(ROUTER2,), flows_per_epoch=80), seed=11
        )
        runtime.ingest(ROUTER2, generator.epoch(ROUTER2, 0))
        runtime.close_epoch(60.0)
        assert (shipped.to_dict(), shipped.compressions) == before
        assert root_total(runtime).flows == 160


class TestEpochCloseCopyCount:
    """Sealing an epoch hands the live tree over, and what is sealed is
    what ships: a close deep-copies no tree and guards each summary
    once."""

    @staticmethod
    def close_copies(runtime, monkeypatch, epochs=2):
        """Drive ``epochs`` epochs; the trees ``Flowtree.copy`` was
        called on *inside* ``close_epoch``, per close."""
        copied = []
        original = Flowtree.copy

        def counting_copy(tree):
            copied.append(tree)
            return original(tree)

        monkeypatch.setattr(Flowtree, "copy", counting_copy)
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=80), seed=11
        )
        per_close = []
        for epoch in range(epochs):
            for site in sites:
                runtime.ingest(site, generator.epoch(site, epoch))
            del copied[:]
            runtime.close_epoch((epoch + 1) * 60.0)
            per_close.append(list(copied))
        monkeypatch.setattr(Flowtree, "copy", original)
        return per_close

    def test_plain_close_copies_nothing(self, monkeypatch):
        runtime = build_runtime()
        assert self.close_copies(runtime, monkeypatch) == [[], []]
        # every level still retained its sealed partitions
        for level in ("router", "region"):
            for store in runtime.stores_at_level(level).values():
                assert len(store.catalog.all()) == 2

    def test_privacy_guard_copies_only_its_own_exports(self, monkeypatch):
        """Guard or not, a close copies no tree: the guard reads the
        sealed summary and the anonymiser builds its own."""
        runtime = build_runtime()
        regions = runtime.stores_at_level("region").values()
        for store in regions:
            store.privacy = PrivacyGuard(
                PrivacyPolicy(default=ExportRule(min_ip_prefix=24))
            )
        assert len(regions) == 2
        assert self.close_copies(runtime, monkeypatch, epochs=1) == [[]]
        for store in regions:
            # one guarded export each, of the partition it kept whole
            (audit,) = store.privacy.audit_log
            assert audit.degraded
            (partition,) = store.catalog.all()
            assert "anonymized_to_prefix" not in partition.summary.attrs

    def test_guard_runs_once_per_summary_however_long_delivery_takes(self):
        """Three failed attempts, a park and a redelivery later, the
        guard has still seen the summary exactly once."""
        runtime = build_runtime(
            faults=FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        router = runtime.store_for(ROUTER1)
        router.privacy = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=24))
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=80), seed=11
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        runtime.close_epoch(60.0)
        assert runtime.stats.exports_parked == 1
        assert runtime.stats.transfer_failures == 3
        assert len(router.privacy.audit_log) == 1
        (parked,) = runtime.exports.queue_for(
            runtime.store_for(ROUTER1)
        ).entries
        assert parked.summary.attrs["anonymized_to_prefix"] == 24
        runtime.close_epoch(120.0)  # redelivers; no fresh mass to guard
        assert runtime.stats.exports_recovered == 1
        assert len(router.privacy.audit_log) == 1

    def test_parked_forward_copies_nothing_and_conserves_mass(
        self, monkeypatch
    ):
        clean_total = root_total(drive(build_runtime()))
        runtime = build_runtime(
            faults=FaultPlan(outages=[LinkOutage(ROUTER1, 1, 2)])
        )
        assert self.close_copies(runtime, monkeypatch) == [[], []]
        assert runtime.stats.exports_parked == 1
        assert runtime.stats.exports_recovered == 1
        assert runtime.pending_exports() == 0
        assert root_total(runtime) == clean_total


class _Cycle:
    """A self-referencing object: only a collector pass can free it."""

    def __init__(self):
        self.me = self


def _watched_cycle(freed):
    """A cycle whose freeing appends to ``freed`` (a weakref callback)."""
    cycle = _Cycle()
    return cycle, weakref.ref(cycle, lambda _: freed.append(True))


def _generations_during(call):
    """The generations the collector ran during ``call()``."""
    collected = []

    def on_gc(phase, info):
        if phase == "stop":
            collected.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        call()
    finally:
        gc.callbacks.remove(on_gc)
    return collected


@contextlib.contextmanager
def _no_automatic_passes():
    """The collector enabled, but no allocation count sets off a pass."""
    thresholds = gc.get_threshold()
    gc.set_threshold(0)
    try:
        assert gc.isenabled()
        yield
    finally:
        gc.set_threshold(*thresholds)


class TestEpochCloseCollector:
    """The write path holds the cyclic collector, and its one pass is the
    epoch boundary: an ingest call runs none, and a close runs one at
    its end — never mid-rollup, inside the standing-query refresh, or on
    the way in for a pass the last ingest left due — then freezes what
    survived, so the next close walks only what its epoch allocated.
    The pass collects the young generations; it is a full one only while
    the old generation holds what a thaw (every 8th close, and
    ``shutdown()``) handed back and no full pass has walked since.  Both
    leave the host's collector setting as they found it, also when they
    raise.  Frozen cyclic garbage waits at most 8 closes, and none after
    ``shutdown()``, also when the host runs no pass of its own.  (CI
    also runs this class alone, in a fresh interpreter.)"""

    @staticmethod
    def close_once(runtime, monkeypatch):
        """One epoch; ``(collector state seen by the planner's close
        hook, generations collected during the close)``."""
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=80), seed=11
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        seen = []
        hook = runtime.planner.on_epoch_closed

        def watching_hook(now):
            seen.append(gc.isenabled())
            return hook(now)

        monkeypatch.setattr(runtime.planner, "on_epoch_closed", watching_hook)
        return seen, _generations_during(lambda: runtime.close_epoch(60.0))

    @staticmethod
    def big_batch(epoch=0):
        """One site's epoch, large enough to set off automatic passes."""
        generator = TrafficGenerator(
            TrafficConfig(sites=(ROUTER1,), flows_per_epoch=3000), seed=11
        )
        return generator.epoch(ROUTER1, epoch)

    def test_an_ingest_batch_runs_no_collection(self):
        runtime = build_runtime()
        records = self.big_batch()
        gc.collect()
        collected = _generations_during(
            lambda: runtime.ingest(ROUTER1, records)
        )
        assert collected == []
        assert gc.isenabled()
        runtime.shutdown()

    def test_the_host_setting_comes_back_when_an_ingest_raises(self):
        runtime = build_runtime()
        records = self.big_batch()[:50]
        untimed = records + [object()]  # neither first_seen nor timestamp
        try:
            for host_collects in (True, False):
                if host_collects:
                    gc.enable()
                else:
                    gc.disable()
                with pytest.raises(SchemaMismatchError):
                    runtime.ingest(ROUTER1, untimed)
                assert gc.isenabled() is host_collects
                with pytest.raises(PlacementError):
                    runtime.ingest("nowhere/router9", records)
                assert gc.isenabled() is host_collects
                assert runtime.ingest(ROUTER1, records) == len(records)
                assert gc.isenabled() is host_collects
        finally:
            gc.enable()
        runtime.shutdown()

    def test_a_close_after_a_held_ingest_runs_only_its_boundary_pass(self):
        build_runtime().shutdown()  # a thaw, so neither close is the 8th
        runtime = build_runtime()
        # one close first, so the close's own frames exist before the
        # watched one (an interpreter that allocates frames on the heap
        # would otherwise count a frame as the allocation at its top)
        runtime.ingest(ROUTER1, self.big_batch(0))
        runtime.close_epoch(60.0)
        records = self.big_batch(1)
        collected, young = [], []

        def on_gc(phase, info):
            if phase == "start":
                young.append(gc.get_count()[0])
            else:
                collected.append(info["generation"])

        runtime.ingest(ROUTER1, records)  # leaves gen-0 over threshold
        gc.callbacks.append(on_gc)
        try:
            runtime.close_epoch(120.0)
        finally:
            gc.callbacks.remove(on_gc)
        assert collected == [1]  # a full pass has walked the thawed objects
        assert young[0] > gc.get_threshold()[0]
        assert gc.isenabled()
        runtime.shutdown()

    def test_one_young_collection_at_the_boundary(self, monkeypatch):
        assert gc.isenabled()
        build_runtime().shutdown()  # a thaw, so the close is not the 8th
        runtime = build_runtime()
        gc.collect()  # a full pass has walked what the thaw handed back
        seen, collected = self.close_once(runtime, monkeypatch)
        assert seen == [False]
        assert collected == [1]
        assert gc.isenabled()
        # the pass is the close span's last child, after every rollup
        root = runtime.obs.tracer.last("close_epoch")
        names = [child.name for child in root.children]
        assert names[-1] == "collect" and names.count("collect") == 1
        assert set(names[:-1]) == {"rollup"}
        (collect,) = root.find("collect")
        assert set(collect.attrs) == {"found", "thawed", "generation"}
        assert isinstance(collect.attrs["found"], int)
        assert collect.attrs["generation"] == 1
        assert collect.attrs["thawed"] is False
        runtime.shutdown()

    def test_the_8th_close_since_a_thaw_walks_the_old_generation(self):
        build_runtime().shutdown()
        runtime = build_runtime()
        gc.collect()
        passes = [
            _generations_during(lambda: runtime.close_epoch(close * 60.0))
            for close in range(1, 9)
        ]
        assert passes == [[1]] * 7 + [[2]]
        (collect,) = runtime.obs.tracer.last("close_epoch").find("collect")
        assert collect.attrs["thawed"] is True
        assert collect.attrs["generation"] == 2
        runtime.shutdown()

    @pytest.mark.parametrize(
        "host_collects, generations",
        [(False, [2]), (True, [1])],
        ids=["the-close-walks-the-thawed", "the-host-walked-them"],
    )
    def test_the_first_close_after_a_shutdown(
        self, host_collects, generations
    ):
        with _no_automatic_passes():
            build_runtime().shutdown()
            if host_collects:
                gc.collect()
            runtime = build_runtime()
            collected = _generations_during(lambda: runtime.close_epoch(60.0))
            assert collected == generations
            runtime.shutdown()

    def test_a_sealed_tree_is_frozen_until_shutdown(self, monkeypatch):
        runtime = build_runtime()
        self.close_once(runtime, monkeypatch)
        (entry, *_) = runtime.db.entries()
        nodes = [
            node for depth in entry.tree._index for node in depth.values()
        ]
        assert nodes and all(gc.is_tracked(node) for node in nodes)
        assert gc.get_freeze_count() > len(nodes)

        def visible():
            ids = {id(obj) for obj in gc.get_objects()}
            return sum(id(node) in ids for node in nodes)

        assert visible() == 0
        runtime.shutdown()
        assert gc.get_freeze_count() == 0
        assert visible() == len(nodes)

    def test_with_leaves_nothing_frozen(self, monkeypatch):
        with build_runtime() as runtime:
            self.close_once(runtime, monkeypatch)
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_a_cycle_dropped_after_a_close_is_freed_at_shutdown(self):
        runtime = build_runtime()
        freed = []
        cycle, _ref = _watched_cycle(freed)
        runtime.close_epoch(60.0)
        del cycle
        gc.collect()
        assert freed == []  # frozen: no pass sees it
        runtime.shutdown()
        gc.collect()
        assert freed == [True]

    def test_a_cycle_dropped_after_a_close_is_freed_within_8_closes(self):
        runtime = build_runtime()
        freed = []
        cycle, _ref = _watched_cycle(freed)
        runtime.close_epoch(60.0)
        del cycle
        closes = 1
        while not freed and closes < 8:
            closes += 1
            runtime.close_epoch(closes * 60.0)
        assert freed == [True]
        runtime.shutdown()

    def test_a_chain_of_runtimes_frees_each_dropped_cycle(self):
        """Each runtime drops a frozen cycle before its ``shutdown()``, and
        the host runs no pass: the next runtime's first close frees it
        (all but the last runtime's)."""
        freed, refs = [], []
        with _no_automatic_passes():
            for _ in range(12):
                runtime = build_runtime()
                cycle, ref = _watched_cycle(freed)
                refs.append(ref)
                runtime.close_epoch(60.0)
                runtime.close_epoch(120.0)
                del cycle
                runtime.shutdown()
        assert len(freed) >= 11

    def test_a_cycle_promoted_before_a_close_is_freed_within_8_closes(self):
        runtime = build_runtime()
        freed = []
        with _no_automatic_passes():
            cycle, _ref = _watched_cycle(freed)
            gc.collect()  # a full pass: it lands in the old generation
            del cycle
            closes = 0
            while not freed and closes < 8:
                closes += 1
                runtime.close_epoch(closes * 60.0)
        assert freed == [True]
        runtime.shutdown()

    def test_a_host_with_the_collector_off_is_left_alone(self, monkeypatch):
        build_runtime().shutdown()  # nothing frozen to start from
        gc.disable()
        try:
            seen, collected = self.close_once(build_runtime(), monkeypatch)
            assert seen == [False]
            assert collected == []
            assert gc.get_freeze_count() == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_comes_back_when_the_close_raises(self, monkeypatch):
        runtime = build_runtime()

        def failing_hook(now):
            raise RuntimeError("close hook failed")

        monkeypatch.setattr(runtime.planner, "on_epoch_closed", failing_hook)
        with pytest.raises(RuntimeError):
            runtime.close_epoch(60.0)
        assert gc.isenabled()


_CLEAN_TOTAL = {}


def _clean_total():
    if "total" not in _CLEAN_TOTAL:
        _CLEAN_TOTAL["total"] = root_total(
            drive(build_runtime(), epochs=2, flows_per_epoch=60)
        )
    return _CLEAN_TOTAL["total"]


class TestRecoveryProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        drop=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_root_mass_conserved_after_recovery(self, drop, seed):
        """The delivery guarantee, property-tested: whatever the drop
        schedule, once the pending queues drain the root holds exactly
        the mass a fault-free run delivers."""
        runtime = build_runtime(
            faults=FaultPlan(seed=seed, drop_probability=drop)
        )
        drive(runtime, epochs=2, flows_per_epoch=60, recovery_closes=10)
        assert runtime.pending_exports() == 0
        assert root_total(runtime) == _clean_total()

    @settings(max_examples=8, deadline=None)
    @given(start=st.integers(min_value=1, max_value=2))
    def test_outage_windows_conserve_mass(self, start):
        runtime = build_runtime(
            faults=FaultPlan(outages=[LinkOutage(ROUTER1, start, start + 1)])
        )
        drive(runtime, epochs=2, flows_per_epoch=60, recovery_closes=10)
        assert runtime.pending_exports() == 0
        assert root_total(runtime) == _clean_total()


class TestExportIdUniqueness:
    """Collision audit for parked-export ids: ``_forward`` keys its ids
    on ``(store path, export name, epochs_closed)`` while FlowDB parks
    reuse the globally unique partition id.  A collision would make
    :meth:`PendingExportQueue.park` silently drop a fresh export as a
    "duplicate" — data loss the mass-conservation tests above could
    only catch by accident.  This property test pins the scheme: every
    park over a random fault plan must be accepted, and all recorded
    ids must be globally unique across both kinds."""

    @settings(max_examples=10, deadline=None)
    @given(
        drop=st.floats(min_value=0.2, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_park_ids_never_collide_under_random_faults(self, drop, seed):
        parked = []
        original_park = PendingExportQueue.park

        def recording_park(queue, export):
            accepted = original_park(queue, export)
            parked.append((export.export_id, export.kind, accepted))
            return accepted

        PendingExportQueue.park = recording_park
        try:
            runtime = build_runtime(
                faults=FaultPlan(
                    seed=seed,
                    drop_probability=drop,
                    outages=[LinkOutage(ROUTER1, 1, 2)],
                )
            )
            drive(runtime, epochs=3, flows_per_epoch=40,
                  recovery_closes=12)
        finally:
            PendingExportQueue.park = original_park

        assert parked, "the outage window must park at least one export"
        rejected = [entry for entry in parked if not entry[2]]
        assert not rejected, f"park() refused fresh exports: {rejected}"
        ids = [export_id for export_id, _, _ in parked]
        assert len(ids) == len(set(ids)), (
            "export ids collided across interleaved closes: "
            f"{sorted(set(i for i in ids if ids.count(i) > 1))}"
        )


BOTH_ROUTERS = f"SELECT TOTAL FROM ALL AT {ROUTER1}, {ROUTER2}"


class TestDegradedQueries:
    @pytest.fixture()
    def loaded(self):
        return drive(build_runtime(), epochs=2)

    def test_unreachable_site_reported_exactly(self, loaded):
        loaded.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 0, 10**6)])
        )
        outcome = loaded.query(BOTH_ROUTERS)
        assert outcome.is_degraded
        assert outcome.missing_sites == [ROUTER1]
        assert outcome.degradation.reasons  # says why
        assert "missing" in outcome.degradation.describe()
        # the surviving site still answers: partial, not empty
        full = root_total(loaded)
        assert 0 < outcome.scalar.bytes < full.bytes

    def test_degraded_answers_never_cached(self, loaded):
        loaded.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 0, 10**6)])
        )
        first = loaded.query(BOTH_ROUTERS)
        second = loaded.query(BOTH_ROUTERS)
        assert first.is_degraded and second.is_degraded
        assert not second.cache.hit
        assert loaded.stats.queries_degraded == 2

    def test_full_answer_restored_when_faults_lift(self, loaded):
        loaded.inject_faults(
            FaultPlan(outages=[LinkOutage(ROUTER1, 0, 10**6)])
        )
        partial = loaded.query(BOTH_ROUTERS)
        loaded.inject_faults(None)
        healed = loaded.query(BOTH_ROUTERS)
        assert not healed.is_degraded
        assert healed.degradation is None
        assert healed.scalar.bytes > partial.scalar.bytes

    def test_every_covering_store_down_yields_honest_empty(self, loaded):
        loaded.inject_faults(
            FaultPlan(
                outages=[
                    LinkOutage("network1/region1", 0, 10**6),
                    LinkOutage("network1/region2", 0, 10**6),
                ]
            )
        )
        outcome = loaded.query(BOTH_ROUTERS)
        assert outcome.is_degraded
        assert outcome.missing_sites == [ROUTER1, ROUTER2]
        assert outcome.scalar.flows == 0  # honest empty, no exception

    def test_complete_outcomes_carry_no_degradation(self, loaded):
        outcome = loaded.query("SELECT TOTAL FROM ALL")
        assert outcome.degradation is None
        assert outcome.missing_sites == []
        assert not outcome.is_degraded
