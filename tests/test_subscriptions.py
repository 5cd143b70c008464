"""Standing queries: ``SUBSCRIBE`` grammar, the delta-maintaining
registry, wire envelopes, and the bit-identity contract.

The load-bearing property in this file: a delta-maintained view is
``to_wire``-identical to re-executing the query from scratch — after
every epoch close, after random join/leave reconfiguration, across a
level split/merge, and across a crash-restart drill.  Everything else
(cursors, callbacks, cancellation, HTTP long-poll) is plumbing around
that contract.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import (
    FlowQLClient,
    HTTPSubscription,
    InProcessSubscription,
)
from repro.errors import FlowQLPlanningError, WireSchemaError
from repro.faults import FaultPlan, RestartDrill
from repro.flows.records import Score
from repro.flowql.executor import FlowQLResult
from repro.flowql.parser import parse
from repro.runtime.config import LevelConfig
from repro.query.subscriptions import (
    MODE_DELTA,
    MODE_INIT,
    MODE_REBUILD,
    Subscription,
    SubscriptionUpdate,
)
from repro.runtime.presets import network_4level_runtime
from repro.serve import ServePlane, wire
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from repro.storage import SegmentLogEngine

EPOCH = 60.0
ROUTER1 = "network1/region1/router1"
ROUTER2 = "network1/region1/router2"


def build_runtime(routers=2, regions=1, faults=None, storage=None):
    return network_4level_runtime(
        networks=1,
        regions_per_network=regions,
        routers_per_region=routers,
        retain_partitions=True,
        faults=faults,
        storage=storage,
    )


def drive(runtime, epochs, start=0, flows=100, seed=7):
    """Ingest ``epochs`` epochs of traffic and close each one."""
    for epoch in range(start, start + epochs):
        sites = runtime.ingest_sites()  # recompute: reconfigs re-key
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=flows),
            seed=seed + epoch,
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * EPOCH)


def cold(runtime, text):
    """Re-execute ``text`` from scratch: drop the result cache first."""
    planner = runtime.planner
    planner.invalidate_cache()
    return planner.execute(text).result


def sample_update(seq=1, mode=MODE_DELTA):
    return SubscriptionUpdate(
        subscription_id="sub-9",
        seq=seq,
        epoch=120.0,
        generation=3,
        mode=mode,
        result=FlowQLResult(
            operator="top_k",
            rows=[("10.0.0.1:443 -> *", 10, 4096, 2)],
        ),
        route="federated",
        shipped_bytes=512,
        changed=True,
        degraded=False,
    )


# ---------------------------------------------------------------------------
# grammar


class TestSubscribeGrammar:
    def test_subscribe_prefix_parses(self):
        query = parse("SUBSCRIBE SELECT TOTAL FROM ALL")
        assert query.subscribe is True
        assert query.select.name == "total"

    def test_bare_select_is_not_a_subscription(self):
        assert parse("SELECT TOTAL FROM ALL").subscribe is False

    def test_subscribe_composes_with_full_grammar(self):
        query = parse(
            "SUBSCRIBE SELECT TOPK(5) FROM ALL AT "
            f"{ROUTER1} WHERE dst_port = 443 BY bytes LIMIT 3"
        )
        assert query.subscribe is True
        assert query.select.name == "topk"
        assert query.limit == 3

    def test_registry_strips_the_subscribe_flag(self):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        assert subscription.query.subscribe is False  # plain, plannable


# ---------------------------------------------------------------------------
# wire schema


class TestSubscriptionWire:
    def test_update_round_trips_through_json(self):
        update = sample_update()
        clone = SubscriptionUpdate.from_wire(
            json.loads(json.dumps(update.to_wire()))
        )
        assert clone == update

    def test_malformed_update_raises_wire_error(self):
        with pytest.raises(WireSchemaError):
            SubscriptionUpdate.from_wire({"seq": 1})

    def test_subscribed_envelope_round_trip(self):
        update = sample_update(mode=MODE_INIT)
        body = json.loads(
            json.dumps(wire.encode_subscribed("sub-9", update))
        )
        subscription_id, first = wire.decode_subscribed(body)
        assert subscription_id == "sub-9"
        assert first == update

    def test_subscribed_envelope_with_pending_registration(self):
        subscription_id, first = wire.decode_subscribed(
            wire.encode_subscribed("sub-3", None)
        )
        assert subscription_id == "sub-3"
        assert first is None

    def test_updates_envelope_round_trip(self):
        updates = [sample_update(seq=4), sample_update(seq=5)]
        body = json.loads(
            json.dumps(wire.encode_updates(updates, cursor=5, resync=True))
        )
        decoded, cursor, resync = wire.decode_updates(body)
        assert decoded == updates
        assert cursor == 5
        assert resync is True

    def test_envelope_kinds_are_checked(self):
        body = wire.encode_updates([], cursor=0, resync=False)
        with pytest.raises(WireSchemaError):
            wire.decode_subscribed(body)


# ---------------------------------------------------------------------------
# registry semantics


class TestRegistrySemantics:
    def test_registration_materializes_immediately(self):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        first = subscription.latest()
        assert first is not None
        assert first.mode == MODE_INIT and first.seq == 1
        assert first.result.scalar == (
            runtime.query("SELECT TOTAL FROM ALL").scalar
        )

    def test_empty_hierarchy_stays_pending_then_materializes(self):
        runtime = build_runtime()
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        assert subscription.latest() is None  # nothing to materialize
        drive(runtime, 1)
        first = subscription.latest()
        assert first is not None and first.mode == MODE_INIT

    def test_every_close_publishes_with_contiguous_seqs(self):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        drive(runtime, 3, start=1)
        assert [u.seq for u in subscription.updates] == [1, 2, 3, 4]
        assert [u.mode for u in subscription.updates][1:] == (
            [MODE_DELTA] * 3
        )
        assert subscription.delta_refreshes == 3

    def test_quiet_epoch_publishes_unchanged_snapshot(self):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        grown = subscription.latest()
        runtime.close_epoch(2 * EPOCH)  # close with zero new traffic
        quiet = subscription.latest()
        assert quiet.seq == grown.seq + 1
        assert quiet.changed is False
        assert quiet.result == grown.result

    def test_callback_fires_and_exceptions_are_contained(self):
        runtime = build_runtime()
        drive(runtime, 1)
        seen = []

        def boom(update):
            seen.append(update.seq)
            raise RuntimeError("subscriber bug")

        subscription = runtime.subscribe(
            "SUBSCRIBE SELECT TOTAL FROM ALL", on_update=boom
        )
        drive(runtime, 1, start=1)  # must not blow up close_epoch
        assert seen == [1, 2]
        assert subscription.callback_errors == 2

    def test_cancel_stops_updates(self):
        runtime = build_runtime()
        drive(runtime, 1)
        registry = runtime.planner.subscriptions
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        subscription.cancel()
        assert subscription.active is False
        drive(runtime, 1, start=1)
        assert subscription.seq == 1  # nothing published after cancel
        assert registry.census()["active"] == 0

    def test_cursor_semantics_and_ring_resync(self):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        drive(runtime, 2, start=1)
        pending, resynced = subscription.updates_since(1)
        assert [u.seq for u in pending] == [2, 3]
        assert resynced is False
        # simulate the ring aging past the cursor
        subscription.updates.popleft()
        subscription.updates.popleft()
        pending, resynced = subscription.updates_since(1)
        assert [u.seq for u in pending] == [3]
        assert resynced is True  # the gap outgrew the replay ring

    def test_wait_for_timeout_and_unknown_id(self):
        runtime = build_runtime()
        drive(runtime, 1)
        registry = runtime.planner.subscriptions
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        updates, resynced, known = registry.wait_for(
            subscription.id, subscription.seq, timeout_s=0.05
        )
        assert (updates, resynced, known) == ([], False, True)
        assert registry.wait_for("sub-none", 0, 0.0) == ([], False, False)

    def test_census_names_every_subscription(self):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe(
            f"SUBSCRIBE SELECT TOPK(3) FROM ALL AT {ROUTER1} BY bytes"
        )
        census = runtime.planner.subscriptions.census()
        assert census["active"] == 1
        assert subscription.id in census["subscriptions"]
        assert census["updates_published"] >= 1


# ---------------------------------------------------------------------------
# the bit-identity contract


IDENTITY_QUERIES = (
    "SELECT TOTAL FROM ALL",
    "SELECT TOPK(5) FROM ALL BY bytes",
    f"SELECT TOPK(3) FROM ALL AT {ROUTER1} BY bytes",
    "SELECT GROUPBY(dst_port, 8) FROM ALL BY bytes",
    "SELECT TOTAL FROM TIME(120, 240) VS TIME(0, 120)",
)


class TestDeltaIdentity:
    def assert_identical(self, runtime, subscription, text):
        try:
            expected = cold(runtime, text)
        except FlowQLPlanningError:
            # re-execution can't answer right now (window not covered
            # yet, or a reconfig re-keyed the sites): the subscription
            # must be quiet, not serving what re-execution cannot
            assert subscription.views is None
            return
        update = subscription.latest()
        assert update is not None
        assert update.result.to_wire() == expected.to_wire()

    @pytest.mark.parametrize("text", IDENTITY_QUERIES)
    def test_identical_after_every_close(self, text):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        for epoch in range(1, 5):
            drive(runtime, 1, start=epoch)
            self.assert_identical(runtime, subscription, text)
        assert subscription.delta_refreshes > 0  # deltas, not rebuilds

    def test_identical_past_site_fold_compression(self):
        """Identity must survive the per-site fold outgrowing the
        partition node budget (the cold combine starts compressing).

        The maintained fold replays the cold combine's exact operation
        sequence, so its compressions land at the same points and the
        grouped answer stays bit-identical — this pins the regression
        where a flat uncompressed view drifted above the cold answer
        once compression set in.
        """
        text = f"SELECT GROUPBY(dst_port, 8) FROM ALL AT {ROUTER1} BY bytes"
        runtime = build_runtime()
        drive(runtime, 1, flows=150)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        for epoch in range(1, 12):
            drive(runtime, 1, start=epoch, flows=150)
            self.assert_identical(runtime, subscription, text)
        # the horizon must actually cross the onset, or this pins nothing
        folds = [
            fold
            for view in subscription.views
            for fold in view.site_trees.values()
        ]
        assert any(fold.compressions > 0 for fold in folds)
        assert subscription.rebuilds == 0
        assert subscription.delta_refreshes == 11

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        text=st.sampled_from(IDENTITY_QUERIES[:2]),
        ops=st.lists(
            st.sampled_from(
                ["epoch", "join", "leave", "split", "merge"]
            ),
            min_size=2,
            max_size=5,
        ),
    )
    def test_identical_after_random_reconfig(self, text, ops):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        joined = []
        pod_live = False
        epoch = 1
        for op in ops:
            if op == "join" and not pod_live:
                site = f"network1/region1/router{9 + len(joined)}"
                runtime.site_join(site)
                joined.append(site)
            elif op == "leave" and joined:
                runtime.site_leave(joined.pop())
            elif op == "split" and not pod_live and not joined:
                runtime.level_split(
                    "router",
                    "pod",
                    {"pod1": [ROUTER1, ROUTER2]},
                    config=LevelConfig(
                        aggregator="flowtree", node_budget=2048
                    ),
                )
                pod_live = True
            elif op == "merge" and pod_live:
                runtime.level_merge("pod")
                pod_live = False
            drive(runtime, 1, start=epoch)
            epoch += 1
            self.assert_identical(runtime, subscription, text)

    def test_identical_across_split_and_merge(self):
        text = f"SELECT TOPK(3) FROM ALL AT {ROUTER1} BY bytes"
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        runtime.level_split(
            "router",
            "pod",
            {"pod1": [ROUTER1, ROUTER2]},
            config=LevelConfig(aggregator="flowtree", node_budget=2048),
        )
        # the split re-keyed the AT site: the query no longer plans, so
        # the subscription goes quiet rather than serving a stale view
        drive(runtime, 1, start=1)
        assert subscription.latest().seq == 1  # no update published
        runtime.level_merge("pod")
        drive(runtime, 1, start=2)  # original labels are back
        self.assert_identical(runtime, subscription, text)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        boundary=st.integers(min_value=1, max_value=3),
        epochs=st.integers(min_value=4, max_value=5),
    )
    def test_identical_across_restart_drill(self, boundary, epochs):
        """A crash-restart re-ids FlowDB entries: the folded-prefix
        check must force a rebuild, never a silent wrong delta."""
        text = "SELECT TOTAL FROM ALL"
        plan = FaultPlan(restarts=[RestartDrill("cloud", boundary)])
        runtime = build_runtime(faults=plan)
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        for epoch in range(1, epochs):
            drive(runtime, 1, start=epoch)
            self.assert_identical(runtime, subscription, text)
        assert runtime._restarts == 1
        assert subscription.rebuilds >= 1

    def test_generation_bump_forces_rebuild(self):
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        runtime.site_join("network1/region1/router9")
        drive(runtime, 1, start=1)
        rebuilt = subscription.latest()
        assert rebuilt.mode == MODE_REBUILD
        assert rebuilt.result.to_wire() == cold(
            runtime, "SELECT TOTAL FROM ALL"
        ).to_wire()

    def test_federated_deltas_ship_less_than_reexecution(self):
        """The point of the feature: maintaining the view costs the
        fresh partitions only, not the whole window again."""
        text = f"SELECT TOPK(5) FROM ALL AT {ROUTER1} BY bytes"
        runtime = build_runtime()
        drive(runtime, 1)
        subscription = runtime.subscribe("SUBSCRIBE " + text)
        seeded = subscription.shipped_bytes_total
        deltas = []
        for epoch in range(1, 4):
            drive(runtime, 1, start=epoch)
            update = subscription.latest()
            assert update.mode == MODE_DELTA
            deltas.append(update.shipped_bytes)
            reexecuted = cold(runtime, text)
            full = runtime.planner.last_plan.shipped_bytes
            assert update.result.to_wire() == reexecuted.to_wire()
            assert 0 < update.shipped_bytes < full
        assert subscription.shipped_bytes_total == seeded + sum(deltas)


# ---------------------------------------------------------------------------
# HTTP long-poll plumbing


class TestSubscribeOverHTTP:
    def test_subscribe_poll_resume_cancel(self):
        runtime = build_runtime()
        drive(runtime, 1)
        with ServePlane(runtime) as plane:
            endpoint = plane.start_background()
            with FlowQLClient(
                endpoint=endpoint, client_id="standing"
            ) as client:
                handle = client.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
                first = handle.latest()
                assert first is not None and first.mode == MODE_INIT

                drive(runtime, 2, start=1)
                batch = handle.poll(wait_s=10.0)
                assert [u.seq for u in batch] == [2, 3]
                assert handle.cursor == 3
                remote = client.query("SELECT TOTAL FROM ALL")
                assert batch[-1].result.to_wire() == (
                    remote.result.to_wire()
                )

                # a reconnect at an old cursor replays exactly the gap
                resumed = HTTPSubscription(client, handle.id, first)
                replay = resumed.poll(wait_s=0.0)
                assert [u.seq for u in replay] == [2, 3]
                assert resumed.resynced is False

                handle.cancel()
                assert handle.poll(wait_s=0.0) == []
                # the server really dropped it: a fresh handle 404s
                orphan = HTTPSubscription(client, handle.id, None)
                assert orphan.poll(wait_s=0.0) == []
                assert orphan.cancelled is True

                census = client.health()
                assert census["subscriptions"]["active"] == 0
        runtime.shutdown()

    def test_poll_timeout_returns_empty_batch(self):
        runtime = build_runtime()
        drive(runtime, 1)
        with ServePlane(runtime) as plane:
            endpoint = plane.start_background()
            with FlowQLClient(
                endpoint=endpoint, client_id="patient"
            ) as client:
                handle = client.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
                assert handle.poll(wait_s=0.2) == []  # no new close
                assert handle.cancelled is False
        runtime.shutdown()


class TestStandingQueriesAreVolatile:
    """Subscriptions and their cursors die with the process (DESIGN,
    "Durable storage"): a client that comes back with an old id is told
    the stream has ended, identically on both backends."""

    TEXT = "SELECT TOTAL FROM ALL"

    @pytest.mark.parametrize("backend", ["in-process", "http"])
    def test_poll_on_a_lost_id_ends_the_stream(self, backend, tmp_path):
        data_dir = str(tmp_path / "data")
        first = build_runtime(storage=SegmentLogEngine(data_dir))
        drive(first, 1)
        old = FlowQLClient(runtime=first).subscribe(self.TEXT)
        assert old.latest() is not None
        first.shutdown()
        # the process dies; a new one opens the same data dir
        reopened = build_runtime(storage=SegmentLogEngine(data_dir))
        assert reopened.storage_stats()["recoveries"] == 1
        assert len(reopened.planner.subscriptions) == 0
        with ServePlane(reopened) as plane:
            endpoint = plane.start_background()
            with FlowQLClient(endpoint=endpoint) as client:
                if backend == "http":
                    lost = HTTPSubscription(client, old.id, old.latest())
                    status, _headers, _body = client._request(
                        "POST",
                        "/v1/subscribe/poll",
                        {"subscription_id": old.id, "cursor": 1,
                         "timeout_s": 0.0},
                    )
                    assert status == 404
                else:
                    lost = InProcessSubscription(
                        Subscription(
                            old.id, parse(self.TEXT), self.TEXT,
                            reopened.planner.subscriptions,
                        )
                    )
                started = time.monotonic()
                assert lost.poll(wait_s=5.0) == []
                assert time.monotonic() - started < 5.0  # told, not timed out
                assert lost.cancelled is True
                assert lost.poll(wait_s=5.0) == []
                # and the same data answers a fresh subscription
                assert client.subscribe(self.TEXT).latest().result.to_wire() == (
                    old.latest().result.to_wire()
                )
            assert plane.census()["server_errors"] == 0
        reopened.shutdown()
