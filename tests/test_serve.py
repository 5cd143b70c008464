"""The networked serving plane: wire schema, gateway, admission, client.

The serving plane's contract is *indistinguishability*: a query POSTed
to a ``repro serve`` gateway must rebuild into the same typed
:class:`QueryOutcome` the in-process planner returns — including cache
provenance and honest degradation under faults — while the plane adds
the things a network front door owes its operators: per-client
admission control (429 + Retry-After), bounded node queues with
backpressure, deadline degradation to partial answers, and routing
from the planner's query memo, planned again when a close or a
topology generation bump moves its stamp.  These tests pin each
of those down, plus the versioned wire schema they all ride on.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import FlowQLClient
from repro.errors import (
    AdmissionError,
    FlowQLSyntaxError,
    ServeError,
    WireSchemaError,
)
from repro.faults import FaultPlan, LinkOutage
from repro.flowql.executor import FlowQLResult
from repro.flows.records import Score
from repro.query.plan import (
    ROUTE_CLOUD,
    ROUTE_FEDERATED,
    CacheInfo,
    Degradation,
    QueryOutcome,
    QueryPlan,
    SiteRead,
)
from repro.runtime.presets import network_4level_runtime
from repro.serve import ServePlane, wire
from repro.serve.admission import AdmissionController, TokenBucket
from repro.query.memo import MEMO_MAX
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

ROUTER1 = "network1/region1/router1"
EPOCH = 60.0


def loaded_runtime(
    networks=1, regions=2, routers=1, epochs=2, flows_per_epoch=120,
    seed=11,
):
    runtime = network_4level_runtime(
        networks=networks,
        regions_per_network=regions,
        routers_per_region=routers,
        retain_partitions=True,
    )
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows_per_epoch),
        seed=seed,
    )
    for epoch in range(epochs):
        for site in sites:
            runtime.ingest(site, generator.epoch(site, epoch))
        runtime.close_epoch((epoch + 1) * EPOCH)
    return runtime


# ---------------------------------------------------------------------------
# wire schema: round trips, versioning, typed errors


def make_outcome(degraded=False, cache_hit=False, scalar=True):
    result = FlowQLResult(
        operator="total" if scalar else "topk",
        rows=[] if scalar else [("flow-a", 3, 300, 1), ("flow-b", 1, 10, 1)],
        scalar=Score(packets=4, bytes=310, flows=2) if scalar else None,
    )
    plan = QueryPlan(
        route=ROUTE_FEDERATED,
        window=(0.0, 120.0),
        level="router",
        sites=[ROUTER1],
        reads=[
            SiteRead(
                site=ROUTER1, level="router",
                partitions=["p0", "p1"], shipped_bytes=512,
            )
        ],
        cache_hit=cache_hit,
        cache_key=("fp", 1, 2),
    )
    degradation = None
    if degraded:
        degradation = Degradation()
        degradation.note(
            ROUTER1, 60.0, "link down",
            attempted=["cloud/" + ROUTER1, "cloud"],
        )
    return QueryOutcome(
        result=result,
        plan=plan,
        degradation=degradation,
        cache=CacheInfo(hit=cache_hit, key=("fp", 1, 2)),
    )


class TestWireSchema:
    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("cache_hit", [False, True])
    @pytest.mark.parametrize("scalar", [False, True])
    def test_outcome_round_trip_variants(self, degraded, cache_hit, scalar):
        outcome = make_outcome(degraded, cache_hit, scalar)
        # through real JSON, exactly like the HTTP hop
        payload = json.loads(json.dumps(wire.encode_outcome(outcome)))
        rebuilt = wire.decode_outcome(payload)
        assert rebuilt.to_wire() == outcome.to_wire()
        assert rebuilt.result.rows == outcome.result.rows
        assert rebuilt.scalar == outcome.scalar
        assert rebuilt.is_degraded == outcome.is_degraded
        assert rebuilt.cache.hit == cache_hit
        if degraded:
            assert rebuilt.degradation.attempted_paths == [
                "cloud/" + ROUTER1, "cloud",
            ]

    def test_version_mismatch_raises(self):
        payload = wire.encode_outcome(make_outcome())
        payload["wire_version"] = wire.WIRE_VERSION + 1
        with pytest.raises(WireSchemaError):
            wire.open_envelope(payload)

    def test_malformed_envelopes_raise(self):
        for bad in (None, [], "x", {}, {"wire_version": 1},
                    {"wire_version": 1, "kind": "nope", "body": {}},
                    {"wire_version": 1, "kind": "outcome", "body": 3}):
            with pytest.raises(WireSchemaError):
                wire.open_envelope(bad)

    def test_outcome_decoder_rejects_other_kinds(self):
        with pytest.raises(WireSchemaError):
            wire.decode_outcome(wire.encode_rejection("admission", 0.5))

    def test_error_round_trip_is_typed(self):
        payload = json.loads(json.dumps(
            wire.encode_error(
                FlowQLSyntaxError("bad operator"),
                attempted_paths=["cloud"],
            )
        ))
        kind, body = wire.open_envelope(payload)
        assert kind == wire.KIND_ERROR
        error = wire.decode_error(body)
        assert isinstance(error, FlowQLSyntaxError)
        assert "bad operator" in str(error)
        assert "cloud" in str(error)

    def test_unknown_error_type_degrades_to_serve_error(self):
        error = wire.decode_error({"type": "Surprise", "message": "m"})
        assert isinstance(error, ServeError)

    def test_rejection_round_trip(self):
        payload = json.loads(json.dumps(
            wire.encode_rejection("backpressure", 0.25)
        ))
        kind, body = wire.open_envelope(payload)
        rejection = wire.decode_rejection(body)
        assert isinstance(rejection, AdmissionError)
        assert rejection.reason == "backpressure"
        assert rejection.retry_after_s == 0.25


# the hypothesis sweep: every outcome shape the planner can emit
# survives encode -> JSON -> decode exactly

wire_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1, max_size=12,
)
scores = st.builds(
    Score,
    packets=st.integers(min_value=0, max_value=10**6),
    bytes=st.integers(min_value=0, max_value=10**9),
    flows=st.integers(min_value=0, max_value=10**4),
)
rows = st.lists(
    st.tuples(
        wire_text,
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**4),
    ),
    max_size=6,
)
results = st.builds(
    FlowQLResult,
    operator=st.sampled_from(["total", "topk", "groupby", "hhh"]),
    rows=rows,
    scalar=st.one_of(st.none(), scores),
)
site_reads = st.builds(
    SiteRead,
    site=wire_text,
    level=st.sampled_from(["router", "region", "network"]),
    partitions=st.lists(wire_text, max_size=3),
    replica_partitions=st.lists(wire_text, max_size=2),
    shipped_bytes=st.integers(min_value=0, max_value=10**7),
)
windows = st.tuples(
    st.one_of(st.none(), st.floats(0, 1e6, allow_nan=False)),
    st.one_of(st.none(), st.floats(0, 1e6, allow_nan=False)),
)
cache_keys = st.one_of(
    st.none(), wire_text, st.integers(),
    st.tuples(wire_text, st.integers()),
)
plans = st.builds(
    QueryPlan,
    route=st.sampled_from([ROUTE_CLOUD, ROUTE_FEDERATED]),
    window=windows,
    level=st.one_of(st.none(), st.just("router")),
    sites=st.lists(wire_text, max_size=4),
    reads=st.lists(site_reads, max_size=3),
    cache_hit=st.booleans(),
    cache_key=cache_keys,
)
degradations = st.builds(
    Degradation,
    missing_sites=st.lists(wire_text, max_size=3, unique=True),
    stale_through=st.one_of(
        st.none(), st.floats(0, 1e6, allow_nan=False)
    ),
    reasons=st.lists(wire_text, max_size=3),
    attempted_paths=st.lists(wire_text, max_size=4, unique=True),
)
outcomes = st.builds(
    QueryOutcome,
    result=results,
    plan=plans,
    degradation=st.one_of(st.none(), degradations),
    cache=st.builds(CacheInfo, hit=st.booleans(), key=cache_keys),
)


class TestWireRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(outcome=outcomes)
    def test_encode_json_decode_is_identity(self, outcome):
        payload = json.loads(json.dumps(wire.encode_outcome(outcome)))
        rebuilt = wire.decode_outcome(payload)
        assert rebuilt.to_wire() == outcome.to_wire()
        # the typed surface survives, not just the dict form
        assert rebuilt.result.rows == outcome.result.rows
        assert rebuilt.result.columns == outcome.result.columns
        assert rebuilt.scalar == outcome.scalar
        assert rebuilt.plan.route == outcome.plan.route
        assert rebuilt.missing_sites == outcome.missing_sites
        assert rebuilt.is_degraded == outcome.is_degraded
        # ...and a second trip is exactly stable (idempotence)
        again = wire.decode_outcome(
            json.loads(json.dumps(wire.encode_outcome(rebuilt)))
        )
        assert again.to_wire() == rebuilt.to_wire()


# ---------------------------------------------------------------------------
# admission control units


class TestTokenBucket:
    def test_burst_then_starve(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=3.0, now=0.0)
        for _ in range(3):
            admitted, _ = bucket.try_acquire(0.0)
            assert admitted
        admitted, retry_after = bucket.try_acquire(0.0)
        assert not admitted
        assert retry_after == pytest.approx(0.1)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=3.0, now=0.0)
        for _ in range(3):
            bucket.try_acquire(0.0)  # drain the burst
        admitted, _ = bucket.try_acquire(0.05)
        assert not admitted
        admitted, _ = bucket.try_acquire(0.20)
        assert admitted

    def test_controller_isolates_clients(self):
        clock = [0.0]
        controller = AdmissionController(
            rate_per_s=1.0, burst=1.0, clock=lambda: clock[0]
        )
        assert controller.admit("alice")[0]
        admitted, retry_after = controller.admit("alice")
        assert not admitted and retry_after > 0
        # bob has his own bucket: alice's burn does not starve him
        assert controller.admit("bob")[0]
        assert controller.admitted == 2
        assert controller.rejected == 1
        assert controller.clients() == 2


class TestAdmissionBoundedClients:
    """The bucket map must stay bounded under client-id churn (the
    unbounded ``_buckets`` growth bug)."""

    def test_million_client_churn_stays_bounded(self):
        clock = [0.0]
        controller = AdmissionController(
            rate_per_s=100.0, burst=10.0, max_clients=512,
            clock=lambda: clock[0],
        )
        for index in range(1_000_000):
            clock[0] += 0.001
            controller.admit(f"scraper-{index}")
        assert controller.clients() <= 512
        assert controller.evicted == 1_000_000 - controller.clients()

    def test_idle_eviction_is_lossless(self):
        """A bucket idle past one refill-to-burst interval holds
        exactly ``burst`` tokens again — evicting and re-creating it
        must not change any admission decision."""
        clock = [0.0]
        controller = AdmissionController(
            rate_per_s=1.0, burst=2.0, max_clients=1024,
            clock=lambda: clock[0],
        )
        assert controller.admit("alice")[0]
        assert controller.admit("alice")[0]  # burst drained
        assert not controller.admit("alice")[0]
        clock[0] = 10.0  # idle well past burst/rate = 2s
        controller.admit("bob")  # any admit sweeps the idle front
        assert controller.evicted == 1
        assert controller.clients() == 1
        # alice returns with the same budget a kept bucket would have
        # refilled to: the full burst, then starvation again
        assert controller.admit("alice")[0]
        assert controller.admit("alice")[0]
        admitted, retry_after = controller.admit("alice")
        assert not admitted and retry_after > 0

    def test_lru_cap_evicts_least_recently_admitted(self):
        clock = [0.0]
        controller = AdmissionController(
            rate_per_s=100.0, burst=10.0, max_clients=2,
            clock=lambda: clock[0],
        )
        controller.admit("a")
        controller.admit("b")
        controller.admit("a")  # refresh: a is now most recent
        controller.admit("c")  # cap: evicts b, the stale front
        assert set(controller._buckets) == {"a", "c"}
        assert controller.evicted == 1

    def test_rejected_probes_also_bounded(self):
        """Clients that only ever get 429s must not pin map entries
        either (rate 0 blocks everyone, ttl falls back to one hour)."""
        clock = [0.0]
        controller = AdmissionController(
            rate_per_s=0.0, burst=1.0, max_clients=64,
            clock=lambda: clock[0],
        )
        for index in range(1000):
            clock[0] += 1.0
            controller.admit(f"probe-{index}")
        assert controller.clients() <= 64


class TestRetryAfterHeader:
    """RFC 9110 Retry-After is integer delta-seconds: the header must
    be a ``ceil()``ed integer, never fractional, never zero (a 0 reads
    as 'retry immediately' — a retry storm invitation)."""

    @pytest.mark.parametrize(
        ("retry_after_s", "expected"),
        [
            (0.050, "1"),
            (0.0, "1"),
            (0.999, "1"),
            (1.0, "1"),
            (1.2, "2"),
            (59.01, "60"),
            (1000.0, "1000"),
        ],
    )
    def test_ceiled_integer_never_zero(self, retry_after_s, expected):
        header = wire.retry_after_header(retry_after_s)
        assert header == expected
        assert header.isdigit() and int(header) >= 1


class TestGatewayRoutesFromTheMemo:
    """The gateway reads its route from the planner's query memo."""

    def test_generation_bump_replans(self):
        runtime = loaded_runtime(regions=1, routers=2, epochs=1)
        with ServePlane(runtime) as plane:
            memo = runtime.planner.memo
            text = f"SELECT TOTAL FROM ALL AT {ROUTER1}"
            assert plane.gateway._route(text) == ROUTER1
            assert (memo.misses, memo.replans) == (1, 0)
            # a reconfiguration bumps the generation: the kept plan is
            # stale, so the next lookup plans again (without parsing)
            runtime.model.bump("test")
            assert plane.gateway._route(text) == ROUTER1
            assert (memo.misses, memo.replans) == (1, 1)
        runtime.shutdown()

    def test_same_stamp_keeps_the_plan(self, monkeypatch):
        runtime = loaded_runtime(regions=1, routers=2, epochs=1)
        planned = []
        plan = runtime.planner.plan
        monkeypatch.setattr(
            runtime.planner, "plan",
            lambda query: planned.append(query) or plan(query),
        )
        with ServePlane(runtime) as plane:
            texts = ["SELECT TOTAL FROM ALL", f"SELECT TOPK(3) FROM "
                     f"TIME(0, 60) AT {ROUTER1}"]
            first = [plane.gateway._route(text) for text in texts]
            again = [plane.gateway._route(text) for text in texts]
            assert first == again == [plane.root_label, ROUTER1]
            # routing and executing share one entry: the node's execute
            # neither parses nor plans the text again
            for text in texts:
                runtime.query(text)
            assert len(planned) == 2
            memo = runtime.planner.memo
            assert (memo.hits, memo.misses, memo.replans) == (4, 2, 0)
        runtime.shutdown()

    def test_ad_hoc_texts_stay_within_the_cap(self):
        """Every ad-hoc query brings new text: the memo keeps the
        newest texts and an evicted text is simply parsed again."""
        runtime = loaded_runtime(
            regions=1, routers=2, epochs=1, flows_per_epoch=40
        )
        with ServePlane(runtime) as plane:
            gateway = plane.gateway
            memo = runtime.planner.memo
            texts = [
                f"SELECT TOPK({i}) FROM ALL"
                + (f" AT {ROUTER1}" if i % 2 else "")
                for i in range(5000)
            ]
            routed = {text: gateway._route(text) for text in texts}
            assert len(memo) <= MEMO_MAX == 1024
            assert routed[texts[0]] == plane.root_label
            assert routed[texts[1]] == ROUTER1
            for text in (texts[0], texts[1], texts[-1]):  # two evicted
                assert gateway._route(text) == routed[text]
            assert memo.hits == 1
            assert memo.hits + memo.misses + memo.replans == len(texts) + 3
            assert len(memo) <= MEMO_MAX
        runtime.shutdown()


# ---------------------------------------------------------------------------
# the served plane: HTTP answers are the in-process answers


@pytest.fixture(scope="module")
def served():
    """One loaded 4-level runtime behind a running serve plane."""
    runtime = loaded_runtime(regions=2, routers=1)
    with ServePlane(runtime) as plane:
        endpoint = plane.start_background()
        with FlowQLClient(endpoint=endpoint, client_id="pytest") as client:
            yield runtime, plane, client
    runtime.shutdown()


class TestServedAnswerIdentity:
    def test_cloud_query_identical(self, served):
        runtime, _plane, client = served
        text = "SELECT TOTAL FROM ALL"
        remote = client.query(text)
        local = runtime.query(text)
        assert remote.result.to_wire() == local.result.to_wire()
        assert remote.scalar == local.scalar
        assert remote.plan.route == ROUTE_CLOUD

    def test_federated_drilldown_identical(self, served):
        runtime, _plane, client = served
        text = f"SELECT TOPK(3) FROM ALL AT {ROUTER1} BY bytes"
        remote = client.query(text)
        local = runtime.query(text)
        assert remote.result.to_wire() == local.result.to_wire()
        assert remote.rows == local.rows
        assert remote.plan.route == ROUTE_FEDERATED

    def test_cache_provenance_crosses_the_wire(self, served):
        _runtime, _plane, client = served
        text = "SELECT GROUPBY(dst_port, 16) FROM ALL BY bytes LIMIT 5"
        first = client.query(text)
        second = client.query(text)
        assert second.result.to_wire() == first.result.to_wire()
        assert second.cache.hit
        assert second.plan.cache_hit

    def test_degraded_outcome_identical_under_outage(self, served):
        runtime, _plane, client = served
        text = "SELECT TOTAL FROM ALL AT network1/region1, network1/region2"
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage("network1/region1", 0, 10**9)])
        )
        try:
            remote = client.query(text)
            local = runtime.query(text)
        finally:
            runtime.inject_faults(None)
        assert remote.is_degraded and local.is_degraded
        assert remote.missing_sites == local.missing_sites
        assert remote.scalar == local.scalar
        assert (
            remote.degradation.attempted_paths
            == local.degradation.attempted_paths
        )
        assert remote.degradation.attempted_paths  # satellite: non-empty

    def test_syntax_error_is_typed_across_the_wire(self, served):
        _runtime, _plane, client = served
        with pytest.raises(FlowQLSyntaxError):
            client.query("SELECT NONSENSE FROM ALL")

    def test_health_census(self, served):
        _runtime, plane, client = served
        census = client.health()
        assert census["status"] == "ok"
        assert census["server_errors"] == 0
        assert set(census["nodes"]) == set(plane.nodes)
        assert census["requests_routed"] >= 4

    def test_drilldowns_route_to_edge_nodes(self, served):
        _runtime, plane, client = served
        client.query(f"SELECT TOTAL FROM ALL AT {ROUTER1}")
        assert plane.nodes[ROUTER1].requests_served >= 1


def raw_exchange(server, data: bytes) -> bytes:
    """``data`` on a new connection, half-closed; all the peer sends."""
    with socket.create_connection((server.host, server.port), 10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestHostileFraming:
    """Broken framing costs the sender a 400 (or, with nobody left to
    answer, a quiet close) — never an exception asyncio has to log,
    which the autouse guard in ``conftest.py`` turns into a failure."""

    HEAD = b"POST /v1/query HTTP/1.1\r\nContent-Length: %s\r\n\r\n"

    def servers(self, plane):
        return (plane.gateway, plane.nodes[ROUTER1])

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"+5", b"5 5"])
    def test_bad_content_length_is_a_400(self, served, length):
        _runtime, plane, client = served
        for server in self.servers(plane):
            reply = raw_exchange(server, self.HEAD % length)
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), reply
            kind, error = wire.open_envelope(json.loads(body))
            assert kind == wire.KIND_ERROR
            assert type(wire.decode_error(error)) is ServeError
            assert "Content-Length" in str(wire.decode_error(error))
        assert client.query("SELECT TOTAL FROM ALL").scalar.bytes > 0

    def test_truncated_body_closes_quietly(self, served):
        _runtime, plane, client = served
        for server in self.servers(plane):
            raw_exchange(server, self.HEAD % b"100" + b'{"query": "SEL')
        # a new connection is served as usual (and, answered on the
        # same loop, comes after anything the cut-short one logged)
        text = f"SELECT TOTAL FROM ALL AT {ROUTER1}"
        assert client.query(text).scalar.bytes > 0


class TestGatewayRelay:
    def test_reply_body_is_the_bytes_the_node_wrote(self, small_runtime):
        """The gateway passes the node's body on undecoded: a node
        spelling its JSON differently from the gateway's own encoder
        reaches the client byte for byte."""
        with ServePlane(small_runtime) as plane:
            node = plane.nodes[plane.root_label]
            dispatch = node._dispatch
            written = []

            async def respelled(request):
                head, _, body = (await dispatch(request)).partition(
                    b"\r\n\r\n"
                )
                body = json.dumps(json.loads(body), indent=1).encode()
                head = re.sub(
                    rb"Content-Length: \d+",
                    b"Content-Length: %d" % len(body),
                    head,
                )
                written.append(body)
                return head + b"\r\n\r\n" + body

            node._dispatch = respelled
            plane.start_background()
            connection = http.client.HTTPConnection(
                plane.gateway.host, plane.gateway.port, timeout=10
            )
            try:
                connection.request(
                    "POST",
                    "/v1/query",
                    body=json.dumps({"query": "SELECT TOTAL FROM ALL"}),
                )
                response = connection.getresponse()
                relayed = response.read()
            finally:
                connection.close()
        assert response.status == 200
        assert response.headers["X-Repro-Node"] == plane.root_label
        assert len(written) == 1 and relayed == written[0]
        outcome = wire.decode_outcome(json.loads(relayed))
        assert outcome.scalar == small_runtime.query(
            "SELECT TOTAL FROM ALL"
        ).scalar


# ---------------------------------------------------------------------------
# admission, backpressure, timeouts against small live planes


@pytest.fixture()
def small_runtime():
    runtime = loaded_runtime(
        regions=1, routers=2, epochs=1, flows_per_epoch=80
    )
    yield runtime
    runtime.shutdown()


class TestAdmissionOverHTTP:
    def test_shed_load_raises_typed_admission_error(self, small_runtime):
        plane = ServePlane(
            small_runtime, admission_rate_per_s=0.001, admission_burst=2.0
        )
        with plane:
            endpoint = plane.start_background()
            with FlowQLClient(
                endpoint=endpoint, client_id="greedy"
            ) as client:
                assert client.query("SELECT TOTAL FROM ALL").scalar
                client.query("SELECT TOTAL FROM ALL")
                with pytest.raises(AdmissionError) as excinfo:
                    client.query("SELECT TOTAL FROM ALL")
            assert excinfo.value.reason == "admission"
            assert excinfo.value.retry_after_s > 0
            census = plane.census()
            assert census["admission"]["rejected"] >= 1
            assert census["server_errors"] == 0

    def test_429_carries_retry_after_header(self, small_runtime):
        plane = ServePlane(
            small_runtime, admission_rate_per_s=0.001, admission_burst=1.0
        )
        with plane:
            plane.start_background()
            connection = http.client.HTTPConnection(
                plane.gateway.host, plane.gateway.port, timeout=10
            )
            try:
                payload = json.dumps(
                    {"query": "SELECT TOTAL FROM ALL", "client_id": "c"}
                )
                headers = {"Content-Type": "application/json"}
                statuses = []
                for _ in range(2):
                    connection.request(
                        "POST", "/v1/query", body=payload, headers=headers
                    )
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    statuses.append((response, body))
                response, body = statuses[1]
                assert response.status == 429
                header = response.headers["Retry-After"]
                assert header.isdigit()  # RFC 9110 delta-seconds
                assert int(header) >= 1
                kind, rejection = wire.open_envelope(body)
                assert kind == wire.KIND_REJECTED
                assert rejection["reason"] == "admission"
            finally:
                connection.close()

    def test_fractional_retry_rides_in_body_not_header(
        self, small_runtime
    ):
        """A sub-second retry hint must surface as an integer header
        (ceiled, never the RFC-invalid ``Retry-After: 0.050``) while
        the exact float stays in the rejection body."""
        plane = ServePlane(
            small_runtime, admission_rate_per_s=2.0, admission_burst=1.0
        )
        with plane:
            plane.start_background()
            connection = http.client.HTTPConnection(
                plane.gateway.host, plane.gateway.port, timeout=10
            )
            try:
                payload = json.dumps(
                    {"query": "SELECT TOTAL FROM ALL", "client_id": "f"}
                )
                headers = {"Content-Type": "application/json"}
                response = None
                for _ in range(2):
                    connection.request(
                        "POST", "/v1/query", body=payload, headers=headers
                    )
                    response = connection.getresponse()
                    body = json.loads(response.read())
                assert response.status == 429
                header = response.headers["Retry-After"]
                assert header == "1"  # ceil(<1s hint), not "0.4..."
                _, rejection = wire.open_envelope(body)
                exact = rejection["retry_after_s"]
                assert 0 < exact < 1  # the precise float, body only
            finally:
                connection.close()

    def test_admitted_clients_stay_correct_while_shedding(
        self, small_runtime
    ):
        """Load shedding must not corrupt admitted answers."""
        expected = small_runtime.query("SELECT TOTAL FROM ALL").scalar
        plane = ServePlane(
            small_runtime, admission_rate_per_s=0.001, admission_burst=1.0
        )
        with plane:
            endpoint = plane.start_background()
            answers, rejections = [], 0
            for index in range(6):
                with FlowQLClient(
                    endpoint=endpoint, client_id=f"c{index % 2}"
                ) as client:
                    try:
                        answers.append(
                            client.query("SELECT TOTAL FROM ALL").scalar
                        )
                    except AdmissionError:
                        rejections += 1
            assert rejections >= 4  # two bursts of one, four shed
            assert answers and all(
                answer == expected for answer in answers
            )


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, small_runtime):
        plane = ServePlane(
            small_runtime, queue_limit=1, admission_rate_per_s=10**6,
            admission_burst=10**6,
        )
        real_execute = plane.execute_on_node

        def slow_execute(label, query_text, trace_id):
            time.sleep(0.25)
            return real_execute(label, query_text, trace_id)

        plane.execute_on_node = slow_execute
        expected = small_runtime.query("SELECT TOTAL FROM ALL").scalar

        def one_client(index):
            with FlowQLClient(
                endpoint=plane.endpoint, client_id=f"bp{index}"
            ) as client:
                try:
                    return ("ok", client.query("SELECT TOTAL FROM ALL"))
                except AdmissionError as error:
                    return ("rejected", error)

        with plane:
            plane.start_background()
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(one_client, range(8)))
        served_answers = [o for kind, o in outcomes if kind == "ok"]
        rejections = [o for kind, o in outcomes if kind == "rejected"]
        assert rejections, "a 1-deep queue under 8 clients must shed"
        assert all(r.reason == "backpressure" for r in rejections)
        assert all(r.retry_after_s > 0 for r in rejections)
        assert served_answers, "admitted requests still complete"
        assert all(o.scalar == expected for o in served_answers)
        assert plane.census()["server_errors"] == 0

    def test_backpressure_429_header_is_integer(self, small_runtime):
        """The node's 429 (relayed by the gateway) must carry an
        RFC 9110 integer Retry-After, like the gateway's own."""
        plane = ServePlane(
            small_runtime, queue_limit=1, admission_rate_per_s=10**6,
            admission_burst=10**6,
        )
        real_execute = plane.execute_on_node

        def slow_execute(label, query_text, trace_id):
            time.sleep(0.25)
            return real_execute(label, query_text, trace_id)

        plane.execute_on_node = slow_execute

        def one_raw_request(index):
            connection = http.client.HTTPConnection(
                plane.gateway.host, plane.gateway.port, timeout=10
            )
            try:
                connection.request(
                    "POST",
                    "/v1/query",
                    body=json.dumps(
                        {
                            "query": "SELECT TOTAL FROM ALL",
                            "client_id": f"raw{index}",
                        }
                    ),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                return response.status, response.headers.get("Retry-After")
            finally:
                connection.close()

        with plane:
            plane.start_background()
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(one_raw_request, range(8)))
        rejected = [h for status, h in results if status == 429]
        assert rejected, "a 1-deep queue under 8 clients must shed"
        for header in rejected:
            assert header is not None
            assert header.isdigit() and int(header) >= 1


class TestDeadlineDegradation:
    def test_timeout_degrades_to_partial_outcome(self, small_runtime):
        plane = ServePlane(small_runtime, timeout_s=0.05)
        real_execute = plane.execute_on_node

        def slow_execute(label, query_text, trace_id):
            time.sleep(0.4)
            return real_execute(label, query_text, trace_id)

        plane.execute_on_node = slow_execute
        with plane:
            endpoint = plane.start_background()
            with FlowQLClient(endpoint=endpoint, client_id="t") as client:
                outcome = client.query("SELECT TOTAL FROM ALL")
        assert outcome.is_degraded
        assert outcome.degradation.attempted_paths
        assert any(
            "timeout" in reason for reason in outcome.degradation.reasons
        )
        assert outcome.scalar == Score()  # honest empty, not a lie
        assert plane.nodes[plane.root_label].timeouts >= 1


# ---------------------------------------------------------------------------
# the client facade and the deprecation shim


class TestFlowQLClientFacade:
    def test_exactly_one_backend_required(self):
        with pytest.raises(ServeError):
            FlowQLClient()
        with pytest.raises(ServeError):
            FlowQLClient(runtime=object(), endpoint="http://x:1")

    def test_in_process_backend_matches_runtime(self, small_runtime):
        client = FlowQLClient(runtime=small_runtime)
        outcome = client.query("SELECT TOTAL FROM ALL")
        assert outcome.scalar == small_runtime.query(
            "SELECT TOTAL FROM ALL"
        ).scalar

    def test_subscribe_returns_live_handle(self, small_runtime):
        client = FlowQLClient(runtime=small_runtime)
        handle = client.subscribe("SUBSCRIBE SELECT TOTAL FROM ALL")
        first = handle.latest()
        assert first is not None and first.mode == "init"
        assert first.result.scalar == small_runtime.query(
            "SELECT TOTAL FROM ALL"
        ).scalar
        handle.cancel()
        assert handle.poll() == []

    def test_now_is_an_in_process_knob(self):
        client = FlowQLClient(endpoint="http://127.0.0.1:1")
        with pytest.raises(ServeError):
            client.query("SELECT TOTAL FROM ALL", now=1.0)

    def test_unreachable_endpoint_is_a_serve_error(self):
        client = FlowQLClient(endpoint="http://127.0.0.1:9")
        with pytest.raises(ServeError):
            client.query("SELECT TOTAL FROM ALL")

    def test_bad_endpoint_url_rejected(self):
        with pytest.raises(ServeError):
            FlowQLClient(endpoint="ftp://host:1")


class TestAttemptedPathsInProcess:
    def test_degraded_outcome_names_attempted_nodes(self):
        runtime = loaded_runtime(regions=2, routers=1)
        try:
            runtime.inject_faults(
                FaultPlan(outages=[LinkOutage(ROUTER1, 0, 10**9)])
            )
            outcome = runtime.query(
                f"SELECT TOTAL FROM ALL AT {ROUTER1}"
            )
            assert outcome.is_degraded
            attempted = outcome.degradation.attempted_paths
            assert attempted, "degraded outcomes must name attempts"
            assert any("router1" in path for path in attempted)
        finally:
            runtime.shutdown()
