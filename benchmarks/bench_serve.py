"""Drill: the serving plane under a closed-loop client storm.

The paper's hierarchies exist to be *queried*, and ``repro serve``
turns the query plane into a networked one — so this drill drives it
the way a serving system is judged: a closed loop of concurrent clients
(each waits for its answer, honors ``Retry-After`` on a 429, then sends
its next query) against the 4-level network preset, all sharing one
event loop with the plane itself.  Real loopback TCP, real HTTP/1.1
framing, real bounded queues.  Three arms, one case each:

* **storm** — every client completes its script: nothing 500s, nothing
  hangs, every response decodes under the versioned wire schema
  (``incomplete``, ``server_errors``, ``client_errors`` = 0);
  queries/s and the latency percentiles are ``info`` rows — the
  open-loop serving *metric* belongs in ``BENCHMARK.json``;
* **identity** — every query of the mix, fetched over HTTP after the
  storm, is payload-identical to the in-process planner's answer,
  a degraded partial under a link outage included;
* **shedding** — a deliberately under-provisioned admission arm (tiny
  per-client buckets) sheds most of a burst with 429 + ``Retry-After``
  while every *admitted* answer stays correct.

``check_regression.py`` holds the gates; the committed record is the
1200-client storm, the CI size 128 clients.
"""

from __future__ import annotations

import asyncio
import json
import time

from benchmarks.conftest import depth4_runtime, rows
from repro.errors import WireSchemaError
from repro.faults import FaultPlan, LinkOutage
from repro.serve import ServePlane, wire
from repro.serve.http11 import HTTPConnection

SIZES = (
    {"clients": 128, "requests_per_client": 3},
    {"clients": 1200, "requests_per_client": 5},
)
EPOCHS = 2
FLOWS_PER_EPOCH = 600
DRILL_SITE = "network1/region1/router1"
#: kept out of the storm mix so its answer is never cached — the
#: degraded-identity probe needs a fresh federated read, not a cached
#: complete answer served through the outage
DEGRADED_SITE = "network1/region1/router2"

#: the mixed client script: cloud rollups, groupbys, edge drilldowns
QUERY_MIX = (
    "SELECT TOTAL FROM ALL",
    "SELECT TOPK(5) FROM ALL BY bytes",
    "SELECT GROUPBY(dst_port, 16) FROM ALL BY bytes LIMIT 5",
    f"SELECT TOPK(3) FROM ALL AT {DRILL_SITE} BY bytes",
    f"SELECT TOTAL FROM ALL AT {DRILL_SITE}",
)

#: a client that keeps getting 429s retries at most this many times
MAX_RETRIES = 50


def _retry_after_hint(headers, body) -> float:
    """The precise retry hint of one 429 response.

    The ``Retry-After`` header is RFC 9110 integer delta-seconds
    (ceiled, so a 50 ms hint reads ``1``); the rejection body carries
    the exact float.  Well-behaved clients prefer the body and fall
    back to the header.
    """
    try:
        _, rejection = wire.open_envelope(body)
        return float(rejection["retry_after_s"])
    except (WireSchemaError, KeyError, TypeError, ValueError):
        return float(headers.get("retry-after", "1"))


async def post_query(connection, body):
    """POST one query; ``(status, headers, decoded JSON body)``."""
    status, headers, raw = await connection.request(
        "POST", "/v1/query", body=body
    )
    return status, headers, json.loads(raw) if raw else None


def ensure_fd_headroom(needed: int = 8192) -> None:
    """Thousands of sockets need file descriptors; raise the soft cap."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < needed:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(needed, hard), hard)
            )
    except (ImportError, ValueError, OSError):  # pragma: no cover
        pass


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * len(sorted_values))
    )
    return sorted_values[index]


async def _one_client(
    plane, client_index, requests_per_client, latencies, counters
):
    """One closed-loop client: query, await, honor Retry-After, repeat."""
    # stagger connects so a thousand SYNs don't land in one instant
    await asyncio.sleep((client_index % 100) * 0.002)
    connection = HTTPConnection(plane.gateway.host, plane.gateway.port)
    client_id = f"client-{client_index}"
    try:
        for request_index in range(requests_per_client):
            text = QUERY_MIX[
                (client_index + request_index) % len(QUERY_MIX)
            ]
            started = time.perf_counter()
            for _ in range(MAX_RETRIES):
                status, headers, body = await post_query(
                    connection, {"query": text, "client_id": client_id}
                )
                if status != 429:
                    break
                counters["rejected_429"] += 1
                retry_after = _retry_after_hint(headers, body)
                if retry_after <= 0:
                    counters["bad_retry_after"] += 1
                await asyncio.sleep(min(retry_after, 0.5))
            elapsed = time.perf_counter() - started
            if status == 200:
                outcome = wire.decode_outcome(body)  # schema enforced
                counters[
                    "degraded" if outcome.is_degraded else "ok"
                ] += 1
                latencies.append(elapsed)
            else:
                counters["error"] += 1
    except Exception:  # noqa: BLE001 - any client crash fails the gate
        counters["client_crashes"] += 1
    finally:
        await connection.close()


async def run_storm(plane, clients, requests_per_client):
    """The closed loop; returns (latency list, counter dict, seconds)."""
    latencies: list = []
    counters = {
        "ok": 0,
        "degraded": 0,
        "rejected_429": 0,
        "bad_retry_after": 0,
        "error": 0,
        "client_crashes": 0,
    }
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _one_client(
                plane, index, requests_per_client, latencies, counters
            )
            for index in range(clients)
        )
    )
    return latencies, counters, time.perf_counter() - started


async def count_identity_mismatches(runtime, plane) -> int:
    """Every query in the mix, then a degraded partial under a link
    outage: how many HTTP payloads differ from the local payload."""
    mismatches = 0
    connection = HTTPConnection(plane.gateway.host, plane.gateway.port)

    async def remote_outcome(text):
        status, _headers, body = await post_query(
            connection, {"query": text, "client_id": "identity"}
        )
        assert status == 200, f"identity probe got HTTP {status}"
        return wire.decode_outcome(body)

    try:
        for text in QUERY_MIX:
            local = runtime.query(text)
            remote = await remote_outcome(text)
            if remote.result.to_wire() != local.result.to_wire():
                mismatches += 1
        runtime.inject_faults(
            FaultPlan(outages=[LinkOutage(DEGRADED_SITE, 0, 10**9)])
        )
        try:
            text = f"SELECT TOTAL FROM ALL AT {DEGRADED_SITE}"
            local = runtime.query(text)
            remote = await remote_outcome(text)
            if not (
                remote.is_degraded
                and local.is_degraded
                and remote.result.to_wire() == local.result.to_wire()
                and remote.missing_sites == local.missing_sites
            ):
                mismatches += 1
        finally:
            runtime.inject_faults(None)
    finally:
        await connection.close()
    return mismatches


async def run_shedding_arm(runtime) -> list:
    """An under-provisioned plane must shed bursts, not corrupt them."""
    expected = runtime.query("SELECT TOTAL FROM ALL").result.to_wire()
    plane = ServePlane(
        runtime, admission_rate_per_s=1.0, admission_burst=2.0
    )
    await plane.start()
    try:
        connection = HTTPConnection(
            plane.gateway.host, plane.gateway.port
        )
        admitted, rejected, wrong, bad_hints = 0, 0, 0, 0
        try:
            for client in range(8):  # 8 clients burst 5 each: 2 admitted
                for _ in range(5):
                    status, headers, body = await post_query(
                        connection,
                        {
                            "query": "SELECT TOTAL FROM ALL",
                            "client_id": f"burst-{client}",
                        },
                    )
                    if status == 429:
                        rejected += 1
                        kind, _body = wire.open_envelope(body)
                        if not (
                            kind == wire.KIND_REJECTED
                            and headers.get("retry-after", "").isdigit()
                            and _retry_after_hint(headers, body) > 0
                        ):
                            bad_hints += 1
                    else:
                        admitted += 1
                        outcome = wire.decode_outcome(body)
                        if outcome.result.to_wire() != expected:
                            wrong += 1
        finally:
            await connection.close()
        census = plane.census()
    finally:
        await plane.stop()
        plane.data_executor.shutdown(wait=True)
    return [
        ("admitted", "requests", admitted),
        ("rejected", "requests", rejected),
        ("admitted_wrong", "answers", wrong),
        ("bad_retry_after", "responses", bad_hints),
        ("gateway_rejections", "requests", census["admission"]["rejected"]),
    ]


async def _measure_async(runtime, clients, requests_per_client):
    # the storm arm provisions the queue for its own closed-loop
    # concurrency (every client can have one request in flight); the
    # shedding arm below is where refusal behavior is measured
    plane = ServePlane(runtime, queue_limit=max(2048, 2 * clients))
    await plane.start()
    try:
        latencies, counters, elapsed = await run_storm(
            plane, clients, requests_per_client
        )
        mismatches = await count_identity_mismatches(runtime, plane)
        census = plane.census()
    finally:
        await plane.stop()
        plane.data_executor.shutdown(wait=True)
    latencies.sort()
    total = clients * requests_per_client
    completed = counters["ok"] + counters["degraded"]
    storm = [
        ("clients", "clients", clients),
        ("incomplete", "requests", total - completed),
        ("server_errors", "responses", census["server_errors"]),
        ("client_errors", "requests",
         counters["error"] + counters["client_crashes"]),
        ("bad_retry_after", "responses", counters["bad_retry_after"]),
        ("rejected_429", "responses", counters["rejected_429"]),
        ("throughput_qps", "1/s", round(completed / elapsed, 1)),
        ("queue_peak", "requests", max(
            node["queue_peak"] for node in census["nodes"].values()
        )),
    ] + [
        (f"latency_p{percent}", "ms",
         round(percentile(latencies, percent / 100) * 1000, 3))
        for percent in (50, 90, 99)
    ]
    shedding = await run_shedding_arm(runtime)
    size = f"{clients}x{requests_per_client}"
    return (
        rows(f"{size}/storm", total, storm)
        + rows(f"{size}/identity", len(QUERY_MIX) + 1,
               [("identity_mismatches", "answers", mismatches)])
        + rows(f"{size}/shedding", 40, shedding)
    )


def measure(clients: int, requests_per_client: int) -> list:
    """The full serving sweep on a fresh loaded runtime."""
    ensure_fd_headroom(max(8192, 4 * clients))
    runtime = depth4_runtime(
        FLOWS_PER_EPOCH, EPOCHS, retain_partitions=True
    )
    try:
        return asyncio.run(
            _measure_async(runtime, clients, requests_per_client)
        )
    finally:
        runtime.shutdown()
