"""The FlowQL gateway: one public door, routed to the cheapest node.

:class:`FlowQLGateway` is the load balancer clients actually talk to.
Per request it:

1. **Meters the client** through the per-client token-bucket
   :class:`~repro.serve.admission.AdmissionController`; over-rate
   clients get HTTP 429 with an exact ``Retry-After`` and never touch
   a node queue.
2. **Routes** to the shallowest covering node from the plan the
   planner's front door keeps for the text (:class:`~repro.query.memo.
   QueryMemo`): a query the root FlowDB covers lands on the root
   coordinator, a single-site drilldown lands on that site's own node
   server, and a multi-site fan-out lands on the root (which
   coordinates the fan-out exactly as the in-process planner would).
   The node then executes from the same memo entry, and a stamp moved
   by a close or a reconfiguration re-plans the text for both.
3. **Forwards** over a keep-alive loopback connection, propagating the
   query span across the hop via the ``X-Repro-Trace`` header, and
   relays the node's response (including its 429 backpressure
   refusals) untouched.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import ReproError, ServeError
from repro.query.plan import ROUTE_CLOUD
from repro.serve import wire
from repro.serve.http11 import (
    HTTPConnectionPool,
    Request,
    read_request,
    response_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.plane import ServePlane


class FlowQLGateway:
    """The admission-controlled, coverage-routed front of the plane."""

    def __init__(
        self, plane: "ServePlane", host: str = "127.0.0.1"
    ) -> None:
        self.plane = plane
        self.host = host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: one keep-alive connection pool per node label, so forwards
        #: to the same node can be in flight concurrently
        self._connections: Dict[str, HTTPConnectionPool] = {}
        self._trace_ids = itertools.count(1)
        self.requests_routed = 0
        self.admission_rejections = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.plane.gateway_port,
            backlog=1024,  # thousands of clients may connect at once
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        for connection in self._connections.values():
            await connection.close()
        self._connections.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def endpoint(self) -> str:
        """The URL clients point ``FlowQLClient`` at."""
        if self.port is None:
            raise ServeError("gateway not started")
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServeError as exc:
                    writer.write(
                        response_bytes(400, wire.encode_error(exc))
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: Request) -> bytes:
        if request.method == "GET" and request.path == "/healthz":
            return response_bytes(200, self.plane.census())
        if request.method == "GET" and request.path == "/v1/metrics":
            return response_bytes(
                200, self.plane.runtime.obs.registry.snapshot()
            )
        if request.method == "POST" and request.path == "/v1/query":
            return await self._handle_query(request)
        if request.method == "POST" and request.path == "/v1/subscribe":
            return await self._handle_subscribe(request)
        if (
            request.method == "POST"
            and request.path == "/v1/subscribe/poll"
        ):
            return await self._handle_subscribe_poll(request)
        if (
            request.method == "POST"
            and request.path == "/v1/subscribe/cancel"
        ):
            return await self._handle_subscribe_cancel(request)
        return response_bytes(
            404,
            wire.encode_error(
                ServeError(f"unknown path {request.path!r}")
            ),
        )

    # -- the query hop -------------------------------------------------------

    async def _handle_query(self, request: Request) -> bytes:
        try:
            body = request.json()
        except ServeError as exc:
            return response_bytes(400, wire.encode_error(exc))
        if not isinstance(body, dict) or not isinstance(
            body.get("query"), str
        ):
            return response_bytes(
                400,
                wire.encode_error(
                    ServeError('query body needs {"query": "<flowql>"}')
                ),
            )
        client_id = str(
            body.get("client_id")
            or request.headers.get("x-repro-client")
            or "anonymous"
        )
        admitted, retry_after = self.plane.admission.admit(client_id)
        if not admitted:
            self.admission_rejections += 1
            self.plane.metrics.rejection("admission")
            return response_bytes(
                429,
                wire.encode_rejection("admission", retry_after),
                # RFC 9110: the header is integer delta-seconds; the
                # exact float rides in the rejection body
                headers={
                    "Retry-After": wire.retry_after_header(retry_after)
                },
            )
        query_text = body["query"]
        try:
            node = self._route(query_text)
        except ReproError as exc:
            return response_bytes(400, wire.encode_error(exc))
        trace_id = (
            request.headers.get("x-repro-trace")
            or f"g{next(self._trace_ids)}"
        )
        self.requests_routed += 1
        try:
            status, headers, payload = await self._forward(
                node, query_text, client_id, trace_id
            )
        except ServeError as exc:
            return response_bytes(503, wire.encode_error(exc))
        relay_headers = {"X-Repro-Node": node, "X-Repro-Trace": trace_id}
        if "retry-after" in headers:
            relay_headers["Retry-After"] = headers["retry-after"]
        # the node's body bytes, relayed undecoded
        return response_bytes(status, payload, headers=relay_headers)

    # -- standing queries ----------------------------------------------------
    #
    # Subscriptions are runtime-global state (the planner's registry),
    # not per-node capacity, so the gateway serves them directly rather
    # than forwarding: registration runs on the plane's serialized data
    # executor (it performs planner reads), while long-poll *waits* run
    # on the loop's default executor so a thousand idle pollers cannot
    # starve the one data-plane thread.

    #: ceiling on one long-poll wait; clients just poll again
    MAX_POLL_WAIT_S = 30.0

    async def _handle_subscribe(self, request: Request) -> bytes:
        try:
            body = request.json()
        except ServeError as exc:
            return response_bytes(400, wire.encode_error(exc))
        if not isinstance(body, dict) or not isinstance(
            body.get("query"), str
        ):
            return response_bytes(
                400,
                wire.encode_error(
                    ServeError(
                        'subscribe body needs {"query": "<flowql>"}'
                    )
                ),
            )
        client_id = str(
            body.get("client_id")
            or request.headers.get("x-repro-client")
            or "anonymous"
        )
        admitted, retry_after = self.plane.admission.admit(client_id)
        if not admitted:
            self.admission_rejections += 1
            self.plane.metrics.rejection("admission")
            return response_bytes(
                429,
                wire.encode_rejection("admission", retry_after),
                headers={
                    "Retry-After": wire.retry_after_header(retry_after)
                },
            )
        registry = self.plane.runtime.planner.subscriptions
        loop = asyncio.get_running_loop()
        try:
            subscription = await loop.run_in_executor(
                self.plane.data_executor, registry.register, body["query"]
            )
        except ReproError as exc:
            return response_bytes(400, wire.encode_error(exc))
        return response_bytes(
            200,
            wire.encode_subscribed(
                subscription.id, subscription.latest()
            ),
        )

    async def _handle_subscribe_poll(self, request: Request) -> bytes:
        try:
            body = request.json()
        except ServeError as exc:
            return response_bytes(400, wire.encode_error(exc))
        if not isinstance(body, dict) or not isinstance(
            body.get("subscription_id"), str
        ):
            return response_bytes(
                400,
                wire.encode_error(
                    ServeError(
                        "poll body needs "
                        '{"subscription_id": "...", "cursor": <seq>}'
                    )
                ),
            )
        try:
            cursor = int(body.get("cursor", 0))
            timeout_s = min(
                float(body.get("timeout_s", 0.0)), self.MAX_POLL_WAIT_S
            )
        except (TypeError, ValueError):
            return response_bytes(
                400,
                wire.encode_error(
                    ServeError("cursor/timeout_s must be numbers")
                ),
            )
        registry = self.plane.runtime.planner.subscriptions
        loop = asyncio.get_running_loop()
        updates, resync, known = await loop.run_in_executor(
            None,  # the default pool: waits must not hold the data thread
            registry.wait_for,
            body["subscription_id"],
            cursor,
            timeout_s,
        )
        if not known:
            return response_bytes(
                404,
                wire.encode_error(
                    ServeError(
                        "unknown subscription "
                        f"{body['subscription_id']!r} (cancelled, or "
                        "registered against a previous server run)"
                    )
                ),
            )
        next_cursor = updates[-1].seq if updates else cursor
        return response_bytes(
            200, wire.encode_updates(updates, next_cursor, resync)
        )

    async def _handle_subscribe_cancel(self, request: Request) -> bytes:
        try:
            body = request.json()
        except ServeError as exc:
            return response_bytes(400, wire.encode_error(exc))
        if not isinstance(body, dict) or not isinstance(
            body.get("subscription_id"), str
        ):
            return response_bytes(
                400,
                wire.encode_error(
                    ServeError(
                        'cancel body needs {"subscription_id": "..."}'
                    )
                ),
            )
        registry = self.plane.runtime.planner.subscriptions
        cancelled = registry.cancel(body["subscription_id"])
        return response_bytes(200, {"cancelled": cancelled})

    def _route(self, query_text: str) -> str:
        """The serving node for one query, from the planner's memo."""
        front = self.plane.runtime.planner.memo.front(query_text)
        if front.route == ROUTE_CLOUD or len(front.sites) != 1:
            # the root coordinates cloud answers and multi-site fan-outs
            return self.plane.root_label
        node = front.sites[0]
        return node if node in self.plane.nodes else self.plane.root_label

    async def _forward(
        self, node: str, query_text: str, client_id: str, trace_id: str
    ) -> Tuple[int, Dict[str, str], bytes]:
        connection = self._connections.get(node)
        if connection is None:
            server = self.plane.nodes[node]
            connection = self._connections[node] = HTTPConnectionPool(
                server.host, server.port
            )
        return await connection.request(
            "POST",
            "/v1/query",
            body={"query": query_text, "client_id": client_id},
            headers={
                "X-Repro-Trace": trace_id,
                "X-Repro-Client": client_id,
            },
        )
