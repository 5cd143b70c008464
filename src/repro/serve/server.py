"""One HTTP serving endpoint per hierarchy node.

A :class:`NodeServer` is the *serving resource* in front of one
store-bearing hierarchy node (or the root coordinator): an asyncio
HTTP/1.1 listener with a bounded request queue and a fixed worker
count.  In this in-process simulation every node server shares one
event loop and executes through the plane's serialized data-plane
executor (the federated planner performs the actual partition reads,
exactly as an in-process query would — which is what makes remote
answers answer-identical to local ones); what the node server models
is the *capacity* of that node's front door:

* **Backpressure** — a full queue refuses immediately with HTTP 429
  and a ``Retry-After`` derived from the queue's observed drain rate,
  instead of absorbing unbounded work.
* **Timeouts** — a request that exceeds the plane's deadline degrades
  to a *partial* :class:`~repro.query.plan.QueryOutcome` (HTTP 200
  with a :class:`~repro.query.plan.Degradation` naming this node in
  ``attempted_paths``) rather than hanging the client.
* **Observability** — per-node request/latency/queue-depth metric
  families plus a ``serve`` span per executed query, linked to the
  gateway hop through the propagated trace id.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError, ServeError
from repro.flowql.ast import FlowQLQuery
from repro.flowql.executor import FlowQLResult
from repro.flows.records import Score
from repro.query.plan import (
    ROUTE_FEDERATED,
    Degradation,
    QueryOutcome,
    QueryPlan,
)
from repro.serve import wire
from repro.serve.http11 import Request, read_request, response_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.plane import ServePlane


def timeout_outcome(
    query: FlowQLQuery, node_label: str, node_path: str, timeout_s: float
) -> QueryOutcome:
    """The honest partial answer for a query that blew its deadline."""
    degradation = Degradation()
    degradation.note(
        node_label,
        None,
        f"timeout after {timeout_s:g}s at node {node_label!r}",
        attempted=[node_path],
    )
    plan = QueryPlan(
        route=ROUTE_FEDERATED,
        window=(query.time.start, query.time.end),
        sites=list(query.sites),
    )
    # scalar operators answer an honest zero Score, row operators an
    # honest empty row set — same shape a fully-outaged planner returns
    operator = query.select.name
    scalar = Score() if operator in ("total", "query") else None
    return QueryOutcome(
        result=FlowQLResult(operator=operator, scalar=scalar),
        plan=plan,
        degradation=degradation,
    )


class NodeServer:
    """The bounded HTTP front door of one hierarchy node."""

    def __init__(
        self,
        plane: "ServePlane",
        label: str,
        path: str,
        host: str = "127.0.0.1",
    ) -> None:
        self.plane = plane
        #: root-relative site label ("network1/region1/router1", or the
        #: root's name for the coordinator)
        self.label = label
        #: absolute hierarchy node path (lands in attempted_paths)
        self.path = path
        self.host = host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._workers: list = []
        #: queue census for the benchmark's backpressure stats
        self.queue_peak = 0
        self.backpressure_rejections = 0
        self.requests_served = 0
        self.timeouts = 0
        #: decaying estimate of one request's service time (seeds the
        #: Retry-After hint on backpressure refusals)
        self._service_estimate_s = 0.005

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.plane.queue_limit)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, 0, backlog=1024
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.plane.workers_per_node)
        ]

    async def stop(self) -> None:
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._workers = []
        if self._queue is not None:
            # resolve anything still queued so no handler hangs forever
            while not self._queue.empty():
                _text, _trace, future = self._queue.get_nowait()
                if not future.done():
                    future.set_result(
                        response_bytes(
                            503,
                            wire.encode_error(
                                ServeError("node server shut down")
                            ),
                        )
                    )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

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
        except (ConnectionError, OSError):  # peer went away mid-write
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: Request) -> bytes:
        if request.method == "GET" and request.path == "/healthz":
            return response_bytes(
                200,
                {
                    "status": "ok",
                    "node": self.label,
                    "queue_depth": self._queue.qsize(),
                    "generation": self.plane.generation(),
                },
            )
        if request.method == "POST" and request.path == "/v1/query":
            return await self._handle_query(request)
        if request.path in ("/healthz", "/v1/query"):
            return response_bytes(
                405, wire.encode_error(ServeError("method not allowed"))
            )
        return response_bytes(
            404,
            wire.encode_error(
                ServeError(f"unknown path {request.path!r}")
            ),
        )

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
        trace_id = request.headers.get("x-repro-trace", "")
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        try:
            self._queue.put_nowait((body["query"], trace_id, future))
        except asyncio.QueueFull:
            self.backpressure_rejections += 1
            self.plane.metrics.rejection("backpressure")
            self.plane.metrics.request(self.label, "rejected", 0.0)
            # the whole queue must drain before a retry can be enqueued
            retry_after = max(
                0.001,
                self.plane.queue_limit * self._service_estimate_s,
            )
            return response_bytes(
                429,
                wire.encode_rejection("backpressure", retry_after),
                # RFC 9110: the header is integer delta-seconds; the
                # exact float rides in the rejection body
                headers={
                    "Retry-After": wire.retry_after_header(retry_after)
                },
            )
        self._note_queue_depth()
        return await future

    # -- execution -----------------------------------------------------------

    def _note_queue_depth(self) -> None:
        depth = self._queue.qsize()
        self.queue_peak = max(self.queue_peak, depth)
        self.plane.metrics.set_queue_depth(
            self.label, depth, self.queue_peak
        )

    async def _worker(self) -> None:
        while True:
            query_text, trace_id, future = await self._queue.get()
            started = time.perf_counter()
            try:
                response = await self._execute(query_text, trace_id)
            except asyncio.CancelledError:
                if not future.done():
                    future.set_result(
                        response_bytes(
                            503,
                            wire.encode_error(
                                ServeError("node server shutting down")
                            ),
                        )
                    )
                raise
            except ReproError as exc:
                self.plane.metrics.request(
                    self.label, "error", time.perf_counter() - started
                )
                response = response_bytes(400, wire.encode_error(exc))
            except Exception as exc:  # noqa: BLE001 - the 500 boundary
                self.plane.server_errors += 1
                self.plane.metrics.request(
                    self.label, "error", time.perf_counter() - started
                )
                response = response_bytes(
                    500,
                    wire.encode_error(
                        ServeError(
                            f"internal error at {self.label!r}: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    ),
                )
            elapsed = time.perf_counter() - started
            self._service_estimate_s = (
                0.8 * self._service_estimate_s + 0.2 * elapsed
            )
            if not future.done():
                future.set_result(response)
            self._queue.task_done()
            self._note_queue_depth()

    async def _execute(self, query_text: str, trace_id: str) -> bytes:
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        call = loop.run_in_executor(
            self.plane.data_executor,
            self.plane.execute_on_node,
            self.label,
            query_text,
            trace_id,
        )
        try:
            outcome = await asyncio.wait_for(
                call, timeout=self.plane.timeout_s
            )
        except asyncio.TimeoutError:
            self.timeouts += 1
            outcome = timeout_outcome(
                self.plane.runtime.planner.memo.parse(query_text),
                self.label, self.path, self.plane.timeout_s
            )
        self.requests_served += 1
        status = "degraded" if outcome.is_degraded else "ok"
        self.plane.metrics.request(
            self.label, status, time.perf_counter() - started
        )
        return response_bytes(200, wire.encode_outcome(outcome))
