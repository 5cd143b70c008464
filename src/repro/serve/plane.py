"""`repro serve`: the networked FlowQL serving plane.

:class:`ServePlane` stands up the whole serving fabric for one
:class:`~repro.runtime.runtime.HierarchyRuntime` on a single asyncio
event loop: one :class:`~repro.serve.server.NodeServer` per
store-bearing hierarchy node plus a root coordinator, fronted by one
:class:`~repro.serve.gateway.FlowQLGateway`.  The simulation runs
everything in-process over loopback TCP — real sockets, real HTTP
framing, real backpressure — while the data plane itself (partition
reads, merges, cache, replication feed) stays the federated planner,
serialized through one executor thread so that a remote answer is
byte-for-byte the answer an in-process ``runtime.query`` returns.

Use it asynchronously from an event loop (the benchmark does)::

    plane = ServePlane(runtime)
    await plane.start()
    ...
    await plane.stop()

or synchronously from blocking code (the CLI and ``FlowQLClient``
tests do)::

    with ServePlane(runtime) as plane:
        endpoint = plane.start_background()
        client = FlowQLClient(endpoint=endpoint)
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ServeError
from repro.obs.bridge import SERVE
from repro.query.plan import QueryOutcome
from repro.serve.admission import AdmissionController
from repro.serve.gateway import FlowQLGateway
from repro.serve.server import NodeServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import HierarchyRuntime


class ServePlane:
    """Every serving endpoint of one runtime, on one event loop."""

    def __init__(
        self,
        runtime: "HierarchyRuntime",
        host: str = "127.0.0.1",
        gateway_port: int = 0,
        queue_limit: int = 64,
        workers_per_node: int = 1,
        timeout_s: float = 5.0,
        admission_rate_per_s: float = 200.0,
        admission_burst: float = 50.0,
        admission_max_clients: int = 4096,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if queue_limit < 1 or workers_per_node < 1 or timeout_s <= 0:
            raise ServeError(
                "ServePlane needs queue_limit >= 1, workers_per_node "
                ">= 1, timeout_s > 0"
            )
        self.runtime = runtime
        self.host = host
        self.gateway_port = gateway_port
        self.queue_limit = queue_limit
        self.workers_per_node = workers_per_node
        self.timeout_s = timeout_s
        self.admission = admission or AdmissionController(
            rate_per_s=admission_rate_per_s,
            burst=admission_burst,
            max_clients=admission_max_clients,
        )
        #: the one thread the planner executes on: queries from every
        #: node server serialize here, which both models the shared
        #: data plane and keeps the planner/cache single-threaded
        self.data_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-data"
        )
        #: label → NodeServer, root coordinator included
        self.nodes: Dict[str, NodeServer] = {}
        self.root_label = runtime.hierarchy.root.location.path
        self.gateway = FlowQLGateway(self, host=host)
        #: unhandled (HTTP 500) failures — the benchmark gate pins 0
        self.server_errors = 0
        self._started = False
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._build_nodes()
        runtime.obs.install(SERVE, self)

    def _build_nodes(self) -> None:
        runtime = self.runtime
        self.nodes[self.root_label] = NodeServer(
            self,
            self.root_label,
            runtime.hierarchy.root.location.path,
            host=self.host,
        )
        for level in runtime.store_levels():
            for label, store in runtime.stores_at_level(level).items():
                self.nodes[label] = NodeServer(
                    self, label, store.location.path, host=self.host
                )

    # -- the data plane hop --------------------------------------------------

    def generation(self) -> int:
        """The runtime's live topology generation."""
        return self.runtime.model.generation

    def execute_on_node(
        self, label: str, query_text: str, trace_id: str
    ) -> QueryOutcome:
        """Run one query on behalf of a node (data-executor thread).

        The ``serve`` span wraps the planner's own ``query`` span, so a
        trace shows gateway-routed requests as
        ``serve(node, trace) -> query(route, cache)`` — the propagated
        trace id is what stitches the two HTTP hops together.
        """
        with self.runtime.obs.span(
            "serve", node=label, trace=trace_id
        ) as span:
            outcome = self.runtime.planner.execute(query_text)
            span.set_attr("degraded", outcome.is_degraded)
        return outcome

    # -- lifecycle (async) ---------------------------------------------------

    async def start(self) -> None:
        """Boot every node server, then the gateway."""
        if self._started:
            raise ServeError("serve plane already started")
        for server in self.nodes.values():
            await server.start()
        await self.gateway.start()
        self._started = True

    async def stop(self) -> None:
        if not self._started:
            return
        await self.gateway.stop()
        for server in self.nodes.values():
            await server.stop()
        self._started = False

    # -- lifecycle (blocking callers) ----------------------------------------

    def start_background(self) -> str:
        """Run the plane's event loop in a daemon thread.

        Returns the gateway endpoint URL.  For the CLI and synchronous
        clients; async callers should ``await plane.start()`` on their
        own loop instead.
        """
        if self._thread is not None:
            raise ServeError("serve plane already running in background")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        boot_error: list = []

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.start())
            except Exception as exc:  # noqa: BLE001 - reported to caller
                boot_error.append(exc)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30):
            raise ServeError("serve plane failed to start in 30s")
        if boot_error:
            self._thread.join(timeout=5)
            self._thread = None
            raise ServeError(f"serve plane boot failed: {boot_error[0]}")
        return self.endpoint

    def close(self) -> None:
        """Stop the background plane (no-op when never started)."""
        if self._thread is not None and self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.stop(), self._loop
            )
            future.result(timeout=30)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop.close()
            self._thread = None
            self._loop = None
        self.data_executor.shutdown(wait=True)

    def __enter__(self) -> "ServePlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    @property
    def endpoint(self) -> str:
        """The gateway URL (valid once started)."""
        return self.gateway.endpoint

    def census(self) -> dict:
        """A JSON-able snapshot of the plane (gateway ``/healthz``)."""
        memo = self.runtime.planner.memo
        return {
            "status": "ok",
            "generation": self.generation(),
            "gateway_port": self.gateway.port,
            "root": self.root_label,
            "nodes": {
                label: {
                    "port": server.port,
                    "path": server.path,
                    "requests": server.requests_served,
                    "queue_peak": server.queue_peak,
                    "backpressure_rejections": (
                        server.backpressure_rejections
                    ),
                    "timeouts": server.timeouts,
                }
                for label, server in sorted(self.nodes.items())
            },
            "admission": {
                "clients": self.admission.clients(),
                "admitted": self.admission.admitted,
                "rejected": self.admission.rejected,
                "evicted": self.admission.evicted,
                "rate_per_s": self.admission.rate_per_s,
                "burst": self.admission.burst,
                "max_clients": self.admission.max_clients,
            },
            "subscriptions": (
                self.runtime.planner.subscriptions.census()
            ),
            "memo": {
                "entries": len(memo),
                "hits": memo.hits,
                "misses": memo.misses,
                "replans": memo.replans,
            },
            "requests_routed": self.gateway.requests_routed,
            "server_errors": self.server_errors,
        }
