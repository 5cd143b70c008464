"""``FlowQLClient``: the one query API, local or networked.

Scenario apps, the CLI, and tests used to reach into the runtime (or
its planner) directly, which hard-wired them to in-process execution.
:class:`FlowQLClient` is the typed facade that hides *where* a query
runs:

* ``FlowQLClient(runtime=rt)`` executes through the runtime's
  federated planner in-process, exactly as ``rt.query`` does.
* ``FlowQLClient(endpoint="http://host:port")`` POSTs the query to a
  ``repro serve`` gateway and rebuilds the typed
  :class:`~repro.query.plan.QueryOutcome` from the versioned wire
  envelope — including cache provenance and degradation — so calling
  code cannot tell a remote answer from a local one.

Either way, :meth:`query` returns a :class:`QueryOutcome` and raises
the same typed errors (:class:`~repro.errors.FlowQLSyntaxError`,
:class:`~repro.errors.FlowQLPlanningError`); rate-limited or
backpressured requests raise :class:`~repro.errors.AdmissionError`
carrying the server's retry hint (the exact float from the rejection
body, with the integer ``Retry-After`` header as fallback).

:meth:`subscribe` is the standing-query counterpart: it registers
``SUBSCRIBE <flowql>`` with the planner's delta-maintaining
registry — directly in-process, or through the gateway's
``/v1/subscribe`` + long-poll ``/v1/subscribe/poll`` routes — and
returns a :class:`SubscriptionHandle` that yields typed
:class:`~repro.query.subscriptions.SubscriptionUpdate` snapshots.  The
HTTP handle tracks a cursor, so a reconnect resumes exactly where the
client left off (or resyncs to the newest snapshot when the gap
outgrew the server's replay ring).

The HTTP backend speaks the plane's own framing
(:mod:`repro.serve.http11`, the one HTTP/1.1 module the servers and
the gateway's forward use too) over one blocking keep-alive socket:
each request leaves in one write, and only a stale keep-alive (closed
or reset before the reply's first byte) is retried, once.  A reply
that does not come within ``timeout_s`` — plus the wait a long-poll
asks the server to hold it — is a :class:`~repro.errors.ServeError`,
never re-sent.
"""

from __future__ import annotations

import json
import socket
import urllib.parse
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.errors import ServeError, WireSchemaError
from repro.query.plan import QueryOutcome
from repro.query.subscriptions import Subscription, SubscriptionUpdate
from repro.serve import http11, wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import HierarchyRuntime


class SubscriptionHandle:
    """One standing query as the client sees it, backend-agnostic.

    * :meth:`poll` — updates newer than the handle's cursor, blocking
      up to ``wait_s`` for fresh ones (0 = return immediately).
    * :meth:`latest` — the most recent snapshot (None before the
      query first materializes).
    * :meth:`updates` — an iterator of update batches; each ``next()``
      long-polls once.
    * :meth:`cancel` — deregister; further polls return nothing.

    ``resynced`` flips to True when the handle's cursor had aged out of
    the server's replay ring and the stream jumped forward — every
    update is a complete snapshot, so only history was lost.
    """

    def __init__(self, subscription_id: str) -> None:
        self.id = subscription_id
        self.cursor = 0
        self.resynced = False
        self.cancelled = False

    # subclasses implement the transport
    def poll(self, wait_s: float = 0.0) -> List[SubscriptionUpdate]:
        raise NotImplementedError

    def latest(self) -> Optional[SubscriptionUpdate]:
        raise NotImplementedError

    def cancel(self) -> None:
        raise NotImplementedError

    def updates(
        self, wait_s: float = 30.0
    ) -> Iterator[List[SubscriptionUpdate]]:
        """Long-poll forever (until cancelled), yielding batches."""
        while not self.cancelled:
            batch = self.poll(wait_s=wait_s)
            if batch:
                yield batch


class InProcessSubscription(SubscriptionHandle):
    """A handle wrapping the planner registry's own Subscription."""

    def __init__(self, subscription: Subscription) -> None:
        super().__init__(subscription.id)
        self._subscription = subscription
        self._registry = subscription._registry

    def poll(self, wait_s: float = 0.0) -> List[SubscriptionUpdate]:
        if self.cancelled:
            return []
        pending, resynced, known = self._registry.wait_for(
            self.id, self.cursor, wait_s
        )
        if not known:
            self.cancelled = True
            return []
        if resynced:
            self.resynced = True
        if pending:
            self.cursor = pending[-1].seq
        return pending

    def latest(self) -> Optional[SubscriptionUpdate]:
        return self._subscription.latest()

    def cancel(self) -> None:
        self.cancelled = True
        self._subscription.cancel()


class HTTPSubscription(SubscriptionHandle):
    """A handle speaking the gateway's subscribe/poll/cancel routes."""

    def __init__(
        self,
        client: "FlowQLClient",
        subscription_id: str,
        first: Optional[SubscriptionUpdate],
    ) -> None:
        super().__init__(subscription_id)
        self._client = client
        self._latest = first
        if first is not None:
            self.cursor = first.seq

    def poll(self, wait_s: float = 0.0) -> List[SubscriptionUpdate]:
        if self.cancelled:
            return []
        status, _headers, body = self._client._request(
            "POST",
            "/v1/subscribe/poll",
            {
                "subscription_id": self.id,
                "cursor": self.cursor,
                "timeout_s": wait_s,
            },
            wait_s=wait_s,
        )
        if status == 404:
            # cancelled elsewhere, or the server restarted and lost us
            self.cancelled = True
            return []
        if status != 200:
            raise self._client._wire_failure(status, body)
        updates, cursor, resync = wire.decode_updates(body)
        self.cursor = cursor
        if resync:
            self.resynced = True
        if updates:
            self._latest = updates[-1]
        return updates

    def latest(self) -> Optional[SubscriptionUpdate]:
        return self._latest

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._client._request(
            "POST", "/v1/subscribe/cancel", {"subscription_id": self.id}
        )


class FlowQLClient:
    """One typed FlowQL facade over a runtime or a served endpoint."""

    def __init__(
        self,
        runtime: Optional["HierarchyRuntime"] = None,
        endpoint: Optional[str] = None,
        client_id: str = "local",
        timeout_s: float = 30.0,
    ) -> None:
        if (runtime is None) == (endpoint is None):
            raise ServeError(
                "FlowQLClient needs exactly one of runtime= "
                "(in-process) or endpoint= (HTTP)"
            )
        self.runtime = runtime
        self.client_id = client_id
        self.timeout_s = timeout_s
        self._socket: Optional[socket.socket] = None
        self._stream = None  # the socket's buffered reader
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._authority: Optional[str] = None
        if endpoint is not None:
            parsed = urllib.parse.urlparse(endpoint)
            if parsed.scheme not in ("http", "") or not (
                parsed.hostname or parsed.path
            ):
                raise ServeError(f"bad endpoint URL {endpoint!r}")
            # accept both "http://host:port" and bare "host:port"
            if parsed.hostname:
                self._host = parsed.hostname
                self._port = parsed.port or 80
            else:
                host, _, port = parsed.path.partition(":")
                self._host = host
                self._port = int(port) if port else 80
            self._authority = f"{self._host}:{self._port}"
        self.endpoint = endpoint

    # -- the API -------------------------------------------------------------

    def query(
        self, flowql: str, now: Optional[float] = None
    ) -> QueryOutcome:
        """Run one FlowQL query; returns the typed outcome.

        ``now`` only applies in-process (a served plane keeps its own
        clock); passing it with an HTTP backend raises.
        """
        if self.runtime is not None:
            return self.runtime.query(flowql, now=now)
        if now is not None:
            raise ServeError(
                "now= is an in-process knob; a served endpoint keeps "
                "its own clock"
            )
        return self._query_http(flowql)

    def subscribe(
        self,
        flowql: str,
        on_update: Optional[
            Callable[[SubscriptionUpdate], None]
        ] = None,
    ) -> SubscriptionHandle:
        """Register one standing query; returns its handle.

        Accepts ``SUBSCRIBE SELECT ...`` or bare ``SELECT ...``.  The
        planner materializes the query once and delta-maintains it at
        every epoch close; the handle's :meth:`~SubscriptionHandle.
        poll` / :meth:`~SubscriptionHandle.updates` yield one typed
        snapshot per close, identical to re-running :meth:`query`.

        ``on_update`` (a callback fired synchronously per update)
        only applies in-process; an HTTP handle is poll-driven.
        """
        if self.runtime is not None:
            return InProcessSubscription(
                self.runtime.subscribe(flowql, on_update=on_update)
            )
        if on_update is not None:
            raise ServeError(
                "on_update= is an in-process knob; poll an HTTP "
                "subscription (handle.poll / handle.updates) instead"
            )
        status, _headers, body = self._request(
            "POST",
            "/v1/subscribe",
            {"query": flowql, "client_id": self.client_id},
        )
        if status != 200:
            raise self._wire_failure(status, body)
        subscription_id, first = wire.decode_subscribed(body)
        return HTTPSubscription(self, subscription_id, first)

    def health(self) -> dict:
        """The served plane's census (HTTP backends only)."""
        if self.runtime is not None:
            raise ServeError("health() needs an HTTP endpoint")
        status, _headers, body = self._request("GET", "/healthz")
        if status != 200:
            raise ServeError(f"healthz returned HTTP {status}")
        return body

    def close(self) -> None:
        """Drop the keep-alive connection (HTTP backends)."""
        if self._socket is not None:
            self._stream.close()
            self._socket.close()
            self._socket = self._stream = None

    def __enter__(self) -> "FlowQLClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- HTTP transport ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: object = None,
        wait_s: float = 0.0,
    ):
        """One exchange: ``(status, lower-cased headers, parsed JSON)``.

        ``wait_s`` is how long the server may hold the reply on purpose
        (a long-poll); the socket's read deadline is ``timeout_s`` plus
        it.  Only a stale keep-alive is retried, once, on a fresh
        connection; a timeout or a broken reply raises at once.
        """
        message = http11.request_bytes(
            method,
            path,
            self._authority,
            body,
            {"X-Repro-Client": self.client_id},
        )
        deadline_s = self.timeout_s + wait_s
        for attempt in (0, 1):
            try:
                reply = self._exchange(message, deadline_s)
            except TimeoutError:
                self.close()
                raise ServeError(
                    f"serve endpoint {self._authority} did not answer "
                    f"within {deadline_s:g} s"
                )
            except (ServeError, OSError) as exc:
                self.close()
                raise ServeError(
                    f"serve endpoint {self._authority} broke off its "
                    f"reply: {exc}"
                ) from exc
            if reply is not None:
                break
            self.close()
            if attempt:
                raise ServeError(
                    f"cannot reach serve endpoint {self._authority}"
                )
        status, headers, raw = reply
        try:
            parsed = json.loads(raw) if raw else None
        except ValueError:
            raise ServeError(
                f"serve endpoint {self._authority} returned HTTP "
                f"{status} with a body that is not JSON"
            )
        return status, headers, parsed

    def _exchange(self, message: bytes, deadline_s: float):
        """Send one request in one write and read its reply.

        ``None`` means the connection was stale: the connect was
        refused, or the peer closed or reset it before the reply's
        first byte.
        """
        try:
            if self._socket is None:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=deadline_s
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._socket, self._stream = sock, sock.makefile("rb")
            else:
                self._socket.settimeout(deadline_s)
            self._socket.sendall(message)
        except TimeoutError:
            raise
        except OSError:
            return None
        return http11.read_response(self._stream)

    def _query_http(self, flowql: str) -> QueryOutcome:
        status, _headers, body = self._request(
            "POST",
            "/v1/query",
            {"query": flowql, "client_id": self.client_id},
        )
        if status == 200:
            return wire.decode_outcome(body)
        raise self._wire_failure(status, body)

    def _wire_failure(self, status: int, body: object) -> Exception:
        """The typed exception a non-200 wire response describes."""
        try:
            kind, envelope_body = wire.open_envelope(body)
        except WireSchemaError:
            return ServeError(
                f"serve endpoint returned HTTP {status} with an "
                "unreadable body"
            )
        if kind == wire.KIND_REJECTED:
            return wire.decode_rejection(envelope_body)
        if kind == wire.KIND_ERROR:
            return wire.decode_error(envelope_body)
        return ServeError(
            f"unexpected {kind!r} envelope with HTTP {status}"
        )
