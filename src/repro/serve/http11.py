"""A deliberately small asyncio HTTP/1.1 layer.

The serving plane needs exactly four HTTP features — request lines,
headers, ``Content-Length`` JSON bodies, and keep-alive — and nothing
the container doesn't already ship, so this module implements them
directly on asyncio streams instead of pulling in a framework.  Both
the servers (:mod:`repro.serve.server`, :mod:`repro.serve.gateway`)
and the in-loop client the gateway/benchmark use are built on it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.errors import ServeError

#: maximum header block / body size accepted (a simulation guard, not
#: a hardening claim)
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class Request:
    """One parsed inbound request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self) -> object:
        """The body parsed as JSON (``None`` when empty)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}")


def _parse_head(head: bytes) -> Tuple[str, Dict[str, str], int]:
    """A message head's start line, lower-cased headers and body length.

    A ``Content-Length`` that is not a non-negative decimal integer is
    a :class:`ServeError`: the framing of everything after it is lost.
    """
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0") or "0"
    if not (length.isascii() and length.isdigit()):
        raise ServeError(f"malformed Content-Length {length!r}")
    return lines[0], headers, int(length)


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Request]:
    """Parse one request off a keep-alive stream; ``None`` on EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between keep-alive requests
        raise ServeError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ServeError("request head exceeds the stream limit")
    if len(head) > MAX_HEADER_BYTES:
        raise ServeError("request head too large")
    start, headers, length = _parse_head(head)
    try:
        method, path, _version = start.split(" ", 2)
    except ValueError:
        raise ServeError(f"malformed request line {start!r}")
    if length > MAX_BODY_BYTES:
        raise ServeError(f"request body too large ({length} B)")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise ServeError("connection closed mid-request")
    return Request(method.upper(), path, headers, body)


def response_bytes(
    status: int,
    body: object = None,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one JSON (or empty) keep-alive response.

    A ``bytes`` body is already JSON (a relayed reply) and is sent as is.
    """
    if isinstance(body, bytes):
        payload = body
    elif body is None:
        payload = b""
    else:
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: keep-alive",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


class HTTPConnection:
    """One keep-alive client connection inside the event loop.

    The gateway holds one per node server; the closed-loop benchmark
    holds one per simulated client.  ``request`` serializes use of the
    connection (HTTP/1.1 without pipelining), reconnecting lazily when
    the peer closed it.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    async def _ensure(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        body: object = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request; returns ``(status, headers, body_bytes)``."""
        payload = (
            b""
            if body is None
            else json.dumps(body, separators=(",", ":")).encode("utf-8")
        )
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: keep-alive",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        wire = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        async with self._lock:
            for attempt in (0, 1):
                await self._ensure()
                try:
                    self._writer.write(wire)
                    await self._writer.drain()
                    return await self._read_response()
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    # a keep-alive peer may close between requests;
                    # reconnect once before giving up
                    await self.close()
                    if attempt:
                        raise ServeError(
                            f"connection to {self.host}:{self.port} failed"
                        )
        raise AssertionError("unreachable")  # pragma: no cover

    async def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        head = await self._reader.readuntil(b"\r\n\r\n")
        start, headers, length = _parse_head(head)
        try:
            status = int(start.split(" ", 2)[1])
        except (IndexError, ValueError):
            raise ServeError(f"malformed status line {start!r}")
        body = await self._reader.readexactly(length) if length else b""
        return status, headers, body


class HTTPConnectionPool:
    """A grow-on-demand pool of keep-alive connections to one peer.

    One :class:`HTTPConnection` serializes its requests (HTTP/1.1
    without pipelining), so a gateway fronting many concurrent clients
    holds a pool per node: each in-flight forward checks out an idle
    connection — or opens a fresh one — and returns it afterwards.
    That keeps the node's *queue* the concurrency bottleneck, not a
    single gateway socket; backpressure stays observable end to end.
    """

    def __init__(self, host: str, port: int, max_idle: int = 32) -> None:
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self._idle: list = []

    async def request(
        self,
        method: str,
        path: str,
        body: object = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        connection = (
            self._idle.pop()
            if self._idle
            else HTTPConnection(self.host, self.port)
        )
        try:
            response = await connection.request(
                method, path, body=body, headers=headers
            )
        except BaseException:
            await connection.close()
            raise
        if len(self._idle) < self.max_idle:
            self._idle.append(connection)
        else:
            await connection.close()
        return response

    async def close(self) -> None:
        while self._idle:
            await self._idle.pop().close()
