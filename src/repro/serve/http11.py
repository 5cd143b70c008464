"""The program's one HTTP/1.1 framing module.

The serving plane needs exactly four HTTP features — request lines,
headers, ``Content-Length`` JSON bodies, and keep-alive — and nothing
outside the standard library, so this module implements them directly
instead of pulling in a framework or a second HTTP stack.  Every
message head in the program is built and parsed here:

* the servers (:mod:`repro.serve.server`, :mod:`repro.serve.gateway`)
  hand :func:`serve_connection` their dispatch; it reads requests with
  :func:`read_request` and writes replies built with
  :func:`response_bytes`;
* the gateway's forward to a node (:class:`HTTPConnectionPool`) and the
  blocking :class:`~repro.client.FlowQLClient` build requests with
  :func:`request_bytes`; the pool reads replies off its asyncio stream
  and the client with :func:`read_response`, both through
  :func:`parse_head` and :func:`parse_status_line`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, BinaryIO, Callable, Dict, Optional, Tuple

from repro.errors import ServeError
from repro.serve import wire

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


def parse_head(head: bytes) -> Tuple[str, Dict[str, str], int]:
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


def parse_status_line(start: str) -> int:
    """The status code of a reply's start line (``HTTP/1.1 200 OK``)."""
    version, _, rest = start.partition(" ")
    code = rest[:3]
    if not (
        version.startswith("HTTP/")
        and len(code) == 3
        and code.isascii()
        and code.isdigit()
        and rest[3:4] in ("", " ")
    ):
        raise ServeError(f"malformed status line {start!r}")
    return int(code)


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
    start, headers, length = parse_head(head)
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


async def serve_connection(
    dispatch: Callable[[Request], Awaitable[bytes]],
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Answer one keep-alive connection's requests with ``dispatch``.

    Runs until the peer closes; a request that does not parse is
    answered 400 and ends the connection, since its framing is lost.
    """
    try:
        while True:
            try:
                request = await read_request(reader)
            except ServeError as exc:
                writer.write(response_bytes(400, wire.encode_error(exc)))
                await writer.drain()
                break
            if request is None:
                break
            writer.write(await dispatch(request))
            await writer.drain()
    except (ConnectionError, OSError):  # peer went away mid-write
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


def read_response(
    stream: BinaryIO,
) -> Optional[Tuple[int, Dict[str, str], bytes]]:
    """Read one reply off a blocking keep-alive stream.

    Returns ``(status, headers, body_bytes)``, or ``None`` when the peer
    closed or reset the connection before the reply's first byte (a
    stale keep-alive).  A head over :data:`MAX_HEADER_BYTES`, a
    malformed start line, or a close part-way through the reply is a
    :class:`ServeError`.
    """
    try:
        head = stream.readline(MAX_HEADER_BYTES + 1)
    except ConnectionResetError:
        return None
    if not head:
        return None
    while len(head) <= MAX_HEADER_BYTES and not head.endswith(b"\r\n\r\n"):
        line = stream.readline(MAX_HEADER_BYTES + 1 - len(head))
        if not line:
            raise ServeError("connection closed mid-reply")
        head += line
    if len(head) > MAX_HEADER_BYTES:
        raise ServeError("reply head too large")
    start, headers, length = parse_head(head)
    status = parse_status_line(start)
    if length > MAX_BODY_BYTES:
        raise ServeError(f"reply body too large ({length} B)")
    body = stream.read(length) if length else b""
    if len(body) < length:
        raise ServeError("connection closed mid-reply")
    return status, headers, body


def _json_payload(body: object) -> bytes:
    if isinstance(body, bytes):
        return body
    if body is None:
        return b""
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def request_bytes(
    method: str,
    path: str,
    authority: str,
    body: object = None,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one JSON (or empty) keep-alive request, head and body.

    ``authority`` is the ``Host`` header (``host:port``).  The result is
    sent in one write, so the peer's event loop wakes once per request.
    """
    payload = _json_payload(body)
    head = [
        f"{method} {path} HTTP/1.1",
        f"Host: {authority}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: keep-alive",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


def response_bytes(
    status: int,
    body: object = None,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one JSON (or empty) keep-alive response.

    A ``bytes`` body is already JSON (a relayed reply) and is sent as is.
    """
    payload = _json_payload(body)
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
        wire = request_bytes(
            method, path, f"{self.host}:{self.port}", body, headers
        )
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
        start, headers, length = parse_head(head)
        status = parse_status_line(start)
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
