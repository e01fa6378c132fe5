"""A tiny asyncio HTTP/1.1 layer — just what the crowd service needs.

No external dependency: the default service path runs on stdlib
``asyncio`` streams alone (the container bakes no aiohttp; see
ISSUE 8).  The layer supports exactly the subset the
:class:`~repro.service.app.CrowdService` surface uses:

* request parsing — request line, case-insensitive headers, bodies by
  ``Content-Length`` (bounded by ``max_body``), query strings;
* keep-alive connections with per-read timeouts, so a *slow-loris*
  client — one that opens a connection and dribbles (or stalls) its
  request head or body — is dropped with ``408`` after
  ``read_timeout`` seconds instead of pinning a connection slot (each
  deadline is one loop timer, :func:`within`, not a Task per read);
* plain JSON responses (``Content-Length`` framing) and **chunked**
  streaming responses driven by an async generator — the transport of
  the worker question feed and the WAL replication stream;
* a path router with ``{param}`` segments.

Telemetry: every handled request observes
``service.request_latency_s`` and counts ``service.requests``;
error responses count ``service.http_errors``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable, Optional, TypeVar
from urllib.parse import parse_qsl, unquote, urlsplit

from ..telemetry import TELEMETRY as _TELEMETRY

#: status line reasons for the handful of codes the service emits
REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


_T = TypeVar("_T")

#: ``Task.uncancel`` (Python 3.11+) keeps a task's cancel count balanced
_UNCANCEL = hasattr(asyncio.Task, "uncancel")


async def within(awaitable: Awaitable[_T], timeout: Optional[float]) -> _T:
    """Await *awaitable* in the current task, or raise
    :class:`asyncio.TimeoutError` once *timeout* seconds have passed.

    ``asyncio.wait_for`` (before Python 3.12) runs its awaitable in a
    Task of its own; this deadline is one loop timer that cancels the
    current task instead.  Only that timer's cancellation becomes the
    timeout: a cancellation from outside (``HttpServer.stop()``
    cancelling a connection) propagates as ``CancelledError``.  Where
    ``Task.uncancel`` exists, the timer's cancel is withdrawn before
    the conversion, as ``asyncio.timeout`` does; on Python 3.10 a
    cancel from outside that lands in the same loop pass as the timer
    reads as the timeout.  *awaitable* must not swallow cancellation.
    ``timeout=None`` waits without a deadline.
    """
    if timeout is None:
        return await awaitable
    task = asyncio.current_task()
    if task is None:
        raise RuntimeError("within() must run inside a task")
    fired = False

    def expire() -> None:
        nonlocal fired
        fired = True
        task.cancel()

    cancelling = task.cancelling() if _UNCANCEL else 0
    handle = asyncio.get_running_loop().call_later(timeout, expire)
    try:
        return await awaitable
    except asyncio.CancelledError:
        if not fired or (_UNCANCEL and task.uncancel() > cancelling):
            raise
        raise asyncio.TimeoutError from None
    finally:
        handle.cancel()


class HttpError(Exception):
    """Raise inside a handler to produce a non-200 JSON response."""

    def __init__(self, status: int, message: str, *, headers: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: ``{param}`` captures from the matched route pattern
    params: dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """The body as JSON (400 on malformed/empty input)."""
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"malformed JSON body: {error}") from error

    def query_int(self, name: str, default: int) -> int:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as error:
            raise HttpError(400, f"query parameter {name!r} must be an integer") from error

    def query_float(self, name: str, default: float) -> float:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as error:
            raise HttpError(400, f"query parameter {name!r} must be a number") from error


@dataclass
class Response:
    """A buffered response (framed with ``Content-Length``)."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


@dataclass
class StreamResponse:
    """A chunked streaming response driven by an async byte generator.

    The connection switches to ``Transfer-Encoding: chunked``; each
    yielded ``bytes`` becomes one chunk, flushed immediately — the
    long-lived transport of the worker question feed and the WAL
    shipping stream.  The generator ending closes the stream cleanly;
    a client disconnect cancels it.
    """

    chunks: AsyncIterator[bytes]
    status: int = 200
    content_type: str = "application/x-ndjson"
    headers: dict[str, str] = field(default_factory=dict)


def json_response(payload: Any, status: int = 200, *, headers: Optional[dict] = None) -> Response:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    return Response(status=status, body=body, headers=headers or {})


Handler = Callable[[Request], Awaitable[Any]]


class _Route:
    """One ``(method, pattern)`` entry; patterns use ``{name}`` segments."""

    def __init__(self, method: str, pattern: str, handler: Handler) -> None:
        self.method = method
        self.handler = handler
        self.segments = pattern.strip("/").split("/") if pattern.strip("/") else []

    def match(self, path_segments: list[str]) -> Optional[dict[str, str]]:
        if len(path_segments) != len(self.segments):
            return None
        params: dict[str, str] = {}
        for want, got in zip(self.segments, path_segments):
            if want.startswith("{") and want.endswith("}"):
                params[want[1:-1]] = unquote(got)
            elif want != got:
                return None
        return params


class HttpServer:
    """Route table + asyncio connection loop.

    Parameters
    ----------
    read_timeout:
        Seconds a single read of the request head or body may stall
        before the connection is dropped (the slow-loris guard).
    idle_timeout:
        Seconds a keep-alive connection may sit between requests —
        until the first byte of the next head arrives; from then on
        ``read_timeout`` governs the rest of that head.
    max_body:
        Request body ceiling in bytes (413 beyond it).
    """

    def __init__(
        self,
        *,
        read_timeout: float = 10.0,
        idle_timeout: float = 120.0,
        max_body: int = 16 * 1024 * 1024,
    ) -> None:
        self.read_timeout = read_timeout
        self.idle_timeout = idle_timeout
        self.max_body = max_body
        self._routes: list[_Route] = []
        self._server: Optional[asyncio.AbstractServer] = None
        #: open client connections (for prompt shutdown)
        self._connections: set[asyncio.Task] = set()

    def route(self, method: str, pattern: str, handler: Handler) -> None:
        self._routes.append(_Route(method.upper(), pattern, handler))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``
        (``port=0`` picks a free one)."""
        self._server = await asyncio.start_server(self._serve_connection, host, port)
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # cancel open connections before waiting on the server: from
        # Python 3.12.1, wait_closed() also waits for every connection,
        # so an idle keep-alive client or a parked feed would hold it
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if server is not None:
            await server.wait_closed()

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        first = True
        while True:
            request = await self._read_request(reader, writer, first=first)
            if request is None:
                return
            first = False
            keep_alive = request.headers.get("connection", "keep-alive") != "close"
            start = time.perf_counter()
            response = await self._dispatch(request)
            if _TELEMETRY.enabled:
                _TELEMETRY.count("service.requests")
                _TELEMETRY.observe(
                    "service.request_latency_s", time.perf_counter() - start
                )
            if isinstance(response, StreamResponse):
                await self._write_stream(writer, response)
                return  # a stream consumes the rest of the connection
            await self._write_response(writer, response, keep_alive)
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, *, first: bool
    ) -> Optional[Request]:
        """Parse one request, or ``None`` when the connection should close.

        Every request head must complete within ``read_timeout`` of its
        first byte; between keep-alive requests the more generous
        ``idle_timeout`` applies only while *no* byte of the next head
        has arrived.  A stalled head or body gets a 408 and the
        connection is closed — the slow-loris defence, which therefore
        bounds a dribbled head at ``read_timeout`` on keep-alive
        connections too.
        """
        try:
            if first:
                head = await within(reader.readuntil(b"\r\n\r\n"), self.read_timeout)
            else:
                # two-phase: the connection may idle between requests,
                # but once the next head starts arriving the strict
                # per-head deadline takes over
                prefix = await within(reader.readexactly(1), self.idle_timeout)
                head = prefix + await within(
                    reader.readuntil(b"\r\n\r\n"), self.read_timeout
                )
        except asyncio.TimeoutError:
            await self._reject(writer, 408, "request head timed out")
            return None
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None  # client went away between requests
        except asyncio.LimitOverrunError:
            await self._reject(writer, 413, "request head too large")
            return None
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, _version = lines[0].split(" ", 2)
            headers: dict[str, str] = {}
            for line in lines[1:]:
                if not line:
                    continue
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:
            await self._reject(writer, 400, "malformed request line")
            return None
        parts = urlsplit(target)
        query = dict(parse_qsl(parts.query, keep_blank_values=True))
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            await self._reject(writer, 400, "malformed Content-Length header")
            return None
        if length < 0:
            await self._reject(writer, 400, "malformed Content-Length header")
            return None
        if length > self.max_body:
            await self._reject(writer, 413, "request body too large")
            return None
        body = b""
        if length:
            try:
                body = await within(reader.readexactly(length), self.read_timeout)
            except asyncio.TimeoutError:
                # a slow-loris body: bytes promised by Content-Length
                # never (fully) arrive — reject and drop the connection
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("service.slowloris_drops")
                await self._reject(writer, 408, "request body timed out")
                return None
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return None
        return Request(
            method=method.upper(),
            path=parts.path,
            query=query,
            headers=headers,
            body=body,
        )

    async def _dispatch(self, request: Request) -> Response | StreamResponse:
        segments = request.path.strip("/").split("/") if request.path.strip("/") else []
        methods_seen: set[str] = set()
        for route in self._routes:
            params = route.match(segments)
            if params is None:
                continue
            methods_seen.add(route.method)
            if route.method != request.method:
                continue
            request.params = params
            try:
                return await route.handler(request)
            except HttpError as error:
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("service.http_errors")
                return json_response(
                    {"error": error.message}, error.status, headers=error.headers
                )
            except Exception as error:  # a handler bug must not kill the loop
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("service.http_errors")
                return json_response(
                    {"error": f"{type(error).__name__}: {error}"}, 500
                )
        if methods_seen:
            return json_response({"error": "method not allowed"}, 405)
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.http_errors")
        return json_response({"error": f"no route for {request.path}"}, 404)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        reason = REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body)
        await writer.drain()

    async def _write_stream(
        self, writer: asyncio.StreamWriter, response: StreamResponse
    ) -> None:
        reason = REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            "Transfer-Encoding: chunked",
            "Connection: close",
        ]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n")
        await writer.drain()
        try:
            async for chunk in response.chunks:
                if not chunk:
                    continue
                writer.write(f"{len(chunk):x}\r\n".encode("ascii") + chunk + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            generator = response.chunks
            aclose = getattr(generator, "aclose", None)
            if aclose is not None:
                try:
                    await aclose()
                except RuntimeError:  # pragma: no cover - generator already closing
                    pass

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.http_errors")
        try:
            await self._write_response(
                writer, json_response({"error": message}, status), keep_alive=False
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


__all__ = [
    "Handler",
    "HttpError",
    "HttpServer",
    "Request",
    "Response",
    "StreamResponse",
    "json_response",
    "within",
]
