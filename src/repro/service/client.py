"""Blocking clients for the crowd service (stdlib only).

:class:`ServiceClient` is the tenant SDK — open a cleaning session, wait
for its commit (optionally for follower replication), read back the
report and the database digest.  :class:`WorkerClient` is a complete
crowd worker: it long-polls (or stream-tails) the question feed, answers
each question from a local :class:`~repro.oracle.base.Oracle` backend,
and POSTs replies idempotently, retrying through timeouts and
reconnects.

Both retry transient transport errors with a small backoff, so tests
can kill and promote servers under them.  JSON requests go through
:class:`_Http`, a keep-alive client on a plain socket; only the chunked
worker stream uses ``http.client``.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
from typing import Any, BinaryIO, Optional, Union

from ..durability import codec
from ..oracle.base import Oracle
from ..query.ast import Query
from ..shard import wire


class ServiceError(RuntimeError):
    """A non-success response from the service."""

    def __init__(self, status: int, message: str, *, retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: parsed ``Retry-After`` seconds on 429/503 responses
        self.retry_after = retry_after


#: longest status or header line a response may carry
_MAX_LINE = 65536
#: most header lines a response may carry
_MAX_HEADERS = 100
#: bytes that may not appear in a request target (they would split it)
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")


def _seconds(value: Optional[str]) -> Optional[float]:
    """A ``Retry-After`` value in seconds (``None`` if absent or a date)."""
    try:
        return float(value) if value else None
    except ValueError:
        return None


class _Http:
    """One keep-alive HTTP/1.1 connection that speaks JSON.

    A request is one ``sendall``; the response comes off one buffered
    reader on the same socket, framed by ``Content-Length`` (or by the
    end of the connection).  A dropped connection, or an idle one the
    server timed out (``408``), is reconnected once; ``Connection:
    close`` is honoured.  Status 400 and above, or a body that is not a
    JSON object, raises :class:`ServiceError`; a malformed response
    raises ``ConnectionError``.  Use one instance from one thread.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: status code of the last response
        self.status = 0
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None
        self._host_line = f"Host: {host}:{port}\r\n"

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def request(self, method: str, path: str, payload: Any = None) -> dict:
        if _UNSAFE_TARGET.search(path):
            raise ValueError(f"request target {path!r} contains unsafe characters")
        head = f"{method} {path} HTTP/1.1\r\n{self._host_line}"
        if payload is None:
            message = (head + "\r\n").encode("ascii")
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            message = (
                f"{head}Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii") + body
        for attempt in (1, 2):
            reused = self._sock is not None
            try:
                if not reused:
                    self._connect()
                self._sock.sendall(message)
                status, headers, raw = self._read_response()
            except OSError:
                # a dropped keep-alive connection: reconnect once
                self.close()
                if attempt == 2:
                    raise
                continue
            if headers.get("connection", "").lower() == "close":
                self.close()
            if status == 408 and reused:
                # the server timed the idle connection out before this
                # request arrived, so it was never read: send it again
                self.close()
                continue
            break
        self.status = status
        try:
            document = json.loads(raw) if raw else {}
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            document = None
        if not isinstance(document, dict):
            raise ServiceError(status, raw.decode("utf-8", "replace"))
        if status >= 400:
            raise ServiceError(
                status,
                document.get("error", raw.decode("utf-8", "replace")),
                retry_after=_seconds(headers.get("retry-after")),
            )
        return document

    def _read_response(self) -> tuple[int, dict[str, str], bytes]:
        reader = self._reader
        line = reader.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("the server closed the connection")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/") or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {line[:80]!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = reader.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionResetError("the server closed the connection mid-head")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or len(line) > _MAX_LINE:
                raise ConnectionError(f"malformed header line {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ConnectionError(f"more than {_MAX_HEADERS} header lines")
        length = headers.get("content-length")
        if length is None:
            # framed by the end of the connection
            headers["connection"] = "close"
            return status, headers, reader.read()
        if not length.isdigit():
            raise ConnectionError(f"malformed Content-Length {length!r}")
        raw = reader.read(int(length))
        if len(raw) != int(length):
            raise ConnectionResetError("the server closed the connection mid-body")
        return status, headers, raw


class ServiceClient:
    """The tenant-side SDK for one service endpoint."""

    def __init__(self, host: str, port: int, *, tenant: str = "default") -> None:
        self.tenant = tenant
        self._http = _Http(host, port)

    def close(self) -> None:
        self._http.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- sessions --------------------------------------------------------
    def open(
        self, query: Union[Query, str], *, tenant: Optional[str] = None,
        priority: Optional[float] = None,
    ) -> int:
        """Open (and start) one cleaning session; returns its id.

        ``priority`` weights this tenant in admission ordering and in
        the broker's capacity scheduler (when one is configured).

        Raises :class:`ServiceError` with ``status == 429`` when
        admission control sheds the request — honour ``retry_after``.
        """
        payload = {
            "tenant": tenant if tenant is not None else self.tenant,
            "query": query if isinstance(query, str) else codec.query_to_obj(query),
        }
        if priority is not None:
            payload["priority"] = priority
        return int(self._http.request("POST", "/v1/sessions", payload)["session"])

    def open_when_admitted(
        self, query: Union[Query, str], *, tenant: Optional[str] = None,
        priority: Optional[float] = None,
        deadline: float = 120.0,
    ) -> int:
        """Like :meth:`open`, but sleeps through 429s until admitted."""
        end = time.monotonic() + deadline
        while True:
            try:
                return self.open(query, tenant=tenant, priority=priority)
            except ServiceError as error:
                if error.status != 429 or time.monotonic() >= end:
                    raise
                time.sleep(error.retry_after or 0.2)

    def status(self, session_id: int) -> dict:
        return self._http.request("GET", f"/v1/sessions/{session_id}")

    def wait(
        self,
        session_id: int,
        *,
        timeout: float = 60.0,
        replicated: bool = False,
    ) -> dict:
        """Block until the session reaches a terminal state.

        With ``replicated=True`` the call also waits (within *timeout*)
        for the commit's WAL record to be acked by a follower; the
        returned document then carries ``replicated: true/false``.
        """
        end = time.monotonic() + timeout
        while True:
            slice_timeout = max(0.1, min(30.0, end - time.monotonic()))
            doc = self._http.request(
                "GET",
                f"/v1/sessions/{session_id}/wait?timeout={slice_timeout}"
                + ("&replicated=1" if replicated else ""),
            )
            if doc.get("done") or time.monotonic() >= end:
                return doc

    def abort(self, session_id: int) -> dict:
        return self._http.request("DELETE", f"/v1/sessions/{session_id}")

    def clean(
        self, query: Union[Query, str], *, timeout: float = 120.0,
        replicated: bool = False,
    ) -> dict:
        """Open + wait in one call; returns the terminal session doc."""
        return self.wait(
            self.open_when_admitted(query, deadline=timeout),
            timeout=timeout,
            replicated=replicated,
        )

    # -- observability ---------------------------------------------------
    def digest(self) -> dict:
        return self._http.request("GET", "/v1/digest")

    def stats(self) -> dict:
        return self._http.request("GET", "/v1/stats")

    def healthz(self) -> dict:
        return self._http.request("GET", "/v1/healthz")

    def promote(self) -> dict:
        """Promote a standby node to primary (see the failover runbook)."""
        return self._http.request("POST", "/v1/promote", {})


def answer_question(backend: Oracle, decoded: dict) -> dict:
    """Answer one decoded question with *backend*; returns the wire reply."""
    kind = decoded["kind"]
    if kind == "verify_fact":
        value: Any = backend.verify_fact(decoded["fact"])
    elif kind == "verify_facts":
        value = backend.verify_facts(decoded["facts"])
    elif kind == "verify_answer":
        value = backend.verify_answer(decoded["query"], decoded["answer"])
    elif kind == "verify_candidate":
        value = backend.verify_candidate(decoded["query"], decoded["partial"])
    elif kind == "complete_assignment":
        value = backend.complete_assignment(decoded["query"], decoded["partial"])
    elif kind == "complete_result":
        value = backend.complete_result(decoded["query"], decoded["known"])
    else:
        raise ServiceError(400, f"unknown question kind {kind!r}")
    return wire.reply_to_obj(kind, value)


class WorkerClient:
    """A crowd worker: lease → answer → POST, forever (or until stopped).

    *backend* supplies the answers (tests use
    :class:`~repro.oracle.perfect.PerfectOracle` over the ground truth;
    a real deployment would put a human or a model behind the same
    interface).  :meth:`run` costs one request per question: each
    answer POST also asks for the worker's next lease.
    """

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: str,
        backend: Oracle,
        *,
        poll_wait: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.backend = backend
        self.poll_wait = poll_wait
        self.answered = 0
        self.duplicates = 0
        self._http = _Http(host, port, timeout=poll_wait + 30.0)
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def close(self) -> None:
        self.stop()
        self._http.close()

    # ------------------------------------------------------------------
    def answer(self, lease: dict) -> dict:
        """Answer one lease document and POST the reply."""
        return self._answer(lease, None)

    def _answer(self, lease: dict, wait: Optional[float]) -> dict:
        """POST the answer to *lease*; with *wait*, the reply's
        ``"question"`` is this worker's next lease (or ``None`` when
        none arrived within *wait* seconds)."""
        decoded = wire.question_from_obj(lease["question"])
        reply = answer_question(self.backend, decoded)
        payload = {"worker": self.worker_id, "qid": lease["qid"], "reply": reply}
        if wait is not None:
            payload["wait"] = wait
        outcome = self._http.request("POST", "/v1/worker/answer", payload)
        if outcome.get("status") == "accepted":
            self.answered += 1
        elif outcome.get("status") == "duplicate":
            self.duplicates += 1
        return outcome

    def _lease(self) -> Optional[dict]:
        """Long-poll the feed once; the lease, or ``None`` at timeout."""
        doc = self._http.request(
            "GET",
            f"/v1/worker/feed?worker={self.worker_id}&wait={self.poll_wait}",
        )
        return doc.get("question")

    def poll_once(self) -> bool:
        """One long-poll iteration; True if a question was answered."""
        lease = self._lease()
        if lease is None:
            return False
        self.answer(lease)
        return True

    def run(self) -> None:
        """Answer and lease until :meth:`stop`; survives restarts/promotions.

        The feed is polled only when no lease is held; every answer
        asks for the next lease in the same request.  A lease in hand
        is always answered, and a new one is asked for only while the
        worker has not been stopped.
        """
        lease: Optional[dict] = None
        while True:
            try:
                if lease is not None:
                    wait = None if self._stop.is_set() else self.poll_wait
                    lease = self._answer(lease, wait).get("question")
                elif self._stop.is_set():
                    return
                else:
                    lease = self._lease()
            except (ServiceError, OSError):
                lease = None
                if self._stop.wait(0.3):
                    return
                self._http.close()

    def run_stream(self) -> None:
        """Tail the chunked NDJSON feed instead of long-polling."""
        while not self._stop.is_set():
            conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                conn.request("GET", f"/v1/worker/stream?worker={self.worker_id}")
                response = conn.getresponse()
                if response.status != 200:
                    raise ServiceError(response.status, "stream refused")
                while not self._stop.is_set():
                    line = response.readline()
                    if not line:
                        break
                    message = json.loads(line)
                    if "question" in message:
                        self.answer(message["question"])
            except (ServiceError, ConnectionError, OSError, http.client.HTTPException,
                    json.JSONDecodeError):
                if self._stop.wait(0.3):
                    return
            finally:
                conn.close()

    def start_thread(self, *, stream: bool = False) -> threading.Thread:
        """Run this worker on a daemon thread; returns the thread."""
        thread = threading.Thread(
            target=self.run_stream if stream else self.run,
            name=f"qoco-worker-{self.worker_id}",
            daemon=True,
        )
        thread.start()
        return thread


__all__ = ["ServiceClient", "ServiceError", "WorkerClient", "answer_question"]
