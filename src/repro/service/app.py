"""The crowd service: tenant REST surface + worker feeds + replication.

One :class:`CrowdService` fronts one
:class:`~repro.server.manager.SessionManager`.  Three surfaces share the
asyncio loop (see ``docs/service.md`` for the full API):

**Tenants** — ``POST /v1/sessions`` opens a cleaning session and starts
driving it (fork → clean → first-committer-wins commit) on an executor
thread; ``GET /v1/sessions/{id}[/wait]`` observes it; ``DELETE`` aborts
one that has not started running.  Admission control bounds the work in
flight: beyond ``max_inflight_per_tenant`` / ``max_inflight_total`` the
service answers ``429`` with ``Retry-After`` instead of queueing without
bound (queue depth is published as ``service.queue_depth``).

**Workers** — remote crowd members lease questions from the
:class:`~repro.service.broker.QuestionBroker` via a long-poll feed
(``GET /v1/worker/feed``) or a chunked NDJSON stream
(``GET /v1/worker/stream``) and POST answers back, idempotently, to
``/v1/worker/answer``; an answer that carries ``"wait"`` also returns
the worker's next lease, so a polling worker pays one request per
question.  The broker's retry policy expires stalled
leases on the housekeeping tick, so a worker that vanishes mid-question
only costs a timeout, not a hung session.

**Replication** — with a durable manager the service attaches a
:class:`~repro.service.replication.ReplicationHub`; a warm follower
(``standby=True`` service) tails ``/v1/replication/stream`` into its own
directory and ``POST /v1/promote`` turns it into a live primary through
the standard crash-recovery path.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from ..dispatch.policy import RetryPolicy
from ..durability import codec
from ..query.parser import parse_query
from ..server.manager import SessionManager
from ..server.policy import TenantPolicy
from ..server.session import CleaningSession, SessionState
from ..shard import wire
from ..telemetry import TELEMETRY as _TELEMETRY
from .broker import BrokeredOracle, QuestionBroker, decode_reply
from .http import HttpError, HttpServer, Request, Response, StreamResponse, json_response, within
from .replication import Follower, ReplicationHub, _Chain


@dataclass
class _Entry:
    """One tenant session the service is tracking."""

    session: CleaningSession
    tenant: str
    done: asyncio.Event
    future: Optional[asyncio.Future] = None
    aborted: bool = False
    opened_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.done.is_set()


class CrowdService:
    """The network front end over a session manager.

    Parameters
    ----------
    manager:
        The (optionally durable) session manager to front.  ``None``
        together with *follower* starts in **standby**: only health,
        stats, and ``/v1/promote`` respond until promotion.
    max_inflight_per_tenant / max_inflight_total:
        Admission caps; requests beyond them get ``429 Retry-After``.
    policy:
        Lease/retry policy for crowd questions (wall-clock seconds).
    votes_per_closed:
        Distinct worker votes a closed question needs (majority wins).
    tick:
        Housekeeping period: lease expiry + queue-depth telemetry.
    entry_retention:
        Seconds a *finished* session document stays queryable via
        ``GET /v1/sessions/{id}`` before housekeeping evicts it (404
        afterwards) — bounds service memory over a long run.
    tombstone_limit:
        Resolved questions the broker retains for idempotent
        duplicate/stale answer replies (see
        :class:`~repro.service.broker.QuestionBroker`).
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        *,
        follower: Optional[Follower] = None,
        max_inflight_per_tenant: int = 4,
        max_inflight_total: int = 64,
        policy: Optional[RetryPolicy] = None,
        votes_per_closed: int = 1,
        tick: float = 0.25,
        read_timeout: float = 10.0,
        entry_retention: float = 300.0,
        tombstone_limit: int = 1024,
        scheduler: Any = None,
        similarity: bool = False,
    ) -> None:
        if manager is None and follower is None:
            raise ValueError("need a manager (primary) or a follower (standby)")
        self.manager = manager
        self.follower = follower
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.max_inflight_total = max_inflight_total
        self.entry_retention = entry_retention
        self.broker = QuestionBroker(
            policy=policy if policy is not None else RetryPolicy(timeout=30.0),
            votes_per_closed=votes_per_closed,
            tombstone_limit=tombstone_limit,
            scheduler=scheduler,
            similarity=similarity,
        )
        self.tick = tick
        self.http = HttpServer(read_timeout=read_timeout)
        self.hub: Optional[ReplicationHub] = None
        self._entries: dict[int, _Entry] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight_total, thread_name_prefix="qoco-session"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._work_chain: Optional[_Chain] = None
        self._housekeeper: Optional[asyncio.Task] = None
        self._follower_thread = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._register_routes()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _register_routes(self) -> None:
        route = self.http.route
        route("GET", "/v1/healthz", self._healthz)
        route("GET", "/v1/stats", self._stats)
        route("POST", "/v1/sessions", self._open_session)
        route("GET", "/v1/sessions/{sid}", self._get_session)
        route("GET", "/v1/sessions/{sid}/wait", self._wait_session)
        route("DELETE", "/v1/sessions/{sid}", self._abort_session)
        route("GET", "/v1/digest", self._digest)
        route("GET", "/v1/worker/feed", self._worker_feed)
        route("GET", "/v1/worker/stream", self._worker_stream)
        route("POST", "/v1/worker/answer", self._worker_answer)
        route("GET", "/v1/replication/checkpoint", self._replication_checkpoint)
        route("GET", "/v1/replication/stream", self._replication_stream)
        route("POST", "/v1/replication/ack", self._replication_ack)
        route("POST", "/v1/promote", self._promote)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._work_chain = _Chain()
        self.broker.add_listener(self._on_broker_work)
        if self.manager is not None and self.manager.durable:
            self.hub = ReplicationHub(self.manager, self._loop)
        if self.follower is not None:
            import threading

            self._follower_thread = threading.Thread(
                target=self.follower.run, name="qoco-follower", daemon=True
            )
            self._follower_thread.start()
        self.host, self.port = await self.http.start(host, port)
        self._housekeeper = asyncio.ensure_future(self._housekeeping())
        return self.host, self.port

    async def stop(self) -> None:
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            try:
                await self._housekeeper
            except asyncio.CancelledError:
                pass
            self._housekeeper = None
        if self.follower is not None:
            self.follower.close()
            if self._follower_thread is not None:
                self._follower_thread.join(timeout=5)
        # unblock session threads stuck waiting on the crowd, then let
        # them run to their terminal state before releasing the manager
        self.broker.shutdown()
        self._executor.shutdown(wait=True)
        if self.hub is not None:
            self.hub.detach()
            self.hub = None
        if self.manager is not None:
            self.manager.close()
        await self.http.stop()

    async def run_forever(self, host: str, port: int) -> None:
        await self.start(host, port)
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    def _on_broker_work(self) -> None:
        if self._loop is not None and self._work_chain is not None:
            self._loop.call_soon_threadsafe(self._work_chain.wake)

    def _wake_at(self, due: float) -> None:
        """Wake the lease waiters once the monotonic instant *due* has
        passed (re-armed if the timer fires early)."""
        assert self._loop is not None and self._work_chain is not None
        delay = due - time.monotonic()
        if delay > 0:
            self._loop.call_later(delay, self._wake_at, due)
        else:
            self._work_chain.wake()

    async def _housekeeping(self) -> None:
        while True:
            await asyncio.sleep(self.tick)
            now = time.monotonic()
            if self.broker.expire(now):
                # a retry becomes leasable only when its backoff ends;
                # the waiters expire() just woke found nothing due
                due = self.broker.next_retry(now)
                if due is not None:
                    self._wake_at(due)
            # evict finished sessions past their retention window so
            # _entries (and every admission scan over it) stays bounded
            evict = [
                sid
                for sid, entry in self._entries.items()
                if entry.finished_at is not None
                and now - entry.finished_at > self.entry_retention
            ]
            for sid in evict:
                del self._entries[sid]
            if _TELEMETRY.enabled:
                _TELEMETRY.observe("service.queue_depth", self._inflight_total())

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _require_primary(self) -> SessionManager:
        if self.manager is None:
            raise HttpError(
                503, "standby: this node has not been promoted", headers={"Retry-After": "1"}
            )
        return self.manager

    def _inflight_total(self) -> int:
        return sum(1 for entry in self._entries.values() if not entry.finished)

    def _inflight_tenant(self, tenant: str) -> int:
        return sum(
            1
            for entry in self._entries.values()
            if entry.tenant == tenant and not entry.finished
        )

    def _entry(self, request: Request) -> _Entry:
        try:
            sid = int(request.params["sid"])
        except ValueError as error:
            raise HttpError(400, "session id must be an integer") from error
        entry = self._entries.get(sid)
        if entry is None:
            raise HttpError(404, f"no session {sid}")
        return entry

    def _session_doc(self, entry: _Entry) -> dict[str, Any]:
        session = entry.session
        doc: dict[str, Any] = {
            "session": session.session_id,
            "tenant": session.tenant,
            "state": "aborted" if entry.aborted else session.state.value,
            "replays": session.replays,
            "cost": session.total_cost,
            "done": entry.finished,
        }
        if session.report is not None:
            doc["report"] = wire.report_to_obj(session.report)
        if session.error is not None:
            doc["error"] = f"{type(session.error).__name__}: {session.error}"
        if self.hub is not None:
            seq = self.hub.commit_seq(session.session_id)
            if seq is not None:
                doc["seq"] = seq
        return doc

    # ------------------------------------------------------------------
    # tenant surface
    # ------------------------------------------------------------------
    async def _open_session(self, request: Request) -> Response:
        manager = self._require_primary()
        body = request.json()
        tenant = str(body.get("tenant", "default"))
        raw_query = body.get("query")
        if raw_query is None:
            raise HttpError(400, "missing 'query'")
        query = (
            parse_query(raw_query)
            if isinstance(raw_query, str)
            else codec.query_from_obj(raw_query)
        )
        if self._inflight_total() >= self.max_inflight_total:
            if _TELEMETRY.enabled:
                _TELEMETRY.count("service.admission_rejections")
            raise HttpError(
                429, "service at capacity", headers={"Retry-After": "1"}
            )
        if self._inflight_tenant(tenant) >= self.max_inflight_per_tenant:
            if _TELEMETRY.enabled:
                _TELEMETRY.count("service.admission_rejections")
            raise HttpError(
                429,
                f"tenant {tenant!r} at its in-flight cap",
                headers={"Retry-After": "1"},
            )
        raw_priority = body.get("priority")
        try:
            priority = 1.0 if raw_priority is None else float(raw_priority)
        except (TypeError, ValueError):
            raise HttpError(400, "'priority' must be a number")
        session = manager.open_session(
            query,
            BrokeredOracle(self.broker, priority=priority),
            tenant=tenant,
            policy=None if raw_priority is None else TenantPolicy(priority=priority),
        )
        entry = _Entry(session=session, tenant=tenant, done=asyncio.Event())
        self._entries[session.session_id] = entry
        loop = asyncio.get_running_loop()
        entry.future = loop.run_in_executor(self._executor, manager.drive, session)

        def _mark_done(_future: asyncio.Future) -> None:
            entry.finished_at = time.monotonic()
            entry.done.set()

        entry.future.add_done_callback(_mark_done)
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.sessions_opened")
            _TELEMETRY.observe("service.queue_depth", self._inflight_total())
        return json_response({"session": session.session_id, "state": "queued"})

    async def _get_session(self, request: Request) -> Response:
        return json_response(self._session_doc(self._entry(request)))

    async def _wait_session(self, request: Request) -> Response:
        entry = self._entry(request)
        timeout = request.query_float("timeout", 30.0)
        want_replicated = request.query.get("replicated", "0") not in ("0", "false", "")
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        try:
            await within(entry.done.wait(), timeout)
        except asyncio.TimeoutError:
            return json_response(self._session_doc(entry))
        if entry.future is not None:
            try:
                await entry.future  # surface executor-side crashes
            except (CancelledError, asyncio.CancelledError):
                pass
        doc = self._session_doc(entry)
        if want_replicated and self.hub is not None and "seq" in doc:
            remaining = max(0.05, deadline - loop.time())
            doc["replicated"] = await self.hub.wait_replicated(doc["seq"], remaining)
        elif want_replicated:
            doc["replicated"] = False
        return json_response(doc)

    async def _abort_session(self, request: Request) -> Response:
        entry = self._entry(request)
        if entry.finished:
            raise HttpError(409, "session already finished")
        if entry.future is not None and entry.future.cancel():
            entry.aborted = True
            entry.session.state = SessionState.FAILED
            entry.done.set()
            if _TELEMETRY.enabled:
                _TELEMETRY.count("service.sessions_aborted")
            return json_response({"session": entry.session.session_id, "state": "aborted"})
        raise HttpError(409, "session already running; it will commit or fail")

    async def _digest(self, request: Request) -> Response:
        manager = self._require_primary()

        def compute() -> dict[str, Any]:
            with manager._commit_lock:
                return {
                    "digest": codec.database_digest(manager.database),
                    "version": manager.database.version,
                }

        payload = await asyncio.get_running_loop().run_in_executor(None, compute)
        return json_response(payload)

    # ------------------------------------------------------------------
    # worker surface
    # ------------------------------------------------------------------
    def _worker_id(self, request: Request) -> str:
        worker = request.query.get("worker")
        if not worker:
            raise HttpError(400, "missing 'worker' query parameter")
        return worker

    async def _lease_or_wait(self, worker: str, wait: float) -> Optional[dict]:
        """*worker*'s next lease, waiting up to *wait* seconds (at most
        60) for one; ``None`` if none arrived in time."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(wait, 60.0)
        while True:
            lease = self.broker.lease(worker, time.monotonic())
            if lease is not None:
                return lease
            remaining = deadline - loop.time()
            if not remaining > 0:  # also a NaN wait
                return None
            assert self._work_chain is not None
            await self._work_chain.wait(remaining)

    async def _worker_feed(self, request: Request) -> Response:
        self._require_primary()
        worker = self._worker_id(request)
        wait = request.query_float("wait", 20.0)
        return json_response({"question": await self._lease_or_wait(worker, wait)})

    async def _worker_stream(self, request: Request) -> StreamResponse:
        self._require_primary()
        worker = self._worker_id(request)

        async def feed():
            while True:
                lease = self.broker.lease(worker, time.monotonic())
                if lease is not None:
                    yield json.dumps({"question": lease}, sort_keys=True).encode() + b"\n"
                    continue
                assert self._work_chain is not None
                if not await self._work_chain.wait(15.0):
                    yield json.dumps({"heartbeat": True}).encode() + b"\n"

        return StreamResponse(chunks=feed())

    async def _worker_answer(self, request: Request) -> Response:
        self._require_primary()
        body = request.json()
        try:
            worker = str(body["worker"])
            qid = int(body["qid"])
            reply = body["reply"]
            wait = None if body.get("wait") is None else float(body["wait"])
        except (KeyError, TypeError, ValueError) as error:
            raise HttpError(400, f"malformed answer: {error}") from error
        kind = self.broker.kind_of(qid)
        if kind is None:
            outcome = {"status": "unknown", "resolved": False}
        else:
            try:
                value = decode_reply(kind, reply)
            except Exception as error:
                raise HttpError(400, f"undecodable reply for {kind}: {error}") from error
            outcome = self.broker.answer(worker, qid, value, time.monotonic())
        if wait is not None:
            # answer-and-lease: the vote is recorded; the same reply
            # carries this worker's next question, as the feed would
            outcome["question"] = await self._lease_or_wait(worker, wait)
        return json_response(outcome)

    # ------------------------------------------------------------------
    # replication surface
    # ------------------------------------------------------------------
    def _require_hub(self) -> ReplicationHub:
        if self.hub is None:
            raise HttpError(503, "this primary is not durable; nothing to replicate")
        return self.hub

    async def _replication_checkpoint(self, request: Request) -> Response:
        hub = self._require_hub()
        document = hub.store.read_checkpoint()
        if document is None:
            raise HttpError(503, "no checkpoint written yet")
        return json_response(document)

    async def _replication_stream(self, request: Request) -> StreamResponse:
        hub = self._require_hub()
        from_seq = request.query_int("from_seq", 0)
        return StreamResponse(chunks=hub.stream(from_seq))

    async def _replication_ack(self, request: Request) -> Response:
        hub = self._require_hub()
        body = request.json()
        try:
            follower = str(body["follower"])
            seq = int(body["seq"])
        except (KeyError, TypeError, ValueError) as error:
            raise HttpError(400, f"malformed ack: {error}") from error
        hub.ack(follower, seq)
        return json_response({"acked": seq})

    async def _promote(self, request: Request) -> Response:
        if self.manager is not None:
            raise HttpError(409, "already primary")
        assert self.follower is not None
        follower = self.follower
        loop = asyncio.get_running_loop()

        def do_promote() -> SessionManager:
            if self._follower_thread is not None:
                self._follower_thread.join(timeout=10)
            return follower.promote()

        follower.stop()
        self.manager = await loop.run_in_executor(None, do_promote)
        self.follower = None
        self._follower_thread = None
        assert self._loop is not None
        if self.manager.durable:
            self.hub = ReplicationHub(self.manager, self._loop)
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.promotions")
        return json_response(
            {
                "role": "primary",
                "last_seq": follower.last_seq,
                "frames_applied": follower.frames_applied,
            }
        )

    # ------------------------------------------------------------------
    # health / stats
    # ------------------------------------------------------------------
    async def _healthz(self, request: Request) -> Response:
        role = "primary" if self.manager is not None else "standby"
        doc: dict[str, Any] = {"role": role}
        if self.follower is not None:
            doc["follower"] = self.follower.stats()
        if self.hub is not None:
            doc["replication"] = self.hub.stats()
        return json_response(doc)

    async def _stats(self, request: Request) -> Response:
        states: dict[str, int] = {}
        for entry in self._entries.values():
            key = "aborted" if entry.aborted else entry.session.state.value
            states[key] = states.get(key, 0) + 1
        doc: dict[str, Any] = {
            "role": "primary" if self.manager is not None else "standby",
            "broker": self.broker.stats(),
            "sessions": states,
            "inflight": self._inflight_total(),
            "caps": {
                "per_tenant": self.max_inflight_per_tenant,
                "total": self.max_inflight_total,
            },
        }
        if self.manager is not None:
            doc["ledger"] = self.manager.ledger.snapshot()
        if self.hub is not None:
            doc["replication"] = self.hub.stats()
        if self.follower is not None:
            doc["follower"] = self.follower.stats()
        return json_response(doc)


__all__ = ["CrowdService"]
