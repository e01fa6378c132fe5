"""The question broker: oracle calls in, worker leases and votes out.

Cleaning sessions run inside the service exactly as they do in process:
the manager wraps each tenant's backend in the usual accounting/sharing
oracles.  Here the *backend* is a :class:`BrokeredOracle` — every oracle
call becomes a pending **question** in the broker, and the session
thread blocks until remote crowd workers resolve it.  The broker reuses
the dispatch layer's machinery against real wall-clock workers:

* :func:`~repro.dispatch.dedup.question_key` coalesces structurally
  identical closed questions *in flight*: a second session asking the
  same question before the first resolves subscribes to the same vote
  instead of paying again (the cross-session analogue of the engine's
  :class:`~repro.dispatch.dedup.DedupIndex`);
* :class:`~repro.dispatch.policy.RetryPolicy` governs leases: an
  assignment unanswered after ``timeout`` seconds is expired, the
  worker is marked failed on that question, the question backs off
  ``delay(k)`` seconds and is re-leased — preferring workers that have
  not yet failed it (``reroute``).  When the retry budget is spent the
  question resolves to the same conservative fallback the dispatch
  engine uses, so a dead crowd degrades cleaning instead of hanging it;
* closed questions take ``votes_per_closed`` answers from distinct
  workers and resolve by majority, mirroring the engine's vote sampling.

Answer submission is **idempotent under at-least-once delivery**: one
``(question, worker)`` pair is counted once; replays and answers landing
after resolution are acknowledged (``duplicate`` / ``stale``) without
mutating state, so clients may retry POSTs freely.  Resolved questions
are retained only in a bounded tombstone window (``tombstone_limit``,
newest resolutions win); a replay arriving after its question aged out
is acknowledged as ``unknown``.  This keeps broker memory — and the
lease scan, which walks pending questions only — bounded no matter how
long the service runs.

Threading: session threads call :meth:`QuestionBroker.ask` (blocking);
the asyncio side calls :meth:`lease`, :meth:`answer`, and
:meth:`expire` from the event loop.  All state lives under one lock;
availability listeners registered with :meth:`add_listener` are invoked
outside it (the app bridges them onto the loop with
``call_soon_threadsafe``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional, Sequence

from ..db.tuples import Constant, Fact
from ..dispatch.dedup import question_key
from ..dispatch.policy import RetryPolicy
from ..oracle.base import Oracle
from ..query.ast import Query, Var
from ..query.evaluator import Answer, Assignment
from ..shard import wire
from ..telemetry import TELEMETRY as _TELEMETRY

#: Conservative resolutions when the retry budget is spent — identical
#: to the dispatch engine's degraded-mode defaults, so a question the
#: crowd never answers biases the cleaner toward "leave the data alone".
FALLBACKS: dict[str, Any] = {
    "verify_fact": True,
    "verify_answer": True,
    "verify_candidate": False,
    "complete_assignment": None,
    "complete_result": None,
}

_CLOSED_KINDS = frozenset({"verify_fact", "verify_answer", "verify_candidate"})


def _similarity_class(key: Hashable) -> Optional[Hashable]:
    """The canonical similarity class of a question key (lazy import —
    only similarity-enabled brokers pay for the plan package)."""
    from ..plan.similarity import similarity_key

    return similarity_key(key)  # type: ignore[arg-type]


@dataclass
class _Question:
    """One pending (or resolved) crowd question."""

    qid: int
    kind: str
    payload: dict  # wire-encoded, ready for the feed verbatim
    key: Optional[Hashable]
    votes_needed: int
    #: sessions waiting on this resolution (coalesced askers included) —
    #: the numerator of the capacity scheduler's unblocks-per-cost score
    subscribers: int = 1
    #: highest tenant priority among the subscribed askers
    priority: float = 1.0
    #: similarity class (set only on similarity-enabled brokers)
    ckey: Optional[Hashable] = None
    #: accepted ``(worker_id, value)`` votes, in arrival order
    votes: list = field(default_factory=list)
    answered: set = field(default_factory=set)
    failed: set = field(default_factory=set)
    #: ``worker_id -> lease deadline`` for in-flight assignments
    active: dict = field(default_factory=dict)
    #: lease grants handed out so far (the retry-budget numerator)
    grants: int = 0
    timeouts: int = 0
    not_before: float = 0.0
    event: threading.Event = field(default_factory=threading.Event)
    value: Any = None
    done: bool = False
    gave_up: bool = False

    def budget(self, policy: RetryPolicy) -> int:
        """Total lease grants the retry policy allows this question."""
        return (policy.max_retries + 1) * self.votes_needed


class QuestionBroker:
    """Routes oracle questions to remote workers and collects votes."""

    def __init__(
        self,
        *,
        policy: Optional[RetryPolicy] = None,
        votes_per_closed: int = 1,
        ask_timeout: Optional[float] = None,
        tombstone_limit: int = 1024,
        scheduler: Any = None,
        similarity: bool = False,
    ) -> None:
        if votes_per_closed < 1:
            raise ValueError("votes_per_closed must be >= 1")
        if tombstone_limit < 0:
            raise ValueError("tombstone_limit must be >= 0")
        self.policy = policy if policy is not None else RetryPolicy(timeout=30.0)
        self.votes_per_closed = votes_per_closed
        #: optional lease scoring (duck-typed ``score(question, now)``,
        #: e.g. :class:`repro.plan.CapacityScheduler`): the lease picks
        #: the highest-scoring eligible question instead of the oldest,
        #: spending shared crowd capacity on questions that unblock the
        #: most sessions per unit cost.  ``None`` keeps strict FIFO.
        self.scheduler = scheduler
        #: coalesce questions that are variable-renamed twins of an
        #: in-flight question (see :mod:`repro.plan.similarity`)
        self.similarity = similarity
        #: hard cap a session thread waits in :meth:`ask` before taking
        #: the fallback itself (``None`` = trust :meth:`expire` to
        #: resolve every question eventually)
        self.ask_timeout = ask_timeout
        #: resolved questions retained (newest first out) so replayed
        #: answer POSTs keep getting ``duplicate``/``stale`` instead of
        #: ``unknown``; beyond the window they are forgotten entirely,
        #: bounding broker memory in a long-running service
        self.tombstone_limit = tombstone_limit
        self._lock = threading.Lock()
        self._questions: dict[int, _Question] = {}
        self._by_key: dict[Hashable, _Question] = {}
        self._by_ckey: dict[Hashable, _Question] = {}
        #: pending qids only, oldest first (the lease scan order);
        #: resolved questions move to the tombstone window
        self._order: list[int] = []
        self._tombstones: deque[int] = deque()
        self._next_qid = 1
        self._closed = False
        self._listeners: list[Callable[[], None]] = []
        # counters (read via :meth:`stats`)
        self.submitted = 0
        self.coalesced = 0
        self.similarity_coalesced = 0
        self.resolved = 0
        self.fallbacks = 0
        self.expired_leases = 0
        self.duplicate_answers = 0
        self.stale_answers = 0

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def add_listener(self, callback: Callable[[], None]) -> None:
        """Invoke *callback* whenever leasable work may have appeared."""
        with self._lock:
            self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[], None]) -> None:
        with self._lock:
            if callback in self._listeners:
                self._listeners.remove(callback)

    def _notify(self) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for callback in listeners:
            callback()

    # ------------------------------------------------------------------
    # session side (blocking)
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        payload: dict,
        key: Optional[Hashable],
        priority: float = 1.0,
    ) -> _Question:
        """Register a question (or coalesce into an in-flight twin).

        Coalescing — exact-key or (on similarity-enabled brokers) a
        variable-renamed twin — bumps the twin's subscriber count and
        raises its priority to the highest subscribed tenant's, which is
        what lets the capacity scheduler prefer widely-awaited work.
        """
        ckey = None
        with self._lock:
            if key is not None:
                twin = self._by_key.get(key)
                if twin is not None and not twin.gave_up:
                    self.coalesced += 1
                    twin.subscribers += 1
                    twin.priority = max(twin.priority, priority)
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("service.broker.coalesced")
                    return twin
                if self.similarity:
                    ckey = _similarity_class(key)
                    if ckey is not None:
                        twin = self._by_ckey.get(ckey)
                        if twin is not None and not twin.gave_up and not twin.done:
                            self.similarity_coalesced += 1
                            twin.subscribers += 1
                            twin.priority = max(twin.priority, priority)
                            if _TELEMETRY.enabled:
                                _TELEMETRY.count(
                                    "service.broker.similarity_coalesced"
                                )
                            return twin
            question = _Question(
                qid=self._next_qid,
                kind=kind,
                payload=payload,
                key=key,
                votes_needed=self.votes_per_closed if kind in _CLOSED_KINDS else 1,
                priority=priority,
                ckey=ckey,
            )
            self._next_qid += 1
            self._questions[question.qid] = question
            self._order.append(question.qid)
            if key is not None:
                self._by_key[key] = question
            if ckey is not None:
                self._by_ckey[ckey] = question
            self.submitted += 1
            if _TELEMETRY.enabled:
                _TELEMETRY.count("service.broker.questions")
        self._notify()
        return question

    def ask(
        self,
        kind: str,
        payload: dict,
        key: Optional[Hashable],
        priority: float = 1.0,
    ) -> Any:
        """Block until the question resolves; fallback on a dead crowd."""
        question = self.submit(kind, payload, key, priority)
        if self._closed and not question.done:
            # the service is stopping: no worker will ever answer, so
            # degrade immediately instead of stranding the session thread
            self._resolve(question, FALLBACKS.get(kind), gave_up=True)
        if question.event.wait(self.ask_timeout):
            return question.value
        # the asker's own deadline fired first: resolve the question to
        # its fallback so coalesced subscribers agree on one value
        self._resolve(question, FALLBACKS.get(kind), gave_up=True)
        return question.value

    # ------------------------------------------------------------------
    # worker side (event loop)
    # ------------------------------------------------------------------
    def lease(self, worker_id: str, now: float) -> Optional[dict]:
        """Assign the oldest eligible question to *worker_id*.

        Preference order honours ``policy.reroute``: questions this
        worker has already failed are considered only when no other
        question is leasable — a reconnecting worker is better than no
        worker at all.

        With a :attr:`scheduler` attached, the *highest-scoring*
        eligible question is leased instead of the oldest (FIFO age
        breaks exact score ties), within the same eligibility and
        reroute tiers.
        """
        with self._lock:
            eligible: list[_Question] = []
            rerouted: list[_Question] = []
            for qid in self._order:
                question = self._questions[qid]
                if question.done or now < question.not_before:
                    continue
                if worker_id in question.active or worker_id in question.answered:
                    continue
                if len(question.active) + len(question.votes) >= question.votes_needed:
                    continue
                if question.grants >= question.budget(self.policy):
                    continue
                if self.policy.reroute and worker_id in question.failed:
                    rerouted.append(question)
                    continue
                if self.scheduler is None:
                    return self._grant(question, worker_id, now)
                eligible.append(question)
            for tier in (eligible, rerouted):
                if not tier:
                    continue
                if self.scheduler is None:
                    return self._grant(tier[0], worker_id, now)
                best = max(
                    tier, key=lambda q: (self.scheduler.score(q, now), -q.qid)
                )
                return self._grant(best, worker_id, now)
        return None

    def _grant(self, question: _Question, worker_id: str, now: float) -> dict:
        deadline = (
            now + self.policy.timeout if self.policy.timeout is not None else float("inf")
        )
        question.active[worker_id] = deadline
        question.grants += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.broker.leases")
        return {
            "qid": question.qid,
            "kind": question.kind,
            "question": question.payload,
            "attempt": question.grants,
            "timeout": self.policy.timeout,
        }

    def answer(self, worker_id: str, qid: int, value: Any, now: float) -> dict:
        """Record one worker's vote; idempotent under redelivery.

        Returns ``{"status": ..., "resolved": bool}`` where status is
        ``accepted`` (counted), ``duplicate`` (this worker already
        answered — replayed POST), ``stale`` (question already
        resolved), or ``unknown`` (no such question — never existed, or
        resolved so long ago it aged out of the tombstone window).
        """
        notify = False
        with self._lock:
            question = self._questions.get(qid)
            if question is None:
                return {"status": "unknown", "resolved": False}
            if worker_id in question.answered:
                self.duplicate_answers += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("service.broker.duplicate_answers")
                return {"status": "duplicate", "resolved": question.done}
            if question.done:
                question.active.pop(worker_id, None)
                self.stale_answers += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("service.broker.stale_answers")
                return {"status": "stale", "resolved": True}
            question.active.pop(worker_id, None)
            question.answered.add(worker_id)
            question.votes.append((worker_id, value))
            if len(question.votes) >= question.votes_needed:
                self._resolve_locked(question, self._tally(question))
                notify = True
        if notify:
            self._notify()
        return {"status": "accepted", "resolved": question.done}

    def expire(self, now: float) -> int:
        """Expire overdue leases; give up questions out of retry budget."""
        expired = 0
        give_up: list[_Question] = []
        with self._lock:
            for qid in list(self._order):
                question = self._questions[qid]
                if question.done:
                    continue
                overdue = [
                    worker
                    for worker, deadline in question.active.items()
                    if deadline <= now
                ]
                for worker in overdue:
                    del question.active[worker]
                    question.failed.add(worker)
                    question.timeouts += 1
                    expired += 1
                    self.expired_leases += 1
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("service.broker.expired_leases")
                if not overdue:
                    continue
                if (
                    question.grants >= question.budget(self.policy)
                    and not question.active
                ):
                    give_up.append(question)
                else:
                    retry_index = min(
                        question.timeouts - 1, self.policy.max_retries
                    )
                    question.not_before = now + self.policy.delay(retry_index)
        for question in give_up:
            self._resolve(question, FALLBACKS.get(question.kind), gave_up=True)
        if expired:
            self._notify()
        return expired

    def next_retry(self, now: float) -> Optional[float]:
        """The earliest instant after *now* at which a backed-off retry
        becomes leasable, or ``None`` when no retry is waiting out its
        backoff.  :meth:`expire`'s wake-up comes before that instant, so
        whoever waits on leases must be woken again then."""
        with self._lock:
            due = [
                question.not_before
                for question in self._questions.values()
                if not question.done and question.not_before > now
            ]
        return min(due, default=None)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _tally(self, question: _Question) -> Any:
        """Majority verdict for closed questions; first vote for open."""
        if question.kind not in _CLOSED_KINDS:
            return question.votes[0][1]
        counts: dict[Any, int] = {}
        for _worker, value in question.votes:
            counts[value] = counts.get(value, 0) + 1
        return max(counts.items(), key=lambda item: (item[1], item[0] is True))[0]

    def _resolve_locked(self, question: _Question, value: Any, gave_up: bool = False) -> None:
        if question.done:
            return
        question.value = value
        question.done = True
        question.gave_up = gave_up
        if question.key is not None and self._by_key.get(question.key) is question:
            # keep resolved keys out of the coalescing index: a *new*
            # asker goes through the accounting/board caches first, so
            # reaching the broker again means it wants a fresh vote
            del self._by_key[question.key]
        if question.ckey is not None and self._by_ckey.get(question.ckey) is question:
            del self._by_ckey[question.ckey]
        try:
            self._order.remove(question.qid)
        except ValueError:  # pragma: no cover - resolve is idempotent
            pass
        self._tombstones.append(question.qid)
        while len(self._tombstones) > self.tombstone_limit:
            self._questions.pop(self._tombstones.popleft(), None)
        self.resolved += 1
        if gave_up:
            self.fallbacks += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.broker.resolved")
            if gave_up:
                _TELEMETRY.count("service.broker.fallbacks")
        question.event.set()

    def _resolve(self, question: _Question, value: Any, gave_up: bool = False) -> None:
        with self._lock:
            self._resolve_locked(question, value, gave_up)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Resolve every pending question to its fallback.

        Called when the service stops: session threads blocked in
        :meth:`ask` wake immediately and their sessions run to a
        terminal (degraded) state instead of pinning the executor.
        """
        with self._lock:
            self._closed = True
            pending = [self._questions[qid] for qid in self._order]
        for question in pending:
            self._resolve(question, FALLBACKS.get(question.kind), gave_up=True)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def kind_of(self, qid: int) -> Optional[str]:
        with self._lock:
            question = self._questions.get(qid)
            return question.kind if question is not None else None

    def pending_count(self) -> int:
        with self._lock:
            return len(self._order)

    def stats(self) -> dict[str, int]:
        with self._lock:
            pending = len(self._order)
            inflight = sum(len(self._questions[qid].active) for qid in self._order)
            return {
                "submitted": self.submitted,
                "coalesced": self.coalesced,
                "similarity_coalesced": self.similarity_coalesced,
                "resolved": self.resolved,
                "fallbacks": self.fallbacks,
                "expired_leases": self.expired_leases,
                "duplicate_answers": self.duplicate_answers,
                "stale_answers": self.stale_answers,
                "pending": pending,
                "inflight": inflight,
            }


class BrokeredOracle(Oracle):
    """The oracle backend sessions see inside the service.

    Each method encodes the question with the shard wire codec (full
    queries — no session-query marker, because the feed serves many
    tenants), submits it to the broker, and blocks the calling session
    thread until remote workers resolve it.  The manager wraps this in
    the usual :class:`~repro.oracle.base.AccountingOracle` /
    :class:`~repro.server.sharing.SharedOracle` layers, so cost
    accounting and cross-session answer sharing are *identical* to an
    in-process run — the acceptance condition for cost parity.
    """

    def __init__(self, broker: QuestionBroker, priority: float = 1.0) -> None:
        self.broker = broker
        #: tenant priority stamped on every submitted question — the
        #: capacity scheduler's per-tenant weight
        self.priority = priority

    def verify_fact(self, fact: Fact) -> bool:
        payload = wire.question_to_obj("verify_fact", fact=fact)
        key = question_key(("verify_fact", fact))
        return bool(self.broker.ask("verify_fact", payload, key, self.priority))

    def verify_facts(self, facts: Sequence[Fact]) -> dict[Fact, bool]:
        payload = wire.question_to_obj("verify_facts", facts=facts)
        value = self.broker.ask("verify_facts", payload, None, self.priority)
        if value is None:  # crowd never answered: conservative per-fact default
            return {fact: True for fact in facts}
        return {fact: bool(value[fact]) for fact in facts}

    def verify_answer(self, query: Query, answer: Answer) -> bool:
        payload = wire.question_to_obj("verify_answer", query=query, answer=answer)
        key = question_key(("verify_answer", query, answer))
        return bool(self.broker.ask("verify_answer", payload, key, self.priority))

    def verify_candidate(self, query: Query, partial: Mapping[Var, Constant]) -> bool:
        payload = wire.question_to_obj("verify_candidate", query=query, partial=partial)
        key = question_key(("verify_candidate", query, dict(partial)))
        return bool(self.broker.ask("verify_candidate", payload, key, self.priority))

    def complete_assignment(
        self, query: Query, partial: Mapping[Var, Constant]
    ) -> Optional[Assignment]:
        payload = wire.question_to_obj(
            "complete_assignment", query=query, partial=partial
        )
        return self.broker.ask("complete_assignment", payload, None, self.priority)

    def complete_result(
        self, query: Query, known_answers: Iterable[Answer]
    ) -> Optional[Answer]:
        known = list(known_answers)
        payload = wire.question_to_obj("complete_result", query=query, known=known)
        return self.broker.ask("complete_result", payload, None, self.priority)


def decode_reply(kind: str, obj: dict) -> Any:
    """Decode a worker's reply into the broker's vote value.

    ``verify_facts`` replies stay keyed by decoded facts (hashable);
    everything else follows :func:`repro.shard.wire.reply_from_obj`.
    """
    return wire.reply_from_obj(kind, obj)


__all__ = [
    "FALLBACKS",
    "BrokeredOracle",
    "QuestionBroker",
    "decode_reply",
]
