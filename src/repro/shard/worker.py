"""The shard worker: one QOCO loop over one shard, questions proxied home.

:func:`run_shard` is the mode-independent core — decode the payload,
fork the shard database, run an unchanged :class:`~repro.core.qoco.QOCO`
loop against a :class:`ProxyOracle`, and return the fork's exported edit
log plus the per-shard report slice.  :func:`shard_worker_main` is the
``multiprocessing`` entry point, forked or spawned, that wires the core
to a duplex pipe: it registers the shard's initial answer set, relays
questions, and ships the result (plus a telemetry snapshot for
:meth:`~repro.telemetry.core.Telemetry.merge`) back to the parent.

Everything crossing the boundary is a wire object (see
:mod:`repro.shard.wire`); the worker never pickles strategies, oracles,
or databases.
"""

from __future__ import annotations

import dataclasses
import signal
import time
import traceback
from typing import Callable, Iterable, Mapping, Optional

from ..core.qoco import QOCO
from ..db.database import Database
from ..db.tuples import Constant, Fact
from ..durability import codec
from ..oracle.base import AccountingOracle, Oracle
from ..query.ast import Query, Var
from ..query.backend import EvalBackend, resolve_backend
from ..query.evaluator import Answer, Assignment
from . import wire
from .partition import payload_to_database


class ProxyOracle(Oracle):
    """An oracle whose every question is answered by a callable.

    ``ask`` takes a wire-encoded question object and returns the
    wire-encoded reply — a pipe round-trip in process mode, a direct
    :meth:`~repro.shard.router.QuestionRouter.answer` call inline.
    *session_query* (the query this shard is cleaning) wires as a marker
    instead of a full per-question encoding; see
    :data:`~repro.shard.wire.SESSION_QUERY`.
    """

    def __init__(
        self, ask: Callable[[dict], dict], session_query: Optional[Query] = None
    ) -> None:
        self._ask = ask
        self._session_query = session_query

    def _round_trip(self, kind: str, **parts):
        reply = self._ask(
            wire.question_to_obj(kind, session_query=self._session_query, **parts)
        )
        return wire.reply_from_obj(kind, reply)

    def verify_fact(self, fact: Fact) -> bool:
        return self._round_trip("verify_fact", fact=fact)

    def verify_facts(self, facts) -> dict[Fact, bool]:
        return self._round_trip("verify_facts", facts=facts)

    def verify_answer(self, query: Query, answer: Answer) -> bool:
        return self._round_trip("verify_answer", query=query, answer=answer)

    def verify_candidate(self, query: Query, partial: Mapping[Var, Constant]) -> bool:
        return self._round_trip("verify_candidate", query=query, partial=partial)

    def complete_assignment(
        self, query: Query, partial: Mapping[Var, Constant]
    ) -> Optional[Assignment]:
        return self._round_trip("complete_assignment", query=query, partial=partial)

    def complete_result(
        self, query: Query, known_answers: Iterable[Answer]
    ) -> Optional[Answer]:
        return self._round_trip("complete_result", query=query, known=known_answers)


class LatencyOracle(Oracle):
    """Adds a fixed wall-clock delay to every question it delegates.

    Models the crowd's response time — the dominant cost of a live
    deployment (§6.2/§7.2), here thousands of times faster than a human.
    Placed *under* the worker's :class:`AccountingOracle`, so only
    questions that actually reach the crowd pay latency (repeats are
    answered free from the cache, as the paper guarantees).  Shards wait
    on their oracles concurrently, which is exactly the parallelism
    Appendix B monetizes; ``benchmarks/bench_shard.py`` turns this on
    via the driver's ``oracle_latency`` knob (default off).
    """

    def __init__(self, backend: Oracle, seconds: float) -> None:
        self.backend = backend
        self.seconds = seconds

    def _wait(self) -> None:
        time.sleep(self.seconds)

    def verify_fact(self, fact: Fact) -> bool:
        self._wait()
        return self.backend.verify_fact(fact)

    def verify_facts(self, facts) -> dict[Fact, bool]:
        self._wait()
        return self.backend.verify_facts(facts)

    def verify_answer(self, query: Query, answer: Answer) -> bool:
        self._wait()
        return self.backend.verify_answer(query, answer)

    def verify_candidate(self, query: Query, partial: Mapping[Var, Constant]) -> bool:
        self._wait()
        return self.backend.verify_candidate(query, partial)

    def complete_assignment(
        self, query: Query, partial: Mapping[Var, Constant]
    ) -> Optional[Assignment]:
        self._wait()
        return self.backend.complete_assignment(query, partial)

    def complete_result(
        self, query: Query, known_answers: Iterable[Answer]
    ) -> Optional[Answer]:
        self._wait()
        return self.backend.complete_result(query, known_answers)


def run_shard(
    payload: dict,
    ask: Callable[[dict], dict],
    on_ready: Optional[Callable[[list], None]] = None,
    fork: Optional[Database] = None,
    backend: Optional[EvalBackend] = None,
) -> dict:
    """Clean one shard payload; return the wire-encoded result.

    *on_ready* (if given) receives the shard's initial answer set —
    wire-encoded, sorted — before any cleaning question is asked, so
    the router can scope ``COMPL(Q(D))`` across all shards.

    The registration answers, the clean and the final answers all read
    the fork through one backend instance: a columnar store belongs to
    one (backend, database) pair, so the shard's relations are encoded
    once, not once per reader.  A caller that has already evaluated the
    shard (inline mode) passes that *fork* and *backend* instead.
    """
    start = time.perf_counter()
    query = codec.query_from_obj(payload["query"])
    config = wire.config_from_obj(payload["config"])
    if fork is None:
        fork = payload_to_database(payload["database"]).fork()
    if backend is None:
        backend = resolve_backend(config.backend)
    if on_ready is not None:
        on_ready(wire.answers_to_obj(backend.evaluate(query, fork)))
    proxy: Oracle = ProxyOracle(ask, session_query=query)
    latency = payload.get("oracle_latency") or 0.0
    if latency > 0.0:
        proxy = LatencyOracle(proxy, latency)
    oracle = AccountingOracle(proxy)
    report = QOCO(fork, oracle, dataclasses.replace(config, backend=backend)).clean(query)
    return {
        "report": wire.report_to_obj(report),
        "edits": fork.export_edit_log(),
        "answers": wire.answers_to_obj(backend.evaluate(query, fork)),
        "seconds": time.perf_counter() - start,
    }


def shard_worker_main(conn, shard: int, inherited: tuple = ()) -> None:
    """``multiprocessing`` entry point (spawn-safe: module-level, plain
    picklable arguments).

    The shard payload is the first message on *conn*, not a process
    argument: ``Process.start()`` then returns without waiting for this
    process to import its modules, and the parent starts every worker
    before it sends any payload.

    A forked worker starts from a copy of its parent, and sheds what
    belongs to the parent first: the telemetry hub's aggregates and
    sinks, a SIGTERM handler that could keep the driver's ``terminate()``
    from stopping it, and *inherited*, its copies of the parent's pipe
    ends (the parent's death reaches ``conn`` as EOF only once every
    copy of the other end is closed).
    """
    from ..telemetry import TELEMETRY

    TELEMETRY.detach()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for end in inherited:
        end.close()

    def ask(question_obj: dict) -> dict:
        conn.send(("ask", shard, question_obj))
        tag, reply = conn.recv()
        if tag != "reply":
            raise RuntimeError(f"shard {shard}: unexpected message {tag!r}")
        return reply

    def on_ready(answers_obj: list) -> None:
        conn.send(("register", shard, answers_obj))

    try:
        payload = conn.recv()
        if payload.get("telemetry"):
            TELEMETRY.enable()
        result = run_shard(payload, ask, on_ready)
        if payload.get("telemetry"):
            result["telemetry"] = TELEMETRY.snapshot()
        conn.send(("done", shard, result))
    except BaseException:
        try:
            conn.send(("error", shard, traceback.format_exc()))
        except OSError:  # parent already gone; nothing left to report to
            pass
    finally:
        conn.close()


def _echo_main(conn) -> None:
    """Spawn-safety test helper: echo every received object back until
    the ``"stop"`` sentinel arrives."""
    try:
        while True:
            obj = conn.recv()
            if obj == "stop":
                break
            conn.send(obj)
    finally:
        conn.close()
