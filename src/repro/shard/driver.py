"""``ShardedQOCO``: partition, clean shards in parallel, merge edit logs.

The driver is a thin deterministic harness around unchanged per-shard
QOCO loops:

1. **Partition** the database by the :class:`PartitionSpec`'s blocking
   keys into per-shard payloads (replicated dimension relations go to
   every shard) — plain row lists, no canonical sort, so the serial
   parent fraction stays small.  A payload carries rows only for the
   relations the query names, positively or under ``not``: nothing a
   shard's QOCO loop asks or edits lies outside them.
2. **Clean** every relevant shard with an independent QOCO instance —
   in worker *processes* (``mode="process"``, forked or spawned, see
   :func:`_start_method`) or sequentially in-process (``mode="inline"``,
   same codec path, for tests and debugging).  All oracle questions are
   brokered by the parent's :class:`~repro.shard.router.QuestionRouter`,
   so dedup and answer-board sharing span shards and completions come
   from a single process.
3. **Merge** the per-shard exported edit logs onto the parent database
   in ascending shard order — deterministic because disjoint shards'
   oracle-derived edits commute (each fact moves monotonically toward
   the ground truth, Proposition 3.3).  ``verify_merge=True`` replays
   the logs in *reverse* shard order onto a pristine copy and asserts
   ``state_digest`` equality.
4. **Close the loop**: a deletion in one shard can make an answer
   globally missing that only another shard can repair.  After each
   round the driver asks one global ``COMPL(Q(merged))`` sweep and
   re-runs the home shards of any stragglers, up to
   ``max_rounds`` rounds.

Only *shardable* queries are accepted — see
:meth:`PartitionSpec.is_shardable` and ``docs/sharding.md``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

from ..core.qoco import QOCOConfig, resolve_config
from ..db.database import Database
from ..durability import codec
from ..oracle.base import Oracle
from ..oracle.questions import InteractionLog
from ..query.ast import Query
from ..query.backend import resolve_backend
from ..telemetry import TELEMETRY as _TELEMETRY
from . import wire
from .partition import PartitionSpec, ShardingError, payload_to_database
from .router import QuestionRouter
from .worker import run_shard, shard_worker_main


#: seconds a worker gets to exit on its own, after its pipe closed or
#: after SIGTERM, before the driver stops waiting for it; a worker with
#: the default SIGTERM action dies at once
_EXIT_GRACE_S = 2.0


def _start_method() -> str:
    """``"fork"`` on Linux when no other Python thread runs, else ``"spawn"``.

    A forked worker starts from the parent's loaded modules, so it pays
    no interpreter start and no import.  Python's documentation calls
    ``fork`` unsafe on macOS, Windows has none, and a fork taken while
    another thread holds a lock can deadlock the child.
    """
    if (
        sys.platform.startswith("linux")
        and "fork" in mp.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return "fork"
    return "spawn"


def _main_path() -> Optional[str]:
    """The file spawn re-runs as ``__main__`` in every worker, if any.

    Mirrors :func:`multiprocessing.spawn.get_preparation_data`: a main
    module with a ``__spec__`` (``python -m ...``) is re-imported by
    name, and an interactive session is not re-run at all.
    """
    main = sys.modules.get("__main__")
    if main is None or getattr(getattr(main, "__spec__", None), "name", None):
        return None
    return getattr(main, "__file__", None)


def _check_spawn_safe_main() -> None:
    """Refuse spawned workers when spawn cannot re-import ``__main__``.

    The ``spawn`` start method re-runs the parent's ``__main__`` in every
    worker (see :func:`_main_path`).  A path that does not exist on
    disk — a heredoc / ``python -`` stdin script leaves
    ``__file__ == '<stdin>'`` — makes every worker crash *before* it
    reads its payload.  The payload send would then fail with an error
    that says only that a worker exited; failing up front names the
    cause and the fix.
    """
    path = _main_path()
    if path is not None and not os.path.exists(path):
        raise ShardingError(
            f"process mode needs a re-importable __main__ module, but "
            f"__main__.__file__ == {path!r} does not exist (stdin/heredoc "
            f"scripts cannot host spawn parents); run from a real file or "
            f"module, or use mode='inline'"
        )


def _worker_exited(shard: int, process, event: str, method: str) -> ShardingError:
    """The error for a worker whose pipe closed early: its exit code, and
    one possible cause when a spawned worker exits with code 1 and
    ``__main__`` is a script.

    A spawned worker that re-runs an unguarded script fails in
    ``multiprocessing.spawn._check_not_importing_main`` and exits with
    code 1, but so does any other uncaught error; the hint is a guess.
    A forked worker re-runs nothing, so it gets no hint.
    """
    process.join(timeout=_EXIT_GRACE_S)
    if process.exitcode is None:
        return ShardingError(
            f"shard {shard} worker closed its pipe {event} and is still running"
        )
    message = f"shard {shard} worker exited {event} (exit code {process.exitcode})"
    path = _main_path()
    if (
        method == "spawn"
        and process.exitcode == 1
        and path is not None
        and os.path.exists(path)
    ):
        message += (
            f"; if {path} starts the clean outside an "
            f"`if __name__ == \"__main__\":` guard, that is the likely cause: spawn "
            f"re-runs it in every worker (the workers' stderr has their error)"
        )
    return ShardingError(message)


def _start(process, method: str) -> None:
    """``process.start()``, without Python's warning about forking a
    process that runs native threads."""
    if method == "spawn":
        process.start()
        return
    with warnings.catch_warnings():
        # Python >= 3.12 warns about fork() in any process with a second
        # OS thread, and importing numpy starts OpenBLAS's pool.  No
        # second Python thread runs here (see _start_method), and OpenBLAS
        # shuts its pool down across a fork.  Other native threads are
        # forked unwarned too (docs/sharding.md, "Limits").
        warnings.filterwarnings(
            "ignore",
            message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
            category=DeprecationWarning,
        )
        process.start()


def _stop(processes) -> None:
    """Terminate every live worker; kill and reap any that outlives the grace."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + _EXIT_GRACE_S
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.kill()
            process.join()


@dataclass
class ShardOutcome:
    """One shard's slice of one round."""

    shard: int
    round: int
    iterations: int
    converged: bool
    edits: int
    wrong_answers_removed: int
    missing_answers_added: int
    #: the shard-local accounting (includes questions the parent answered
    #: free from its cross-shard cache; the authoritative crowd cost is
    #: the parent log on :class:`ShardReport`)
    question_count: int
    total_cost: int
    #: the worker's own wall-clock for this round (rebuild + clean);
    #: ``sum`` vs ``max`` over a round is the parallel fraction
    seconds: float = 0.0


@dataclass
class ShardReport:
    """The outcome of one sharded cleaning run."""

    query_name: str
    shards: int
    mode: str
    rounds: int = 0
    converged: bool = True
    outcomes: list[ShardOutcome] = field(default_factory=list)
    #: per-shard exported edit logs (wire objects, rounds concatenated) —
    #: replayable via :meth:`Database.apply_exported` in any shard order
    edit_logs: dict[int, list[dict]] = field(default_factory=dict)
    #: effective edits the merge applied to the parent database
    edits_applied: int = 0
    #: the parent-side interaction log: the real crowd cost of the run
    log: InteractionLog = field(default_factory=InteractionLog)
    wall_clock: float = 0.0
    iterations: int = 0

    @property
    def total_cost(self) -> int:
        return self.log.total_cost

    def summary(self) -> str:
        wrong = sum(o.wrong_answers_removed for o in self.outcomes)
        missing = sum(o.missing_answers_added for o in self.outcomes)
        text = (
            f"{self.query_name}: {self.shards} shard(s) [{self.mode}], "
            f"{wrong} wrong removed, {missing} missing added, "
            f"{self.edits_applied} merged edit(s), "
            f"{self.log.total_cost} question units in {self.rounds} round(s), "
            f"{self.wall_clock:.1f}s wall-clock"
        )
        if not self.converged:
            text += " [did not converge]"
        return text


class ShardedQOCO:
    """Partitioned, multi-process QOCO over one database and one oracle.

    ``database`` is the merge target: after :meth:`clean` it holds the
    union of every shard's repairs, exactly as if the per-shard edit
    logs had been replayed onto it (they were).  ``oracle`` is consulted
    only in the parent process.
    """

    def __init__(
        self,
        database: Database,
        oracle: Oracle,
        config: Optional[QOCOConfig] = None,
        *,
        spec: PartitionSpec,
        shards: int = 2,
        mode: str = "process",
        board=None,
        max_rounds: int = 3,
        verify_merge: bool = False,
        oracle_latency: float = 0.0,
        **overrides,
    ) -> None:
        if shards < 1:
            raise ShardingError(f"need at least one shard, got {shards}")
        if mode not in ("process", "inline"):
            raise ShardingError(f"mode must be 'process' or 'inline', got {mode!r}")
        if oracle_latency < 0:
            raise ShardingError(
                f"oracle_latency must be >= 0 seconds, got {oracle_latency}"
            )
        self.database = database
        self.spec = spec
        self.shards = shards
        self.mode = mode
        self.max_rounds = max_rounds
        self.verify_merge = verify_merge
        #: simulated crowd response time per charged question, paid
        #: worker-side (shards wait concurrently); 0 = answer instantly
        self.oracle_latency = oracle_latency
        self.config = resolve_config(config, **overrides)
        self.router = QuestionRouter(oracle, spec, shards, board=board)

    # ------------------------------------------------------------------
    # the sharded Algorithm 3
    # ------------------------------------------------------------------
    def clean(self, query: Query) -> ShardReport:
        self.spec.require_shardable(query)
        query = self.router.intern_query(query)
        self.router.session_query = query
        config_obj = wire.config_to_obj(self.config)  # validates spawn-safety
        query_obj = codec.query_to_obj(query)
        relations = {atom.relation for atom in query.atoms + query.negated_atoms}
        report = ShardReport(
            query_name=query.name,
            shards=self.shards,
            mode=self.mode,
            log=self.router.oracle.log,
        )
        # a query touching no partitioned relation sees identical data in
        # every shard (replicas only): clean it once, on shard 0
        if self.spec.partitioned_atoms(query):
            relevant = set(range(self.shards))
        else:
            relevant = {0}
        pristine = self.database.copy() if self.verify_merge else None
        start = time.perf_counter()
        with _TELEMETRY.span("shard.clean", query=query.name, shards=self.shards):
            targets = set(relevant)
            while targets:
                if report.rounds >= self.max_rounds:
                    report.converged = False
                    break
                report.rounds += 1
                with _TELEMETRY.span("shard.partition"):
                    payloads = self.spec.partition_payloads(
                        self.database, self.shards, relations
                    )
                if self.mode == "process":
                    results = self._run_round_process(
                        payloads, query_obj, config_obj, sorted(targets)
                    )
                else:
                    results = self._run_round_inline(
                        payloads, query_obj, config_obj, sorted(targets)
                    )
                round_converged = self._merge_round(report, results)
                targets = self._unfinished_shards(query, relevant)
                if targets and not round_converged:
                    # re-running a shard that already hit its iteration
                    # bound cannot make progress
                    report.converged = False
                    break
        report.iterations = max(
            (o.iterations for o in report.outcomes), default=0
        )
        report.wall_clock = time.perf_counter() - start
        if pristine is not None:
            self._verify_merge(report, pristine)
        return report

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def _run_round_inline(
        self, payloads: list[dict], query_obj: dict, config_obj: dict, targets: list[int]
    ) -> dict[int, dict]:
        """Sequential in-process execution through the same codec path.

        Shards run one after another, so the registration barrier is
        honored by registering every target's initial answers before the
        first shard runs.  Each shard registers through the fork and the
        backend instance its clean then uses, so its relations are
        encoded once, as in a worker process.
        """
        query = codec.query_from_obj(query_obj)
        opened = {}
        for shard in targets:
            fork = payload_to_database(payloads[shard]).fork()
            backend = resolve_backend(self.config.backend)
            self.router.register(shard, backend.evaluate(query, fork))
            opened[shard] = fork, backend
        results: dict[int, dict] = {}
        for shard in targets:
            ask = lambda obj, shard=shard: self.router.answer(shard, obj)  # noqa: E731
            fork, backend = opened[shard]
            results[shard] = run_shard(
                self._payload_for(payloads[shard], query_obj, config_obj),
                ask,
                fork=fork,
                backend=backend,
            )
        return results

    def _run_round_process(
        self, payloads: list[dict], query_obj: dict, config_obj: dict, targets: list[int]
    ) -> dict[int, dict]:
        """Start one worker process per target shard and broker questions.

        Workers are forked or spawned (see :func:`_start_method`); both
        run :func:`shard_worker_main` over the same pipe protocol.  Every
        worker is started before any payload is sent.  A payload is the
        first message on its worker's pipe, read once a spawned worker
        has imported its modules, so the workers start up concurrently.
        ``complete_result`` questions are deferred until every worker has
        registered its initial answer set — the scoping in
        :class:`QuestionRouter` needs the full union of ``Q(D_shard)``.
        """
        method = _start_method()
        if method == "spawn":
            _check_spawn_safe_main()
        context = mp.get_context(method)
        connections: dict[int, object] = {}
        processes: dict[int, object] = {}
        started: dict[int, float] = {}
        expected = set(targets)
        registered: set[int] = set()
        deferred: list[tuple[int, dict]] = []
        results: dict[int, dict] = {}

        def exited(shard: int, event: str) -> ShardingError:
            return _worker_exited(shard, processes[shard], event, method)

        def send(shard: int, message, what: str) -> None:
            try:
                connections[shard].send(message)
            except OSError as exc:  # BrokenPipeError / ConnectionResetError
                raise exited(shard, f"before reading its {what}") from exc

        try:
            for shard in targets:
                parent_conn, child_conn = context.Pipe()
                args: tuple = (child_conn, shard)
                if method == "fork":
                    # the child holds copies of every parent end opened so
                    # far, its own included; it closes them, or the
                    # parent's death would never reach its recv() as EOF
                    args += (tuple(connections.values()) + (parent_conn,),)
                connections[shard] = parent_conn
                process = context.Process(
                    target=shard_worker_main, args=args, daemon=True
                )
                started[shard] = time.perf_counter()
                _start(process, method)
                processes[shard] = process
                child_conn.close()
            for shard in targets:
                payload = self._payload_for(
                    payloads[shard], query_obj, config_obj, telemetry=True
                )
                send(shard, payload, "payload")
            live = dict(connections)
            by_conn = {conn: shard for shard, conn in connections.items()}
            while live:
                for conn in mp.connection.wait(list(live.values())):
                    shard = by_conn[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError) as exc:  # OSError: ConnectionResetError
                        raise exited(shard, "without a result") from exc
                    tag = message[0]
                    if tag == "register":
                        if _TELEMETRY.enabled:
                            _TELEMETRY.observe(
                                "shard.worker_ready_s", time.perf_counter() - started[shard]
                            )
                        self.router.register(
                            shard, wire.answers_from_obj(message[2])
                        )
                        registered.add(shard)
                        if registered >= expected:
                            for asking_shard, question in deferred:
                                reply = self.router.answer(asking_shard, question)
                                send(asking_shard, ("reply", reply), "reply")
                            deferred = []
                    elif tag == "ask":
                        question = message[2]
                        if (
                            question.get("kind") == "complete_result"
                            and registered < expected
                        ):
                            deferred.append((shard, question))
                        else:
                            reply = self.router.answer(shard, question)
                            send(shard, ("reply", reply), "reply")
                    elif tag == "done":
                        results[shard] = message[2]
                        del live[shard]
                    elif tag == "error":
                        raise ShardingError(
                            f"shard {shard} worker failed:\n{message[2]}"
                        )
                    else:
                        raise ShardingError(
                            f"shard {shard}: unknown message {tag!r}"
                        )
        finally:
            # a worker waiting on its pipe sees EOF and exits by itself
            for conn in connections.values():
                conn.close()
            _stop(processes.values())
        return results

    def _payload_for(
        self, database_obj: dict, query_obj: dict, config_obj: dict, telemetry: bool = False
    ) -> dict:
        return {
            "database": database_obj,
            "query": query_obj,
            "config": config_obj,
            "oracle_latency": self.oracle_latency,
            "telemetry": telemetry and _TELEMETRY.enabled,
        }

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def _merge_round(self, report: ShardReport, results: dict[int, dict]) -> bool:
        """Apply every shard's edit log in ascending shard order."""
        round_converged = True
        with _TELEMETRY.span("shard.merge"):
            for shard in sorted(results):
                result = results[shard]
                edits = result["edits"]
                report.edit_logs.setdefault(shard, []).extend(edits)
                applied = self.database.apply_exported(edits)
                report.edits_applied += applied
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("shard.edits_merged", applied)
                shard_report = result["report"]
                report.outcomes.append(
                    ShardOutcome(
                        shard=shard,
                        round=report.rounds,
                        iterations=shard_report["iterations"],
                        converged=shard_report["converged"],
                        edits=len(edits),
                        wrong_answers_removed=len(
                            shard_report["wrong_answers_removed"]
                        ),
                        missing_answers_added=len(
                            shard_report["missing_answers_added"]
                        ),
                        question_count=shard_report["question_count"],
                        total_cost=shard_report["total_cost"],
                        seconds=result.get("seconds", 0.0),
                    )
                )
                round_converged = round_converged and shard_report["converged"]
                # the shard's post-clean answers keep the router's global
                # Q(D) view current for later rounds
                self.router.register(shard, wire.answers_from_obj(result["answers"]))
                snapshot = result.get("telemetry")
                if snapshot:
                    _TELEMETRY.merge(snapshot)
        return round_converged

    def _unfinished_shards(self, query: Query, relevant: set[int]) -> set[int]:
        """Home shards of answers still missing from the merged result.

        One global ``COMPL(Q(D))`` sweep — the convergence check
        Algorithm 3 runs per loop, lifted to the driver.  The merged
        ``Q(D)`` is the union of the shards' final registered answer
        sets (shardability confines every witness to one shard), so the
        sweep costs no ``O(|D|)`` re-evaluation.  Normally returns empty
        after round 1; non-empty means a deletion in one shard uncovered
        missingness only another shard can repair, so that shard runs
        again.
        """
        known = self.router.global_answers()
        rerun: set[int] = set()
        while True:
            missing = self.router.oracle.complete_result(query, known)
            if missing is None:
                return rerun
            home = self.router.home_shard(query, missing)
            rerun.add(home if home is not None else min(relevant))
            known.add(missing)

    def _verify_merge(self, report: ShardReport, pristine: Database) -> None:
        """Replay the shard logs in reverse order; digests must agree."""
        for shard in sorted(report.edit_logs, reverse=True):
            pristine.apply_exported(report.edit_logs[shard])
        merged_digest = self.database.state_digest()
        if pristine.state_digest() != merged_digest:
            raise ShardingError(
                "merge verification failed: replaying shard edit logs in "
                "reverse shard order produced a different state_digest — "
                "shard edits were not disjoint"
            )
