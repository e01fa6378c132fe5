"""The session manager: N concurrent cleaning sessions, one database.

The multi-tenant service the §7 deployment implies: tenants submit
cleaning requests against one shared database; each admitted session
runs an unmodified cleaning loop on a private copy-on-write fork
(:meth:`repro.db.Database.fork`) and commits its edit log back through
an optimistic first-committer-wins protocol:

1. **fork** — taken under the commit lock, O(pending edits);
2. **run** — entirely lock-free: the fork's snapshot is immune to
   concurrent commits (the base copies a shared relation before its
   own first write to it);
3. **commit** — under the lock, the session's touched-fact set is
   intersected with every commit that landed after its fork point.
   Disjoint → the edit log is applied and the commit is recorded.
   Overlapping → the session lost the race: it *replays* on a fresh
   fork of the advanced base (bounded by ``max_replays``).  With a
   reliable oracle replay converges — the ground truth did not move,
   so the replayed session re-derives a compatible edit log (mostly
   from cache and the cross-session answer board, i.e. cheaply).

Cross-session question sharing is on by default: every session answers
closed questions from one :class:`~repro.dispatch.dedup.AnswerBoard`
before paying its oracle, so tenants with overlapping views share the
crowd's work (``server.shared_hits``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..core.qoco import QOCOConfig, resolve_planner
from ..db.database import Database
from ..db.edits import EditKind
from ..db.fork import DatabaseFork
from ..db.tuples import Fact
from ..oracle.base import Oracle
from ..query.ast import Query
from ..telemetry import TELEMETRY as _TELEMETRY
from .policy import TenantLedger, TenantPolicy
from .session import CleaningSession, SessionState
from .sharing import AnswerBoard


@dataclass(frozen=True)
class _CommitRecord:
    """One landed commit: who touched what, at which base version."""

    version: int            # base version after the edit log applied
    touched: frozenset      # facts the committed session inserted/deleted
    session_id: int
    tenant: str


@dataclass
class ServerReport:
    """The outcome of one :meth:`SessionManager.run_all` drain."""

    sessions: list = field(default_factory=list)

    def _count(self, state: SessionState) -> int:
        return sum(1 for s in self.sessions if s.state is state)

    @property
    def committed(self) -> int:
        return self._count(SessionState.COMMITTED)

    @property
    def denied(self) -> int:
        return self._count(SessionState.DENIED)

    @property
    def failed(self) -> int:
        return self._count(SessionState.FAILED)

    @property
    def replays(self) -> int:
        return sum(s.replays for s in self.sessions)

    @property
    def shared_hits(self) -> int:
        return sum(s.shared_hits for s in self.sessions)

    @property
    def total_cost(self) -> int:
        return sum(s.total_cost for s in self.sessions)

    def summary(self) -> str:
        return (
            f"{len(self.sessions)} session(s): {self.committed} committed, "
            f"{self.denied} denied, {self.failed} failed; "
            f"{self.replays} replay(s), {self.shared_hits} shared hit(s), "
            f"{self.total_cost} question units"
        )


class SessionManager:
    """Admits, schedules, and commits concurrent cleaning sessions.

    Parameters
    ----------
    database:
        The shared base.  Must not itself be a fork.
    mode:
        Default execution mode for sessions — ``"sync"`` (direct oracle
        calls) or ``"dispatch"`` (live engine over a worker pool).
    config:
        Default :class:`~repro.core.qoco.QOCOConfig` for sessions that
        do not bring their own.
    share_answers:
        Give every session one cross-session
        :class:`~repro.dispatch.dedup.AnswerBoard` (pass an existing
        board to share beyond this manager, ``False`` to isolate).
    pool:
        Shared :class:`~repro.dispatch.WorkerPool` for dispatch-mode
        sessions (each may also bring its own via ``open_session``).
    max_concurrent:
        Run-slot cap; ``None`` runs every admitted session at once.
    max_replays:
        Conflict replays per session before it is marked ``FAILED``.
    durable_path:
        Directory for the write-ahead log + checkpoints
        (:mod:`repro.durability`).  When set, every commit is appended
        to the WAL — and fsynced, per *sync* — **before** the commit is
        acknowledged, and an initial checkpoint of the base database is
        written at attach time.  ``None`` (default) keeps the server
        purely in-memory.  A directory that already holds durable state
        is refused — resume it with
        :func:`repro.durability.recover_manager` instead.
    sync:
        Fsync policy for the WAL: ``"always"`` (fsync per commit ack,
        default), ``"batch"`` (flush per commit, fsync on checkpoint /
        close), or ``"never"`` (leave it to the OS).
    checkpoint_every:
        Take a synchronous checkpoint after this many WAL records
        (``None`` = only explicit/interval checkpoints).
    checkpoint_interval:
        Run a background :class:`~repro.durability.Checkpointer` thread
        snapshotting every this-many seconds when the log grew.
    """

    def __init__(
        self,
        database: Database,
        *,
        mode: str = "sync",
        config: Optional[QOCOConfig] = None,
        share_answers: Union[bool, AnswerBoard] = True,
        pool=None,
        max_concurrent: Optional[int] = None,
        max_replays: int = 3,
        durable_path: Optional[Union[str, Path]] = None,
        sync: str = "always",
        checkpoint_every: Optional[int] = None,
        checkpoint_interval: Optional[float] = None,
        planner=None,
    ) -> None:
        if isinstance(database, DatabaseFork):
            raise ValueError("the shared base must not itself be a fork")
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 (or None)")
        if max_replays < 0:
            raise ValueError("max_replays must be >= 0")
        self.database = database
        self.mode = mode
        self.config = config
        if isinstance(share_answers, AnswerBoard):
            self.board: Optional[AnswerBoard] = share_answers
        else:
            self.board = AnswerBoard() if share_answers else None
        self.pool = pool
        self.max_concurrent = max_concurrent
        self.max_replays = max_replays
        #: Optional cost-aware admission: a planner (name or instance;
        #: see ``QOCOConfig.planner``) whose ``estimate(query)`` orders
        #: equal-priority sessions cheapest-expected-first in
        #: :meth:`run_all`.  ``None`` keeps pure submission order.
        self.planner = resolve_planner(planner)
        self.ledger = TenantLedger()
        self.commit_log: list[_CommitRecord] = []
        self._sessions: list[CleaningSession] = []
        self._queue: list[CleaningSession] = []
        self._commit_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._next_id = 0
        self._store = None
        self._checkpointer = None
        self._checkpoint_every: Optional[int] = None
        self._board_cursor = 0
        if durable_path is not None:
            from ..durability.store import DurabilityStore

            store = DurabilityStore(durable_path, sync=sync)
            self._attach_durability(
                store,
                checkpoint_every=checkpoint_every,
                checkpoint_interval=checkpoint_interval,
                initial_checkpoint=True,
            )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        """Is a write-ahead log attached to this manager?"""
        return self._store is not None

    def _attach_durability(
        self,
        store,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_interval: Optional[float] = None,
        initial_checkpoint: bool = False,
    ) -> None:
        """Wire a :class:`~repro.durability.DurabilityStore` to commits.

        Called by ``__init__`` (fresh directory, with an initial
        checkpoint so recovery always has a base snapshot) and by
        :func:`repro.durability.recover_manager` (resume: the recovered
        board/ledger are already loaded, the WAL keeps growing).
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        self._store = store
        self._checkpoint_every = checkpoint_every
        self._board_cursor = len(self.board.entries()) if self.board else 0
        if initial_checkpoint:
            with self._commit_lock:
                self._checkpoint_locked()
        if checkpoint_interval is not None:
            from ..durability.checkpoint import Checkpointer

            self._checkpointer = Checkpointer(self, interval=checkpoint_interval)
            self._checkpointer.start()

    def _serialize_state(self) -> dict[str, Any]:
        """The full checkpoint payload (call under the commit lock)."""
        from ..durability import codec

        entries = self.board.entries() if self.board is not None else []
        self._board_cursor = len(entries)
        # encode once; the digest hashes the very rows the checkpoint holds
        database = codec.database_to_obj(self.database)
        return {
            "database": database,
            "digest": codec.obj_digest(database),
            "ledger": self.ledger.snapshot(),
            "board": codec.board_entries_to_obj(entries),
        }

    def _board_delta(self) -> list[list]:
        """Board verdicts published since the last WAL record/checkpoint."""
        from ..durability import codec

        if self.board is None:
            return []
        entries = self.board.entries(self._board_cursor)
        self._board_cursor += len(entries)
        return codec.board_entries_to_obj(entries)

    def _log_commit(self, session: CleaningSession, fork: DatabaseFork) -> None:
        """Append the commit record and make it durable (under the lock).

        This runs *before* the edits touch the base and before the
        caller acknowledges the commit: once :meth:`DurabilityStore.append`
        returns under ``sync="always"``, the session's paid answers and
        certified edits survive any crash.
        """
        start = time.perf_counter()
        self._store.append(
            {
                "type": "commit",
                "session": session.session_id,
                "tenant": session.tenant,
                "cost": session.total_cost,
                "edits": fork.export_edit_log(),
                "board": self._board_delta(),
            }
        )
        if _TELEMETRY.enabled:
            _TELEMETRY.observe(
                "durability.commit_ack_s", time.perf_counter() - start
            )

    def _log_charge(self, session: CleaningSession, spent: int) -> None:
        """Persist a non-committed session's ledger delta + board finds."""
        with self._commit_lock:
            if self._store is None:  # closed between the caller's check and here
                return
            self._store.append(
                {
                    "type": "charge",
                    "session": session.session_id,
                    "tenant": session.tenant,
                    "cost": spent,
                    "board": self._board_delta(),
                }
            )
            self._maybe_checkpoint_locked()

    def checkpoint(self) -> int:
        """Snapshot the full server state and truncate the WAL.

        Returns the checkpoint size in bytes.  Requires a durable
        manager (``durable_path=`` / recovery attach).
        """
        if self._store is None:
            from ..durability.store import DurabilityError

            raise DurabilityError("this manager has no durability store attached")
        with self._commit_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> int:
        return self._store.write_checkpoint(self._serialize_state())

    def _maybe_checkpoint_locked(self) -> None:
        if (
            self._checkpoint_every is not None
            and self._store.records_since_checkpoint >= self._checkpoint_every
        ):
            self._checkpoint_locked()

    def close(self, *, checkpoint: bool = False) -> None:
        """Stop the checkpointer and release the WAL (idempotent).

        With ``checkpoint=True`` a final snapshot is taken first, so
        the next :func:`repro.durability.recover` replays nothing.

        Safe to call concurrently — with other ``close()`` calls (the
        close lock serializes them; later calls are no-ops) and with
        in-flight commits: the store is detached under the commit lock,
        so a commit that already entered :meth:`_try_commit` finishes
        its WAL append + fsync before the log is released, and one that
        arrives after sees ``_store is None`` and commits in-memory
        only.  Previously a close racing a commit could fsync-and-close
        the log file out from under the commit's append.
        """
        with self._close_lock:
            # stop the background thread outside the commit lock — its
            # checkpoint path takes that lock, so joining under it would
            # deadlock
            if self._checkpointer is not None:
                self._checkpointer.stop()
                self._checkpointer = None
            with self._commit_lock:
                if self._store is None:
                    return
                if checkpoint and self._store.records_since_checkpoint:
                    self._checkpoint_locked()
                self._store.sync()
                self._store.close()
                self._store = None

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def open_session(
        self,
        query: Query,
        oracle: Oracle,
        *,
        tenant: str = "default",
        policy: Optional[TenantPolicy] = None,
        config: Optional[QOCOConfig] = None,
        mode: Optional[str] = None,
        pool=None,
        votes_per_closed: int = 1,
    ) -> CleaningSession:
        """Queue one cleaning request; returns the (not yet run) session.

        *oracle* is the tenant's crowd backend — a raw
        :class:`~repro.oracle.base.Oracle`; the manager wraps it with
        accounting (and the shared board) per run attempt.
        """
        session = CleaningSession(
            self._next_id,
            query,
            oracle,
            tenant=tenant,
            policy=policy,
            config=config if config is not None else self.config,
            mode=mode if mode is not None else self.mode,
            board=self.board,
            pool=pool if pool is not None else self.pool,
            votes_per_closed=votes_per_closed,
            submitted_at=self._next_id,
        )
        self._next_id += 1
        self._sessions.append(session)
        self._queue.append(session)
        if _TELEMETRY.enabled:
            _TELEMETRY.count("server.sessions_opened")
        return session

    def open_repair_session(
        self,
        constraints,
        oracle: Oracle,
        *,
        tenant: str = "default",
        policy: Optional[TenantPolicy] = None,
        strategy: str = "oracle",
        **repair_options,
    ) -> "RepairSession":
        """Queue one constraint-repair request; returns the session.

        *constraints* is anything
        :func:`repro.constraints.ast.as_constraints` accepts (FD
        strings, :class:`~repro.constraints.ast.FD` /
        ``DenialConstraint`` objects, or an iterable).  The session goes
        through the same admission, fork/commit, WAL, and ledger paths
        as a cleaning session — a committed repair is durable and
        crash-recoverable exactly like a committed cleaning run.
        Remaining keyword arguments (``budget=``, ``updates=``,
        ``backend=``, ...) reach the repair strategy.
        """
        from .session import RepairSession

        session = RepairSession(
            self._next_id,
            constraints,
            oracle,
            schema=self.database.schema,
            strategy=strategy,
            repair_options=repair_options,
            tenant=tenant,
            policy=policy,
            config=self.config,
            board=self.board,
            submitted_at=self._next_id,
        )
        self._next_id += 1
        self._sessions.append(session)
        self._queue.append(session)
        if _TELEMETRY.enabled:
            _TELEMETRY.count("server.repair_sessions_opened")
        return session

    def _admission_cost(self, query: Query) -> float:
        """The planner's expected episode cost for *query* (0.0 without
        a planner or on any estimation failure — never blocks admission)."""
        if self.planner is None:
            return 0.0
        try:
            return float(self.planner.estimate(query))
        except Exception:
            return 0.0

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def run_all(self) -> ServerReport:
        """Run every queued session to a terminal state; returns a report.

        Admission order is (priority desc, expected cost asc when a
        planner is attached, submission order); the actual interleaving
        under ``max_concurrent > 1`` is up to the scheduler, which is
        exactly what the commit protocol makes safe.  Cheapest-first
        among equal priorities minimises mean session wait for the
        shared crowd (shortest-expected-job-first), and falls back to
        0.0 — pure FIFO — for shapes the planner has no data on.
        """
        queued = sorted(
            self._queue,
            key=lambda s: (
                -s.policy.priority,
                self._admission_cost(s.query),
                s.submitted_at,
            ),
        )
        self._queue = []
        if not queued:
            return ServerReport(sessions=list(self._sessions))
        workers = (
            self.max_concurrent
            if self.max_concurrent is not None
            else len(queued)
        )
        with _TELEMETRY.span("server.run_all", sessions=len(queued)):
            if workers == 1:
                for session in queued:
                    self._drive(session)
            else:
                with ThreadPoolExecutor(max_workers=workers) as executor:
                    list(executor.map(self._drive, queued))
        return ServerReport(sessions=list(self._sessions))

    # ------------------------------------------------------------------
    # one session, fork → run → commit (→ replay)
    # ------------------------------------------------------------------
    def drive(self, session: CleaningSession) -> CleaningSession:
        """Run one admitted *session* to a terminal state and return it.

        Unlike :meth:`run_all` this drives a single session without
        draining the queue — the network service admits sessions one
        request at a time and drives each on its own executor thread.
        Thread-safe: forking and committing serialize on the commit
        lock, exactly as under :meth:`run_all`'s thread pool.
        """
        if session in self._queue:
            self._queue.remove(session)
        self._drive(session)
        return session

    def _drive(self, session: CleaningSession) -> None:
        if self.ledger.over_budget(session.tenant, session.policy):
            session.state = SessionState.DENIED
            if _TELEMETRY.enabled:
                _TELEMETRY.count("server.sessions_denied")
            return
        try:
            while True:
                with self._commit_lock:
                    fork = self.database.fork()
                session.run(fork)
                if self._try_commit(session, fork):
                    session.state = SessionState.COMMITTED
                    break
                session.replays += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("server.conflicts")
                    _TELEMETRY.count("server.replays")
                if session.replays > self.max_replays:
                    session.state = SessionState.FAILED
                    break
        except Exception as error:  # the run itself blew up
            session.error = error
            session.state = SessionState.FAILED
            if _TELEMETRY.enabled:
                _TELEMETRY.count("server.session_errors")
        finally:
            spent = session.total_cost
            if spent:
                self.ledger.charge(session.tenant, spent)
                if _TELEMETRY.enabled:
                    _TELEMETRY.observe("server.session_cost", spent)
            if (
                spent
                and self._store is not None
                and session.state is not SessionState.COMMITTED
            ):
                # paid crowd answers outlive a failed commit: persist the
                # tenant's ledger delta and any board verdicts it bought
                self._log_charge(session, spent)

    def _try_commit(self, session: CleaningSession, fork: DatabaseFork) -> bool:
        """First-committer-wins: apply the fork's edit log or report a
        conflict (True = committed)."""
        touched = fork.touched_facts()
        with self._commit_lock:
            if self._conflicts(fork.forked_at_version, touched):
                return False
            if self._store is not None:
                # WAL first: the record is durable (ack-after-fsync under
                # sync="always") before the edits become visible
                self._log_commit(session, fork)
            applied = 0
            for edit in fork.pending_edits:
                if edit.kind is EditKind.INSERT:
                    applied += self.database.insert(edit.fact)
                else:
                    applied += self.database.delete(edit.fact)
            self.commit_log.append(
                _CommitRecord(
                    version=self.database.version,
                    touched=touched,
                    session_id=session.session_id,
                    tenant=session.tenant,
                )
            )
            if self._store is not None:
                self._maybe_checkpoint_locked()
        if _TELEMETRY.enabled:
            _TELEMETRY.count("server.commits")
            _TELEMETRY.observe("server.commit_edits", applied)
        return True

    def _conflicts(self, forked_at: int, touched: frozenset[Fact]) -> bool:
        """Did any commit after *forked_at* touch a fact we touched?

        An empty edit log never conflicts (a read-only session commits
        trivially), and commits at or before the fork point are already
        part of the fork's snapshot.
        """
        if not touched:
            return False
        for record in self.commit_log:
            if record.version > forked_at and record.touched & touched:
                return True
        return False


__all__ = ["ServerReport", "SessionManager", "TenantPolicy"]
