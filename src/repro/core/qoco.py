"""The main iterative cleaning loop (Section 6, Algorithm 3).

Alternates a deletion phase (verify every unverified answer of ``Q(D)``,
remove the wrong ones via Algorithm 1) with an insertion phase (pose
``COMPL(Q(D))`` questions until the enumeration black-box declares the
result complete, adding each missing answer via Algorithm 2), repeating
while unverified answers appear — fixing one error class can surface new
errors of the other class (Example 6.1), but Proposition 3.3 guarantees
every edit moves ``D`` toward ``D_G``, so the loop converges.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from ..db.database import Database
from ..oracle.base import AccountingOracle, Oracle
from ..oracle.enumeration import CompletionEstimator, ExactCompletion
from ..query.ast import Query
from ..query.backend import (
    BackendEvaluator,
    EvalBackend,
    NaiveBackend,
    resolve_backend,
)
from ..query.evaluator import Answer, Evaluator, answer_to_partial
from ..query.incremental import IncrementalAnswers, supports_incremental
from ..telemetry import TELEMETRY as _TELEMETRY
from .deletion import DeletionError, DeletionStrategy, crowd_remove_wrong_answer
from .insertion import InsertionConfig, InsertionError, crowd_add_missing_answer
from .registry import REGISTRY
from .report import Report
from .split import SplitStrategy


@dataclass
class QOCOConfig:
    """Configuration shared by every cleaning loop.

    One config type drives :class:`QOCO`,
    :class:`~repro.core.parallel.ParallelQOCO`, and
    :class:`~repro.core.ucq.UCQCleaner`; fields a given loop has no use
    for (e.g. ``completion_width`` on the sequential loop) are simply
    ignored by it.

    Strategy fields accept registry *names* (resolved through
    :data:`repro.core.registry.REGISTRY`, case-insensitive) or built
    instances interchangeably::

        QOCOConfig(split="mincut", deletion="responsibility", planner="bandit")
        QOCOConfig(split=MinCutSplit(), deletion=ResponsibilityDeletion())

    Names travel the shard wire and the service API as-is; instances
    work everywhere in-process (and cross the shard wire when the
    registry maps them back to a name).  Each loop exposes the resolved
    instances as ``deletion_strategy`` / ``split_strategy``.
    """

    #: Strategy for Algorithm 1 (deletion): a registry name
    #: (``"qoco"``, ``"qoco-"``, ``"random"``, ``"responsibility"``,
    #: ``"trust"``) or a :class:`DeletionStrategy` instance.
    deletion: Union[str, DeletionStrategy] = "qoco"
    #: Strategy for Algorithm 2's Split(): a registry name (``"naive"``,
    #: ``"random"``, ``"mincut"``, ``"provenance"``) or a
    #: :class:`SplitStrategy` instance.
    split: Union[str, SplitStrategy] = "provenance"
    #: Adaptive question planner for the insertion phase: ``None``
    #: (static ``split``), a registry name (``"bandit"``), or a
    #: :class:`repro.plan.BanditPlanner`-like instance.  When set, each
    #: missing-answer episode's split strategy is chosen per query shape
    #: from the planner's learned cost model; a planner pinned to a
    #: single arm is bit-identical to the corresponding static strategy
    #: (see ``docs/planner.md``).
    planner: Optional[Union[str, Any]] = None
    #: Factory for the enumeration black-box (fresh instance per phase).
    estimator_factory: Callable[[], CompletionEstimator] = ExactCompletion
    #: Algorithm 2 tuning.
    insertion: InsertionConfig = field(default_factory=InsertionConfig)
    #: Hard bound on outer iterations (convergence is guaranteed with a
    #: perfect oracle; imperfect crowds need a stop).
    max_iterations: int = 10
    #: Bound on COMPL(Q(D)) questions per insertion phase.
    max_completions_per_phase: int = 100
    #: Minimize the view definition first (Chandra–Merlin core): redundant
    #: body atoms inflate witnesses and crowd questions for free.
    minimize_query: bool = False
    #: Maintain ``Q(D)`` and every answer's witnesses incrementally under
    #: edits (delta rules) instead of re-running the evaluator per check.
    #: Semantics are bit-identical; query shapes the delta rules don't
    #: cover fall back to full evaluation automatically.
    use_incremental: bool = True
    #: Evaluation substrate for ``Q(D)`` reads, satisfiability probes and
    #: the incremental engine's delta enumeration: ``"naive"`` (the
    #: backtracking reference), ``"columnar"`` (vectorized numpy hash
    #: joins), ``"sql"`` (DuckDB/sqlite compilation) or any
    #: :class:`~repro.query.backend.EvalBackend` instance.  Non-reference
    #: backends transparently fall back to ``naive`` on query shapes
    #: outside their capability flags; results are identical either way.
    backend: Union[str, EvalBackend] = "naive"
    #: Random seed for the strategies' tie-breaking (and, derived, for
    #: the planner's exploration — see ``docs/planner.md``).
    seed: Optional[int] = None
    #: COMPL(Q(D)) questions posted together per parallel wave
    #: (ParallelQOCO only; the sequential loops ignore it).
    completion_width: int = 4
    #: Builds the round scheduler for one parallel clean() — the seam
    #: where ``repro.dispatch`` plugs in its live engine.  ``None``
    #: selects the synchronous ``RoundScheduler``.  ParallelQOCO only.
    scheduler_factory: Optional[Callable[..., Any]] = None


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(QOCOConfig))


def resolve_config(config: Optional[QOCOConfig], **overrides: Any) -> QOCOConfig:
    """Merge per-call keyword overrides into *config*.

    Per-call kwargs (``max_iterations=...``, ``seed=...``,
    ``split="mincut"``, ...) become targeted field replacements on the
    shared :class:`QOCOConfig`.  ``None`` overrides are ignored, so
    plain ``Cleaner(db, oracle, config)`` passes through untouched.
    A *config* that is not a :class:`QOCOConfig` (e.g. a strategy passed
    as the third positional argument) and unknown keywords raise
    :class:`TypeError`.
    """
    if config is not None and not isinstance(config, QOCOConfig):
        raise TypeError(
            f"expected a QOCOConfig, got {type(config).__name__}; pass "
            f"strategies as deletion=... / split=..."
        )
    resolved = config if config is not None else QOCOConfig()
    actual: dict[str, Any] = {}
    for name, value in overrides.items():
        if name not in _CONFIG_FIELDS:
            raise TypeError(f"unknown QOCOConfig override {name!r}")
        if value is not None:
            actual[name] = value
    if not actual:
        return resolved
    return dataclasses.replace(resolved, **actual)


def resolve_planner(spec: Any, *, seed: Optional[int] = None) -> Optional[Any]:
    """Build the planner a cleaning loop will drive, or ``None``.

    A string resolves through the registry (lazy-importing
    ``repro.plan``) and the fresh instance is seeded from the session
    seed, so every stochastic planner choice flows from ``--repro-seed``.
    An already-built instance is returned untouched — it may be shared
    across sessions (its cost model accumulates), so its RNG belongs to
    whoever constructed it.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        planner = REGISTRY.resolve("planner", spec)
        from ..plan.planner import derive_seed

        planner.reseed(derive_seed(seed, "planner"))
        return planner
    return REGISTRY.resolve("planner", spec)


class QOCO:
    """The QOCO cleaning system over one database and one oracle.

    Configure with a shared :class:`QOCOConfig` (third positional
    argument) or with per-field keyword overrides — ``QOCO(db, oracle,
    seed=7)`` is shorthand for ``QOCO(db, oracle, QOCOConfig(seed=7))``,
    and ``QOCO(db, oracle, split="mincut", planner="bandit")`` resolves
    strategy names through the registry.
    """

    def __init__(
        self,
        database: Database,
        oracle: Oracle,
        config: Optional[QOCOConfig] = None,
        **overrides: Any,
    ) -> None:
        self.database = database
        self.config = resolve_config(config, **overrides)
        self.deletion_strategy: DeletionStrategy = REGISTRY.resolve(
            "deletion", self.config.deletion
        )
        self.split_strategy: SplitStrategy = REGISTRY.resolve(
            "split", self.config.split
        )
        self.planner = resolve_planner(self.config.planner, seed=self.config.seed)
        self.backend = resolve_backend(self.config.backend)
        self.oracle = (
            oracle
            if isinstance(oracle, AccountingOracle)
            else AccountingOracle(oracle)
        )
        self.rng = random.Random(self.config.seed)
        #: The maintained-answer engine for the query being cleaned (set
        #: for the duration of :meth:`clean` when incremental mode is on).
        self._engine: Optional[IncrementalAnswers] = None

    #: Telemetry span around one :meth:`clean`.
    _span = "qoco.clean"

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------
    def clean(self, query: Query) -> Report:
        """Clean ``D`` w.r.t. *query* until ``Q(D) = Q(D_G)`` (with a
        perfect oracle) or the iteration bound is hit."""
        if self.config.minimize_query:
            from ..query.minimize import minimize

            query = minimize(query)
        report = Report(query_name=query.name, log=self.oracle.log)
        if self.config.use_incremental and supports_incremental(query):
            self._engine = IncrementalAnswers(
                query, self.database, evaluator_factory=self._make_evaluator
            )
        try:
            with _TELEMETRY.span(self._span, query=query.name):
                self._clean_loop(query, report)
        finally:
            if self._engine is not None:
                self._engine.close()
                self._engine = None
        return report

    def _clean_loop(self, query: Query, report: Report) -> None:
        verified: set[Answer] = set()
        first_iteration = True
        while first_iteration or (self._answers(query) - verified):
            if report.iterations >= self.config.max_iterations:
                report.converged = False
                break
            if not first_iteration:
                # Imperfect crowds: a wrong majority vote must not
                # poison the retry — re-poll rather than trust the
                # cached answer.
                self.oracle.forget()
            first_iteration = False
            report.iterations += 1
            report.converged = True
            _TELEMETRY.count("qoco.iterations")
            with _TELEMETRY.span("qoco.deletion_phase"):
                self._deletion_phase(query, verified, report)
            with _TELEMETRY.span("qoco.insertion_phase"):
                self._insertion_phase(query, verified, report)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _make_evaluator(self, query: Query, database: Database):
        """An evaluator on the configured backend (the seam the
        incremental engine's delta rules enumerate through)."""
        if isinstance(self.backend, NaiveBackend):
            return Evaluator(query, database)
        return BackendEvaluator(query, database, self.backend)

    def _maintained(self, query: Query) -> Optional[IncrementalAnswers]:
        """The engine maintaining *query*'s answers, if there is one."""
        engine = self._engine
        return engine if engine is not None and engine.query is query else None

    def _answers(self, query: Query) -> set[Answer]:
        engine = self._maintained(query)
        if engine is not None:
            return engine.answers()
        return self.backend.evaluate(query, self.database)

    def _answer_alive(self, query: Query, answer: Answer) -> bool:
        """Whether *answer* is still in ``Q(D)`` — a targeted membership
        check (maintained set, else a satisfiability probe of the
        answer's partial assignment), never a full re-enumeration."""
        engine = self._maintained(query)
        if engine is not None:
            return answer in engine
        partial = answer_to_partial(query, answer)
        if partial is None:
            return False
        return self.backend.is_satisfiable(query, self.database, partial)

    def _witnesses(self, query: Query, answer: Answer) -> Optional[list[frozenset]]:
        """Maintained witness sets for *answer*, or ``None`` to let
        Algorithm 1 enumerate them itself (no engine for this query)."""
        engine = self._maintained(query)
        return list(engine.witnesses(answer)) if engine is not None else None

    def _present(self, query: Query, answer: Answer) -> Optional[Callable[[], bool]]:
        """Algorithm 2's loop guard for *answer*, or ``None`` for its own.

        ``Q|t(D) ≠ ∅ ⟺ t ∈ Q(D)``: with a maintained answer set the guard
        becomes an O(1) membership probe.
        """
        engine = self._maintained(query)
        return None if engine is None else lambda: answer in engine

    def _choose_split(self, query: Query) -> tuple[SplitStrategy, Any]:
        """One missing answer's split strategy, and the planner's choice
        to report its cost to (``None`` without a planner)."""
        if self.planner is None:
            return self.split_strategy, None
        choice = self.planner.choose(query)
        return choice.strategy, choice

    def _deletion_phase(
        self, query: Query, verified: set[Answer], report: Report
    ) -> None:
        """Algorithm 3, lines 2-6.

        One evaluation (or maintained-set read) for the sweep; whether a
        later answer survived an earlier removal's side effects is a
        targeted :meth:`_answer_alive` check, not a fresh ``Q(D)``.
        """
        for answer in sorted(self._answers(query) - verified, key=repr):
            if not self._answer_alive(query, answer):
                continue  # removed as a side effect of an earlier deletion
            if self.oracle.verify_answer(query, answer):
                verified.add(answer)
                _TELEMETRY.count("qoco.answers_verified")
                continue
            _TELEMETRY.count("qoco.wrong_answers")
            try:
                edits = crowd_remove_wrong_answer(
                    query,
                    self.database,
                    answer,
                    self.oracle,
                    strategy=self.deletion_strategy,
                    rng=self.rng,
                    witnesses=self._witnesses(query, answer),
                )
            except DeletionError:
                report.converged = False
                continue
            report.edits += edits
            report.wrong_answers_removed.append(answer)

    def _insertion_phase(
        self, query: Query, verified: set[Answer], report: Report
    ) -> None:
        """Algorithm 3, lines 7-9."""
        estimator = self.config.estimator_factory()
        completions = 0
        while (
            not estimator.is_complete()
            and completions < self.config.max_completions_per_phase
        ):
            current = self._answers(query)
            missing = self.oracle.complete_result(query, current)
            completions += 1
            estimator.observe(missing)
            if missing is None:
                continue
            if missing in current:
                continue  # the crowd named an answer we already have
            split, choice = self._choose_split(query)
            cost_before = self.oracle.log.total_cost
            questions_before = self.oracle.log.question_count
            try:
                edits: Optional[list] = crowd_add_missing_answer(
                    query,
                    self.database,
                    missing,
                    self.oracle,
                    split=split,
                    rng=self.rng,
                    config=self.config.insertion,
                    present=self._present(query, missing),
                )
            except InsertionError:
                edits = None
                report.converged = False
            if choice is not None:
                self.planner.observe(
                    choice,
                    cost=self.oracle.log.total_cost - cost_before,
                    questions=self.oracle.log.question_count - questions_before,
                )
            if edits is None:
                continue
            report.edits += edits
            report.missing_answers_added.append(missing)
            verified.add(missing)
            _TELEMETRY.count("qoco.missing_answers")
