"""Oracle-guided constraint repair.

:class:`OracleRepairer` resolves the violation hypergraph the way
Section 4 resolves witness sets, with one extra lever constraints
provide: since the ground truth satisfies every constraint, *each*
violation contains at least one false fact, so

* a **singleton** edge proves its fact false — deleted for free, no
  question (the Theorem 4.5 condition lifted to constraints);
* asking ``TRUE(R(ā))?`` about the fact shared by the **most** edges
  either deletes it (resolving all of them at once) or shrinks every
  edge containing it — and a pair edge shrinking to a singleton pins
  its partner false *without asking* (``constraints.inferred``);
* questions are never repeated: the :class:`AccountingOracle` cache and
  the cross-session :class:`~repro.dispatch.dedup.AnswerBoard` (when
  the repairer runs under a :class:`~repro.server.SessionManager`)
  dedupe structurally.

Cost/deadline budgets degrade gracefully: when the budget runs out the
remaining edges are hit by the frequency-greedy deletion repair without
asking anything — the result satisfies the constraints (best-effort)
but is no longer certified against the ground truth, so the report says
``converged=False``.

:class:`ExhaustiveRepairer` is the enumerate-and-score baseline: it
verifies every fact of every violation, then deletes the false ones —
correct, oracle-hungry, and the contrast ``benchmarks/bench_constraints.py``
gates (oracle-guided must ask strictly fewer questions).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from ..core.registry import REGISTRY
from ..db.database import Database
from ..db.edits import Edit, EditKind, delete as delete_edit, insert as insert_edit
from ..db.tuples import Fact
from ..oracle.base import AccountingOracle, Oracle
from ..query.backend import EvalBackend
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import Constraint, as_constraints
from .repair import greedy_repair, violation_hypergraph
from .violations import Violation, find_violations


@dataclass
class RepairBudget:
    """Question-cost and wall-clock ceilings for one repair run.

    Mirrors the dispatch :class:`~repro.dispatch.policy.Budget`
    semantics: checked *before* each question, so exhaustion degrades
    (best-effort greedy repair) rather than aborting mid-question.
    """

    max_cost: Optional[float] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_cost is not None and self.max_cost < 0:
            raise ValueError("max_cost must be >= 0")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")

    def exhausted(self, spent: float, elapsed: float) -> bool:
        if self.max_cost is not None and spent >= self.max_cost:
            return True
        return self.deadline is not None and elapsed >= self.deadline


@dataclass
class RepairReport:
    """The outcome of one constraint-repair run (ReportLike surface).

    ``converged`` means every repair decision was certified by the
    oracle (or soundly inferred); ``consistent`` that the final
    database satisfies the constraints.  A budget-degraded run is
    typically ``consistent=True, converged=False``.
    """

    query_name: str
    edits: list[Edit] = field(default_factory=list)
    violations_found: int = 0
    questions_asked: int = 0
    cost: int = 0
    inferred: int = 0
    free_deletions: int = 0
    updates_applied: int = 0
    rounds: int = 0
    converged: bool = True
    consistent: bool = True
    wall_clock: float = 0.0

    @property
    def deletions(self) -> list[Edit]:
        return [e for e in self.edits if e.kind is EditKind.DELETE]

    @property
    def insertions(self) -> list[Edit]:
        return [e for e in self.edits if e.kind is EditKind.INSERT]

    @property
    def total_cost(self) -> int:
        return self.cost

    def summary(self) -> str:
        text = (
            f"{self.query_name}: {self.violations_found} violation(s), "
            f"{len(self.deletions)}-/{len(self.insertions)}+ edits, "
            f"{self.questions_asked} question(s) ({self.cost} units), "
            f"{self.inferred} inferred free, {self.rounds} round(s)"
        )
        if not self.consistent:
            text += " [still inconsistent]"
        if not self.converged:
            text += " [budget-degraded]"
        return text


def _as_accounting(oracle: Oracle) -> AccountingOracle:
    return oracle if isinstance(oracle, AccountingOracle) else AccountingOracle(oracle)


class _LiveEdges:
    """One round's violation hypergraph, indexed for the repair loop.

    Edges keep their list position for the whole round: a dropped edge
    becomes ``None`` and a shrunk one is replaced in place, so "first in
    list order" is "lowest position".  Each fact knows the positions of
    the edges that hold it and its degree (how many live edges hold it);
    a fact leaves the degree table when no live edge holds it.

    The next question is ``max(degree, key=(degree, knows, label))``
    over the table in insertion order: the fact on the most live edges,
    at equal degree one with a known (free, cached) verdict, then the
    largest ``repr``, and at equal labels the first in the table.  A
    heap keeps that order: ``rank`` folds label and table order into
    one number, an entry is pushed whenever a fact's degree or verdict
    changes while it can still be asked about, and entries that no
    longer match their fact are skipped.
    """

    def __init__(self, edges: list[frozenset[Fact]], knows: Callable[[Fact], bool]) -> None:
        self._edges: list[Optional[frozenset[Fact]]] = list(edges)
        self._remaining = len(edges)
        self._knows = knows
        self._degree: dict[Fact, int] = {}
        self._holding: dict[Fact, list[int]] = {}
        for position, edge in enumerate(edges):
            for fact in edge:
                self._degree[fact] = self._degree.get(fact, 0) + 1
                self._holding.setdefault(fact, []).append(position)
        #: (position, fact) of every singleton edge, lowest position on top
        self._singletons = [
            (position, next(iter(edge))) for position, edge in enumerate(edges) if len(edge) == 1
        ]
        ordered = sorted(self._degree, key=repr, reverse=True)  # stable: table order kept
        self._rank = {fact: rank for rank, fact in enumerate(ordered)}
        self._choices = [self._entry(fact) for fact in self._degree]
        heapq.heapify(self._choices)

    def __bool__(self) -> bool:
        return self._remaining > 0

    def live(self) -> list[frozenset[Fact]]:
        """The live edges, in list order."""
        return [edge for edge in self._edges if edge is not None]

    def _entry(self, fact: Fact) -> tuple[int, bool, int, Fact]:
        return (-self._degree[fact], not self._knows(fact), self._rank[fact], fact)

    def pop_singleton(self) -> Optional[Fact]:
        """The fact of the first live singleton edge, if there is one."""
        singletons = self._singletons
        while singletons:
            position, fact = heapq.heappop(singletons)
            if self._edges[position] is not None:
                return fact
        return None

    def pop_choice(self) -> Fact:
        """The fact to ask about next (see the class docstring)."""
        while True:
            top = heapq.heappop(self._choices)
            fact = top[3]
            if fact in self._degree and top == self._entry(fact):
                return fact

    def drop(self, fact: Fact) -> None:
        """Drop every live edge holding *fact*; its members lose a degree."""
        degree = self._degree
        touched: set[Fact] = set()
        for position in self._holding[fact]:
            edge = self._edges[position]
            if edge is None:
                continue
            self._edges[position] = None
            self._remaining -= 1
            for member in edge:
                left = degree[member] - 1
                if left:
                    degree[member] = left
                    touched.add(member)
                else:
                    del degree[member]
        for member in touched:
            if member in degree:
                heapq.heappush(self._choices, self._entry(member))

    def shrink(self, fact: Fact) -> list[Fact]:
        """Remove certified-true *fact* from its edges.

        Returns, in list order, the partner of every edge that shrank
        to a singleton: each is now known false.  A partner's verdict
        changes but it needs no new heap entry: it sits on a singleton
        edge, so it is deleted before the next question.
        """
        del self._degree[fact]
        partners = []
        for position in self._holding[fact]:
            edge = self._edges[position]
            if edge is None:
                continue
            rest = self._edges[position] = frozenset(edge - {fact})
            if len(rest) == 1:
                (partner,) = rest
                partners.append(partner)
                heapq.heappush(self._singletons, (position, partner))
        return partners


class OracleRepairer:
    """Repairs constraint violations by asking the oracle which facts lie.

    Parameters
    ----------
    database:
        The instance to repair in place (a plain :class:`Database` or a
        session's :class:`~repro.db.fork.DatabaseFork`).
    oracle:
        The crowd backend; wrapped in an :class:`AccountingOracle` if it
        is not one already, so questions are logged, charged, and cached.
    constraints:
        :class:`~repro.constraints.ast.FD` / ``DenialConstraint``
        objects, FD strings (``"games: date -> winner"``), or an
        iterable of either.
    backend:
        Evaluation substrate for denial-constraint detection
        (``EvalBackend`` name or instance; default the reference
        engine).  FDs are detected by LHS blocks and never run an
        engine (see :func:`~repro.constraints.violations.find_violations`).
    updates:
        Attempt FD value-update repairs: when a pair's false side is
        known and its partner certified true, ask whether the corrected
        fact (false fact with the partner's RHS value) belongs to the
        ground truth and insert it on a yes.  Off by default — it
        spends extra questions to preserve rows.
    budget:
        Optional :class:`RepairBudget`; exhaustion degrades to the
        greedy best-effort repair.
    max_rounds:
        Detection/resolution rounds (updates can surface new
        violations; deletions cannot, since violation queries are
        positive CQs).
    """

    def __init__(
        self,
        database: Database,
        oracle: Oracle,
        constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
        *,
        backend: Union[str, EvalBackend, None] = None,
        updates: bool = False,
        budget: Optional[RepairBudget] = None,
        max_rounds: int = 10,
    ) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.database = database
        self.oracle = _as_accounting(oracle)
        self.constraints = as_constraints(constraints)
        self.backend = backend
        self.updates = updates
        self.budget = budget
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    def run(self) -> RepairReport:
        names = ",".join(c.name for c in self.constraints)
        report = RepairReport(query_name=f"repair({names})")
        start = time.perf_counter()
        cost_before = self.oracle.log.total_cost
        questions_before = self.oracle.log.question_count
        with _TELEMETRY.span("constraints.repair", constraints=len(self.constraints)):
            for _ in range(self.max_rounds):
                violations = find_violations(
                    self.database, self.constraints, backend=self.backend
                )
                if not violations:
                    break
                report.rounds += 1
                report.violations_found += len(violations)
                self._resolve(violations, report, cost_before, start)
            else:
                # rounds ran out: only the last round's edits are unchecked
                # (a round that found nothing left the report consistent)
                report.consistent = not find_violations(
                    self.database, self.constraints, backend=self.backend
                )
        report.questions_asked = self.oracle.log.question_count - questions_before
        report.cost = self.oracle.log.total_cost - cost_before
        report.wall_clock = time.perf_counter() - start
        if _TELEMETRY.enabled:
            _TELEMETRY.count("constraints.repair_edits", len(report.edits))
            if not report.converged:
                _TELEMETRY.count("constraints.budget_exhausted")
        return report

    # ------------------------------------------------------------------
    def _resolve(
        self,
        violations: list[Violation],
        report: RepairReport,
        cost_before: int,
        start: float,
    ) -> None:
        """Decide a repair for every edge of this round's hypergraph."""
        graph = _LiveEdges(violation_hypergraph(violations), self.oracle.knows_fact)
        # Edges carry their FD context so updates know which cell differs.
        pair_context: dict[frozenset[Fact], Violation] = {}
        for violation in violations:
            if violation.rhs_position is not None and len(violation.facts) == 2:
                pair_context.setdefault(violation.facts, violation)
        #: facts the oracle certified true in this round
        certified: set[Fact] = set()
        while graph:
            # 1. singleton edges are free: their fact is certainly false
            fact = graph.pop_singleton()
            if fact is not None:
                self._delete(fact, report)
                if self.updates:
                    self._try_update(fact, pair_context, certified, report)
                report.free_deletions += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("constraints.free_deletions")
                graph.drop(fact)
                continue
            # 2. budget gate before the next paid question
            spent = self.oracle.log.total_cost - cost_before
            elapsed = time.perf_counter() - start
            if self.budget is not None and self.budget.exhausted(spent, elapsed):
                self._degrade(graph.live(), report)
                return
            # 3. ask about the fact on the most edges; at equal degree a
            # known verdict (a free, cached question) goes first
            fact = graph.pop_choice()
            if self.oracle.verify_fact(fact):
                certified.add(fact)
                for partner in graph.shrink(fact):
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("constraints.inferred")
                    report.inferred += 1
                    self.oracle.remember_fact(partner, False)
            else:
                self._delete(fact, report)
                if self.updates:
                    self._try_update(fact, pair_context, certified, report)
                graph.drop(fact)

    # ------------------------------------------------------------------
    def _delete(self, fact: Fact, report: RepairReport) -> None:
        if self.database.delete(fact):
            report.edits.append(delete_edit(fact))
        self.oracle.remember_fact(fact, False)

    def _try_update(
        self,
        false_fact: Fact,
        pair_context: dict[frozenset[Fact], Violation],
        certified: set[Fact],
        report: RepairReport,
    ) -> None:
        """Propose ``false[rhs] := partner[rhs]`` for one certified pair."""
        for facts, violation in pair_context.items():
            if false_fact not in facts:
                continue
            (partner,) = facts - {false_fact}
            if partner not in certified:
                continue
            position = violation.rhs_position
            corrected = false_fact.replace(position, partner.values[position])
            if corrected in self.database:
                continue
            if self.oracle.verify_fact(corrected):
                if self.database.insert(corrected):
                    report.edits.append(insert_edit(corrected))
                    report.updates_applied += 1
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("constraints.updates_applied")
            return

    def _degrade(self, edges: list[frozenset[Fact]], report: RepairReport) -> None:
        """Best-effort: greedily hit the remaining edges without asking."""
        report.converged = False
        fake = [Violation("budget", e) for e in edges]
        for edit in greedy_repair(fake).edits:
            if edit.apply(self.database):
                report.edits.append(edit)


class ExhaustiveRepairer:
    """The enumerate-and-score baseline: verify every involved fact.

    Scores the candidate-repair pool the blunt way — one
    ``TRUE(R(ā))?`` per distinct fact of the violation hypergraph, in
    deterministic order, no frequency ordering and no inference — then
    deletes every fact the oracle called false.  Repeats until
    consistent.  Same final database as the oracle-guided path under a
    perfect oracle; strictly more questions whenever any inference or
    free deletion fires.
    """

    def __init__(
        self,
        database: Database,
        oracle: Oracle,
        constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
        *,
        backend: Union[str, EvalBackend, None] = None,
        max_rounds: int = 10,
    ) -> None:
        self.database = database
        self.oracle = _as_accounting(oracle)
        self.constraints = as_constraints(constraints)
        self.backend = backend
        self.max_rounds = max_rounds

    def run(self) -> RepairReport:
        names = ",".join(c.name for c in self.constraints)
        report = RepairReport(query_name=f"exhaustive({names})")
        start = time.perf_counter()
        cost_before = self.oracle.log.total_cost
        questions_before = self.oracle.log.question_count
        for _ in range(self.max_rounds):
            violations = find_violations(
                self.database, self.constraints, backend=self.backend
            )
            if not violations:
                break
            report.rounds += 1
            report.violations_found += len(violations)
            facts = sorted(
                {f for v in violations for f in v.facts}, key=repr
            )
            false_facts = [f for f in facts if not self.oracle.verify_fact(f)]
            for fact in false_facts:
                if self.database.delete(fact):
                    report.edits.append(delete_edit(fact))
            if not false_facts:
                # the oracle certified every involved fact: the violation
                # cannot be repaired by deletion alone — give up cleanly
                report.converged = False
                report.consistent = False
                break
        else:
            report.consistent = not find_violations(
                self.database, self.constraints, backend=self.backend
            )
        report.questions_asked = self.oracle.log.question_count - questions_before
        report.cost = self.oracle.log.total_cost - cost_before
        report.wall_clock = time.perf_counter() - start
        return report


def repair(
    database: Database,
    constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
    oracle: Oracle,
    *,
    strategy: str = "oracle",
    **options,
) -> RepairReport:
    """One-call constraint repair (see :mod:`repro.api`).

    *strategy* is a registry name — ``"oracle"`` (default),
    ``"exhaustive"``, or any name registered under the ``"repair"``
    kind; remaining keyword arguments go to the repairer.
    """
    factory = REGISTRY.resolve("repair", strategy)
    return factory.repair(database, oracle, constraints, **options)


# ----------------------------------------------------------------------
# registry strategies
# ----------------------------------------------------------------------
class OracleRepairStrategy:
    """Registry adapter for :class:`OracleRepairer`."""

    name = "oracle"

    def repair(self, database, oracle, constraints, **options) -> RepairReport:
        return OracleRepairer(database, oracle, constraints, **options).run()


class ExhaustiveRepairStrategy:
    """Registry adapter for :class:`ExhaustiveRepairer`."""

    name = "exhaustive"

    def repair(self, database, oracle, constraints, **options) -> RepairReport:
        return ExhaustiveRepairer(database, oracle, constraints, **options).run()


class GreedyRepairStrategy:
    """Oracle-free fallback: greedy hitting-set deletion, zero questions."""

    name = "greedy"

    def repair(self, database, oracle, constraints, *, backend=None, max_rounds=10):
        names = ",".join(c.name for c in as_constraints(constraints))
        report = RepairReport(query_name=f"greedy({names})", converged=False)
        for _ in range(max_rounds):
            violations = find_violations(database, constraints, backend=backend)
            if not violations:
                break
            report.rounds += 1
            report.violations_found += len(violations)
            for edit in greedy_repair(violations).edits:
                if edit.apply(database):
                    report.edits.append(edit)
        else:
            report.consistent = not find_violations(database, constraints, backend=backend)
        return report


REGISTRY.register("repair", "oracle", OracleRepairStrategy)
REGISTRY.register("repair", "exhaustive", ExhaustiveRepairStrategy)
REGISTRY.register("repair", "greedy", GreedyRepairStrategy)


__all__ = [
    "ExhaustiveRepairer",
    "OracleRepairer",
    "RepairBudget",
    "RepairReport",
    "repair",
]
