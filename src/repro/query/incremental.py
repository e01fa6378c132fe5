"""Delta-driven maintenance of ``Q(D)`` answers and witnesses.

QOCO's main loop (Algorithms 1-3) interleaves single-fact edits with
repeated evaluations of ``Q(D)``; re-running the evaluator from scratch
per check makes cleaning cost quadratic-plus in ``|Q(D)|``.  This module
maintains the *multiset of valid assignments* — and hence the answer set
and every answer's witness multiset — under single-fact edits, using
counting-based incremental view maintenance:

* **positive delta** — a fact ``f`` touching a body relation gains (on
  insert) or loses (on delete) exactly the valid assignments whose
  witness uses ``f``.  An insert enumerates them *after* the fact lands,
  by binding ``f`` to each occurrence of its relation in the body and
  running the index-backed evaluator on the residual join,
  deduplicating across occurrences.  A delete runs no join: an index
  from each fact to the witnesses holding it names the lost witnesses,
  and each leaves whole, taking its assignment count from its answer's
  support.

* **negation delta** — a fact ``f`` touching a negated atom's relation
  can *revoke* answers (inserting ``f`` makes ``not R(ū)`` fail for
  assignments under which ``f`` matches) or *restore* them (deleting the
  only blocking fact).  Both directions bind the negated atom's shared
  variables to ``f`` and enumerate valid assignments extending that
  partial — in the pre-state for revocations (those assignments are
  valid now and die with the insert) and in the post-state for
  restorations (valid now, and provably blocked by ``f`` before).

* **inequalities** need no special rule: every delta enumeration runs
  through the full evaluator, which enforces them.

The deltas are *exact* (see ``docs/incremental.md`` for the argument),
so ``IncrementalAnswers`` is bit-identical to a from-scratch
:class:`~repro.query.evaluator.Evaluator` — property-tested over random
instances, queries, and edit sequences.  Query shapes the delta rules do
not cover (unions, anything that is not a plain :class:`Query`) fall
back to full recomputation on a version-stamp mismatch, with the same
read API and semantics.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from ..db.database import Database, DatabaseListener
from ..db.edits import Edit, EditKind
from ..db.tuples import Constant, Fact
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import Atom, Query, Var
from .backend import BackendEvaluator, EvalResult
from .evaluator import (
    Answer,
    Assignment,
    Evaluator,
    Witness,
    _bind_atom,
    instantiate_head,
    witness_of,
)

#: Builds the evaluator backing delta enumeration and full recomputes.
EvaluatorFactory = Callable[[Query, Database], Evaluator]


def supports_incremental(query: object) -> bool:
    """Whether the delta rules cover *query*'s shape.

    Plain conjunctive queries — including inequalities and safely
    negated atoms — are supported; unions, aggregates, or any other
    query-like object fall back to full recomputation.
    """
    return type(query) is Query


def assignments_using_fact(evaluator: Evaluator, fact: Fact) -> list[Assignment]:
    """Distinct valid assignments whose witness includes *fact*.

    For each body atom over the fact's relation, bind the atom to the
    fact and enumerate the residual join; an assignment reachable
    through several atom occurrences is reported once.
    """
    query = evaluator.query
    seen: set[frozenset] = set()
    result: list[Assignment] = []
    for atom in query.atoms:
        if atom.relation != fact.relation or atom.arity != fact.arity:
            continue
        partial: Assignment = {}
        if _bind_atom(atom, fact, partial) is None:
            continue
        for assignment in evaluator.assignments(partial):
            key = frozenset(assignment.items())
            if key in seen:
                continue
            seen.add(key)
            result.append(assignment)
    return result


def negation_binding(
    atom: Atom, fact: Fact, body_vars: set[Var]
) -> Optional[Assignment]:
    """The partial assignment (over shared variables) under which *fact*
    matches the negated *atom* — or ``None`` if no assignment can.

    Shared variables (those bound by the positive body) take the fact's
    values; variables local to the negated atom are existential
    wildcards, but a repeated local variable must see one consistent
    value in the fact; constants must match outright.
    """
    if atom.relation != fact.relation or atom.arity != fact.arity:
        return None
    shared: Assignment = {}
    local: dict[Var, Constant] = {}
    for term, value in zip(atom.terms, fact.values):
        if isinstance(term, Var):
            store = shared if term in body_vars else local
            bound = store.get(term)
            if bound is None:
                store[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return shared


class IncrementalAnswers(DatabaseListener):
    """``Q(D)`` and its witness multiset, maintained under edits.

    By default the instance subscribes to the database's edit hook, so
    *every* mutation path (``Database.insert`` / ``delete`` / ``apply``,
    ``Edit.apply``, code deep inside the cleaning algorithms) keeps it
    exact without the mutator knowing it exists.  Reads are O(1) plus
    the output size.

    When constructed with ``subscribe=False`` the instance degrades to a
    cached snapshot that fully recomputes when the database
    :attr:`~Database.version` moves, counting
    ``incremental.full_recompute``.  Either way the observable answers
    and witnesses are bit-identical to a fresh :class:`Evaluator`.

    Query shapes outside :func:`supports_incremental` (unions,
    aggregates, ...) are rejected with :class:`TypeError`; callers gate
    on :func:`supports_incremental` and keep full evaluation for those.
    """

    def __init__(
        self,
        query: Query,
        database: Database,
        subscribe: bool = True,
        evaluator_factory: EvaluatorFactory = Evaluator,
    ) -> None:
        if not supports_incremental(query):
            raise TypeError(
                f"incremental maintenance does not cover {type(query).__name__}; "
                "gate on supports_incremental() and fall back to full evaluation"
            )
        query.validate(database.schema)
        self.query = query
        self.database = database
        self._evaluator = evaluator_factory(query, database)
        self._body_vars = query.body_variables()
        self._relevant = {a.relation for a in query.atoms} | {
            a.relation for a in query.negated_atoms
        }
        #: answer -> number of valid assignments producing it
        self._support: Counter = Counter()
        #: answer -> witness -> number of assignments grounding to it
        self._witness_support: dict[Answer, Counter] = {}
        #: fact -> the (answer, witness) entries whose witness holds it
        self._by_fact: dict[Fact, set[tuple[Answer, Witness]]] = {}
        self._version = -1
        self._pending: list[Assignment] = []
        self._subscribed = False
        if subscribe:
            database.subscribe(self)
            self._subscribed = True
        self.refresh()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def answers(self) -> set[Answer]:
        """``Q(D)`` as a fresh set (safe to retain and mutate)."""
        self._ensure_current()
        return set(self._support)

    def __contains__(self, answer: object) -> bool:
        self._ensure_current()
        return answer in self._support

    def __len__(self) -> int:
        self._ensure_current()
        return len(self._support)

    def support(self, answer: Answer) -> int:
        """Number of valid assignments currently producing *answer*."""
        self._ensure_current()
        return self._support.get(answer, 0)

    def witness_count(self, answer: Answer) -> int:
        """Number of *distinct* witnesses of *answer*."""
        self._ensure_current()
        return len(self._witness_support.get(answer, ()))

    def witnesses(self, answer: Answer) -> list[Witness]:
        """All distinct witnesses of *answer*, canonically ordered.

        Set-equal to ``Evaluator(query, database).witnesses(answer)``;
        the order is a deterministic function of the witnesses alone
        (not of edit history), so downstream consumers behave
        identically however the state was reached.
        """
        self._ensure_current()
        counter = self._witness_support.get(answer)
        if not counter:
            return []
        return sorted(counter, key=lambda w: sorted(map(repr, w)))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Full recomputation (construction, fallback, manual resync).

        One :class:`~repro.query.backend.EvalResult` fills both counters
        and the fact index: a backend evaluator's ``run()`` (the columnar
        engine decodes it from row provenance), or the fold of the
        reference evaluator's assignments.
        """
        _TELEMETRY.count("incremental.full_recompute")
        evaluator = self._evaluator
        if isinstance(evaluator, BackendEvaluator):
            result = evaluator.run()
        else:
            result = EvalResult.from_assignments(self.query, evaluator.assignments())
        self._support = result.support
        self._witness_support = result.witness_support
        by_fact: dict[Fact, set[tuple[Answer, Witness]]] = {}
        for answer, counter in result.witness_support.items():
            for witness in counter:
                entry = (answer, witness)
                for f in witness:
                    entries = by_fact.get(f)
                    if entries is None:
                        by_fact[f] = {entry}
                    else:
                        entries.add(entry)
        self._by_fact = by_fact
        self._version = self.database.version
        self._pending = []

    def close(self) -> None:
        """Detach from the database's edit hook (idempotent)."""
        if self._subscribed:
            self.database.unsubscribe(self)
            self._subscribed = False

    def __enter__(self) -> "IncrementalAnswers":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- DatabaseListener ----------------------------------------------
    def before_change(self, database: Database, edit: Edit) -> None:
        # Only an insert enumerates beforehand: the valid assignments the
        # new fact will revoke by matching a negated atom.  A delete reads
        # its losses from the fact index after the change.
        self._pending = []
        if (
            edit.kind is EditKind.INSERT
            and self._version == database.version
            and edit.fact.relation in self._relevant
        ):
            self._pending = self._negation_affected(edit.fact)

    def after_change(self, database: Database, edit: Edit) -> None:
        if self._version != database.version - 1:
            return  # out of sync; the next read fully recomputes
        self._version = database.version
        if edit.fact.relation not in self._relevant:
            return
        touched: set[Answer] = set()
        revoked, self._pending = self._pending, []
        if edit.kind is EditKind.INSERT:
            for assignment in revoked:
                self._retract(assignment, touched)
            lost = len(revoked)
            gained = assignments_using_fact(self._evaluator, edit.fact)
        else:
            lost = self._drop_witnesses_of(edit.fact, touched)
            # Assignments valid now that only the deleted fact blocked.
            gained = self._negation_affected(edit.fact)
        for assignment in gained:
            self._admit(assignment, touched)
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("incremental.delta_applied")
            tel.count("incremental.answers_touched", len(touched))
            tel.observe("incremental.delta_assignments", lost + len(gained))

    # -- internals ------------------------------------------------------
    def _ensure_current(self) -> None:
        if self._version != self.database.version:
            self.refresh()

    def _negation_affected(self, fact: Fact) -> list[Assignment]:
        """Valid assignments (of the *current* state) under which *fact*
        matches some negated atom, deduplicated across atoms."""
        negated = self.query.negated_atoms
        if not negated:
            return []
        seen: set[frozenset] = set()
        result: list[Assignment] = []
        for atom in negated:
            partial = negation_binding(atom, fact, self._body_vars)
            if partial is None:
                continue
            for assignment in self._evaluator.assignments(partial):
                key = frozenset(assignment.items())
                if key in seen:
                    continue
                seen.add(key)
                result.append(assignment)
        return result

    def _drop_witnesses_of(self, fact: Fact, touched: set) -> int:
        """Retract every valid assignment whose witness holds the deleted
        *fact*; returns how many there were.

        Each such assignment grounds to an indexed witness containing
        *fact*, and each witness's count is the number of assignments
        grounding to it, so dropping the indexed witnesses whole is the
        retraction a join pinned to *fact* would enumerate.
        """
        entries = self._by_fact.pop(fact, None)
        if not entries:
            return 0
        lost = 0
        for entry in entries:
            answer, witness = entry
            counter = self._witness_support[answer]
            count = counter.pop(witness)
            if not counter:
                del self._witness_support[answer]
            remaining = self._support[answer] - count
            if remaining > 0:
                self._support[answer] = remaining
            else:
                del self._support[answer]
            self._unindex(entry)
            touched.add(answer)
            lost += count
        return lost

    def _unindex(self, entry: tuple[Answer, Witness]) -> None:
        by_fact = self._by_fact
        for f in entry[1]:
            entries = by_fact.get(f)
            if entries is not None:
                entries.discard(entry)
                if not entries:
                    del by_fact[f]

    def _admit(self, assignment: Assignment, touched: set) -> None:
        answer = instantiate_head(self.query, assignment)
        witness = witness_of(self.query, assignment)
        self._support[answer] += 1
        counter = self._witness_support.setdefault(answer, Counter())
        if witness not in counter:
            entry = (answer, witness)
            for f in witness:
                self._by_fact.setdefault(f, set()).add(entry)
        counter[witness] += 1
        touched.add(answer)

    def _retract(self, assignment: Assignment, touched: set) -> None:
        answer = instantiate_head(self.query, assignment)
        witness = witness_of(self.query, assignment)
        if self._support.get(answer, 0) <= 1:
            self._support.pop(answer, None)
        else:
            self._support[answer] -= 1
        counter = self._witness_support.get(answer)
        if counter is not None:
            if counter.get(witness, 0) <= 1:
                counter.pop(witness, None)
                self._unindex((answer, witness))
            else:
                counter[witness] -= 1
            if not counter:
                self._witness_support.pop(answer, None)
        touched.add(answer)
