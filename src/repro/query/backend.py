"""Pluggable evaluation backends behind one narrow interface.

Everything above the evaluator — the cleaning loops, the incremental
engine, witnesses and provenance — consumes query results through three
notions: the answer set ``Q(D)``, each answer's *support* (how many
valid assignments produce it), and each answer's *witness multiset*
(how many assignments ground the body to each distinct fact set).
:class:`EvalBackend` packages exactly that surface so the evaluation
substrate can be swapped without touching the cleaning logic:

* ``naive``    — the index-backed backtracking :class:`Evaluator`, the
  reference implementation every other backend must agree with
  bit-for-bit (``tests/test_backend_conformance.py``);
* ``columnar`` — vectorized numpy hash joins over per-relation column
  arrays (:mod:`repro.query.columnar`);
* ``sql``      — the CQ AST compiled to SQL over DuckDB (or the stdlib
  sqlite3 when DuckDB is not installed), with lazy dirty-relation sync
  (:mod:`repro.query.sqlbackend`).

Backends advertise :class:`Capabilities`; :func:`resolve_backend` wraps
any non-reference backend in a :class:`FallbackBackend` so a query
shape a backend cannot evaluate transparently runs on ``naive`` instead
(counted as ``backend.fallback`` in telemetry) — results are identical
either way, only the substrate changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from ..db.database import Database
from ..db.tuples import Constant
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import Query, Var
from .evaluator import (
    Answer,
    Assignment,
    Evaluator,
    Witness,
    answer_to_partial,
    instantiate_head,
    witness_of,
)


@dataclass(frozen=True)
class Capabilities:
    """What query shapes a backend can evaluate natively.

    A ``False`` flag is not an error — :class:`FallbackBackend` routes
    such queries to the reference engine — but it is the contract the
    conformance suite checks: a backend must *either* support a shape
    bit-identically or decline it here.
    """

    #: Safely negated atoms (``not R(ū)``, the §9 extension).
    negation: bool = True
    #: Inequality predicates (``x != y``).
    inequalities: bool = True
    #: Aggregate / union query objects (anything that is not a plain
    #: :class:`Query`).  No current backend evaluates these natively;
    #: the flag exists so a future one can claim them.
    aggregates: bool = False


@dataclass
class EvalResult:
    """One backend evaluation: answers, support, witness multisets.

    ``support[t]`` is the number of valid assignments producing answer
    ``t`` (so ``answers == set(support)``); ``witness_support[t][w]``
    the number of assignments grounding the body to the fact set ``w``.
    Two backends agree exactly when their ``EvalResult`` objects compare
    equal.
    """

    answers: set[Answer] = field(default_factory=set)
    support: Counter = field(default_factory=Counter)
    witness_support: dict[Answer, Counter] = field(default_factory=dict)

    def witnesses(self, answer: Answer) -> list[Witness]:
        """Distinct witnesses of *answer* in the canonical order used by
        :class:`~repro.query.incremental.IncrementalAnswers`."""
        counter = self.witness_support.get(answer)
        if not counter:
            return []
        return sorted(counter, key=lambda w: sorted(map(repr, w)))

    @classmethod
    def from_assignments(
        cls, query: Query, assignments: Iterable[Assignment]
    ) -> "EvalResult":
        """Fold an assignment stream into the three aggregates."""
        result = cls()
        for assignment in assignments:
            answer = instantiate_head(query, assignment)
            witness = witness_of(query, assignment)
            result.answers.add(answer)
            result.support[answer] += 1
            result.witness_support.setdefault(answer, Counter())[witness] += 1
        return result


class EvalBackend:
    """One evaluation substrate.

    Subclasses implement :meth:`assignments` (the one primitive every
    derived notion reduces to) and may override :meth:`evaluate` /
    :meth:`run` with vectorized paths.  All entry points take the query
    *and* the database per call — backends may cache derived per-database
    state internally (keyed by version stamps) but hold no per-query
    state, so one backend instance serves any number of sessions.
    """

    #: Registry key and telemetry label.
    name: str = "abstract"
    capabilities: Capabilities = Capabilities()

    # ------------------------------------------------------------------
    # capability gate
    # ------------------------------------------------------------------
    def supports(self, query: object) -> bool:
        """Whether this backend can evaluate *query* natively."""
        if type(query) is not Query:
            return self.capabilities.aggregates
        if query.negated_atoms and not self.capabilities.negation:
            return False
        if query.inequalities and not self.capabilities.inequalities:
            return False
        return True

    # ------------------------------------------------------------------
    # the primitive
    # ------------------------------------------------------------------
    def assignments(
        self,
        query: Query,
        database: Database,
        partial: Optional[Mapping[Var, Constant]] = None,
    ) -> Iterator[Assignment]:
        """All valid (total) assignments extending *partial*."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived notions (override for vectorized paths)
    # ------------------------------------------------------------------
    def evaluate(self, query: Query, database: Database) -> set[Answer]:
        """``Q(D)`` — the answer set alone (the cleaning loop's hot read)."""
        with _TELEMETRY.span("backend.evaluate", backend=self.name, query=query.name):
            return {
                instantiate_head(query, a) for a in self.assignments(query, database)
            }

    def run(self, query: Query, database: Database) -> EvalResult:
        """Answers, support and witness multisets in one pass."""
        with _TELEMETRY.span("backend.run", backend=self.name, query=query.name):
            return EvalResult.from_assignments(query, self.assignments(query, database))

    def is_satisfiable(
        self, query: Query, database: Database, partial: Mapping[Var, Constant]
    ) -> bool:
        """Whether *partial* extends to a valid assignment."""
        return next(self.assignments(query, database, partial), None) is not None


class NaiveBackend(EvalBackend):
    """The reference substrate: the backtracking :class:`Evaluator`.

    Semantics by definition — every other backend is conformance-checked
    against this one.
    """

    name = "naive"
    capabilities = Capabilities(negation=True, inequalities=True)

    def assignments(
        self,
        query: Query,
        database: Database,
        partial: Optional[Mapping[Var, Constant]] = None,
    ) -> Iterator[Assignment]:
        return Evaluator(query, database).assignments(partial)

    def evaluate(self, query: Query, database: Database) -> set[Answer]:
        with _TELEMETRY.span("backend.evaluate", backend=self.name, query=query.name):
            return Evaluator(query, database).answers()


class FallbackBackend(EvalBackend):
    """Route unsupported query shapes to the reference backend.

    Wraps a *preferred* backend; every entry point first consults
    ``preferred.supports(query)`` and silently degrades to ``naive`` on
    a miss, counting ``backend.fallback`` (and a per-backend
    ``backend.<name>.fallback``) so operators can see how much of a
    workload actually runs on the fast substrate.
    """

    def __init__(
        self, preferred: EvalBackend, reference: Optional[EvalBackend] = None
    ) -> None:
        self.preferred = preferred
        self.reference = reference if reference is not None else NaiveBackend()
        self.name = preferred.name
        self.capabilities = self.reference.capabilities

    def supports(self, query: object) -> bool:
        return self.preferred.supports(query) or self.reference.supports(query)

    def _route(self, query: object) -> EvalBackend:
        if self.preferred.supports(query):
            return self.preferred
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("backend.fallback")
            tel.count(f"backend.{self.preferred.name}.fallback")
        return self.reference

    def assignments(
        self,
        query: Query,
        database: Database,
        partial: Optional[Mapping[Var, Constant]] = None,
    ) -> Iterator[Assignment]:
        return self._route(query).assignments(query, database, partial)

    def evaluate(self, query: Query, database: Database) -> set[Answer]:
        return self._route(query).evaluate(query, database)

    def run(self, query: Query, database: Database) -> EvalResult:
        return self._route(query).run(query, database)

    def is_satisfiable(
        self, query: Query, database: Database, partial: Mapping[Var, Constant]
    ) -> bool:
        return self._route(query).is_satisfiable(query, database, partial)


class BackendEvaluator:
    """An :class:`Evaluator`-shaped adapter over a backend.

    Exposes the evaluator surface (``assignments`` / ``answers`` /
    ``witnesses`` / ``is_satisfiable``) for one ``(query, database)``
    pair, so a backend plugs into every seam built for the reference
    engine — most importantly the incremental engine's
    ``evaluator_factory``, whose delta rules enumerate assignments
    extending partial bindings.
    """

    def __init__(
        self, query: Query, database: Database, backend: EvalBackend
    ) -> None:
        query.validate(database.schema)
        self.query = query
        self.database = database
        self.backend = backend

    def assignments(
        self, partial: Optional[Mapping[Var, Constant]] = None
    ) -> Iterator[Assignment]:
        return self.backend.assignments(self.query, self.database, partial)

    def answers(self) -> set[Answer]:
        return self.backend.evaluate(self.query, self.database)

    def run(self) -> EvalResult:
        return self.backend.run(self.query, self.database)

    def is_satisfiable(self, partial: Mapping[Var, Constant]) -> bool:
        return self.backend.is_satisfiable(self.query, self.database, partial)

    def witnesses(self, answer: Answer) -> list[Witness]:
        """Distinct witnesses for *answer*, first-seen order (the
        reference :meth:`Evaluator.witnesses` contract)."""
        partial = answer_to_partial(self.query, answer)
        if partial is None:
            return []
        seen: set[Witness] = set()
        ordered: list[Witness] = []
        for assignment in self.assignments(partial):
            witness = witness_of(self.query, assignment)
            if witness not in seen:
                seen.add(witness)
                ordered.append(witness)
        return ordered


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
BackendFactory = Callable[[], EvalBackend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend factory under *name* (later wins, so tests can
    shadow a builtin with an instrumented double)."""
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str) -> EvalBackend:
    """Instantiate the backend registered under *name* (no fallback)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown evaluation backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return factory()


def resolve_backend(
    spec: Union[str, EvalBackend, None], fallback: bool = True
) -> EvalBackend:
    """A ready-to-use backend from a name, instance, or ``None``.

    ``None`` and ``"naive"`` yield the reference backend as-is; any
    other backend is wrapped in a :class:`FallbackBackend` (unless
    *fallback* is off) so unsupported query shapes degrade to the
    reference engine instead of failing.
    """
    if spec is None:
        return NaiveBackend()
    backend = create_backend(spec) if isinstance(spec, str) else spec
    if isinstance(backend, (NaiveBackend, FallbackBackend)) or not fallback:
        return backend
    return FallbackBackend(backend)


def backend_evaluate(
    query: Query, database: Database, backend: Union[str, EvalBackend, None] = None
) -> set[Answer]:
    """``Q(D)`` on a chosen substrate (auto-fallback on unsupported shapes)."""
    return resolve_backend(backend).evaluate(query, database)


def _columnar_factory() -> EvalBackend:
    from .columnar import ColumnarBackend

    return ColumnarBackend()


def _sql_factory() -> EvalBackend:
    from .sqlbackend import SQLBackend

    return SQLBackend()


register_backend("naive", NaiveBackend)
register_backend("columnar", _columnar_factory)
register_backend("sql", _sql_factory)
