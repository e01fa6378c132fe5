"""Violation detection: FDs by LHS blocks, denial constraints as boolean CQs.

An FD ``R: X -> Y`` can only be violated inside a *block*: the ``R``
facts that agree on every ``X`` attribute (the blocks of Livshits,
Kimelfeld & Roy; the key-equal groups of Dixit & Kolaitis's SAT-based
CQA).  The detector buckets ``R`` by its LHS values in one pass and
compares each pair of facts in a block at every RHS position, so its
work scales with the blocks, not with a self-join, and no engine runs.
Blocks are dict keys, so LHS values meet under the same Python equality
the engines join on: ``1``, ``1.0`` and ``True`` share a block.  A
violation holds its facts as the database stores them; the naive
engine's witnesses are grounded atoms instead, where a fact can take
its partner's spelling of an equal LHS value (``0`` for a stored
``-0.0``).

A denial constraint *is* a boolean conjunctive query.  It runs through
the pluggable :class:`~repro.query.backend.EvalBackend` interface, and
each answer's *witnesses* — the grounded fact sets — are its violations.

The CQ form of an FD (one boolean CQ per RHS attribute,
:func:`repro.constraints.ast.fd_violation_queries`, listed by
:func:`violation_queries`) stays as the reference the block detector is
tested against, and as the shape a repair session is admitted by.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from ..db.database import Database
from ..db.tuples import Fact
from ..query.ast import Query
from ..query.backend import EvalBackend, resolve_backend
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import Constraint, DenialConstraint, FD, as_constraints, fd_violation_queries

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One constraint violation: the minimal fact set exhibiting it.

    For an FD this is a pair of same-relation facts agreeing on the LHS
    and differing on one RHS attribute (``rhs_position`` names it, so
    the repair enumerator can propose value updates); for a denial
    constraint it is the grounded body.  Since the ground truth
    satisfies every constraint, **at least one fact of every violation
    is false** — a violation is a witness in the Section 4 sense, and
    the whole hitting-set treatment applies.
    """

    constraint_name: str
    facts: frozenset[Fact]
    #: RHS column of the violated FD (None for denial constraints).
    rhs_position: Optional[int] = None

    def __str__(self) -> str:
        body = ", ".join(sorted(str(f) for f in self.facts))
        return f"{self.constraint_name}{{{body}}}"


def violation_queries(
    constraint: Constraint, schema
) -> list[tuple[Query, Optional[int]]]:
    """The boolean CQs checking *constraint*, each with its RHS position."""
    if isinstance(constraint, FD):
        _, rhs_positions = constraint.positions(schema)
        queries = fd_violation_queries(constraint, schema)
        return list(zip(queries, rhs_positions))
    if isinstance(constraint, DenialConstraint):
        return [(constraint.as_query(), None)]
    raise TypeError(f"not a constraint: {constraint!r}")


def _fd_violations(fd: FD, database: Database) -> Iterator[Violation]:
    """The violating pairs of *fd*, block by block.

    Each unordered pair of a block whose values differ (``!=``) at an
    RHS position is one violation; an RHS attribute listed twice yields
    its pairs twice, which the caller's dedupe absorbs.
    """
    lhs_positions, rhs_positions = fd.positions(database.schema)
    blocks: dict[tuple, list[Fact]] = {}
    for fact in database.facts(fd.relation):
        values = fact.values
        blocks.setdefault(tuple(values[p] for p in lhs_positions), []).append(fact)
    for block in blocks.values():
        if len(block) < 2:
            continue
        for position in rhs_positions:
            for index, first in enumerate(block):
                value = first.values[position]
                for second in block[index + 1:]:
                    if value != second.values[position]:
                        yield Violation(fd.name, frozenset((first, second)), position)


def _cq_violations(
    constraint: Constraint, database: Database, engine: EvalBackend
) -> Iterator[Violation]:
    """The witnesses of *constraint*'s violation CQs on *engine*."""
    for query, rhs_position in violation_queries(constraint, database.schema):
        result = engine.run(query, database)
        for answer in result.answers:
            for witness in result.witnesses(answer):
                yield Violation(constraint.name, witness, rhs_position)


def _canonical(violations: Iterable[Violation]) -> list[Violation]:
    """*violations* without repeats, in the deterministic report order."""
    found: list[Violation] = []
    # keyed per RHS attribute: a pair disagreeing on two RHS columns is
    # two violations (each needs its own value-update candidate); the
    # repair hypergraph dedupes the shared edge downstream
    seen: set[tuple[str, Optional[int], frozenset[Fact]]] = set()
    for violation in violations:
        key = (violation.constraint_name, violation.rhs_position, violation.facts)
        if key in seen:
            continue
        seen.add(key)
        found.append(violation)
    found.sort(
        key=lambda v: (
            v.constraint_name,
            -1 if v.rhs_position is None else v.rhs_position,
            sorted(map(repr, v.facts)),
        )
    )
    return found


def find_violations(
    database: Database,
    constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
    *,
    backend: Union[str, EvalBackend, None] = None,
) -> list[Violation]:
    """Every violation of *constraints* in *database*, deterministic order.

    FDs are found by bucketing their relation on the LHS values, which
    also works on a :class:`~repro.db.fork.DatabaseFork`.  *backend*
    applies to denial constraints only: it picks their evaluation
    substrate (``"naive"`` default, ``"columnar"``, ``"sql"``, or an
    instance), and unsupported shapes fall back to the reference engine
    exactly as in query cleaning.  The name is resolved even when every
    constraint is an FD, so an unknown backend still raises.
    """
    engine = resolve_backend(backend)
    with _TELEMETRY.span("constraints.detect", backend=engine.name):
        found = _canonical(
            violation
            for constraint in as_constraints(constraints)
            for violation in (
                _fd_violations(constraint, database)
                if isinstance(constraint, FD)
                else _cq_violations(constraint, database, engine)
            )
        )
    if _TELEMETRY.enabled:
        _TELEMETRY.count("constraints.checks")
        _TELEMETRY.count("constraints.violations_found", len(found))
    return found


def query_violations(
    database: Database,
    constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
    *,
    backend: Union[str, EvalBackend, None] = None,
) -> list[Violation]:
    """The violations every constraint's CQs find on *backend*, FDs included.

    The engine-backed reference :func:`find_violations` is checked
    against: same dedupe, same order, but each FD runs as its
    :func:`violation_queries` self-joins instead of by blocks.
    """
    engine = resolve_backend(backend)
    return _canonical(
        violation
        for constraint in as_constraints(constraints)
        for violation in _cq_violations(constraint, database, engine)
    )


def satisfies(
    database: Database,
    constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
    *,
    backend: Union[str, EvalBackend, None] = None,
) -> bool:
    """Whether *database* satisfies every constraint (no violations).

    FDs are checked block by block and stop at the first differing
    pair; *backend* evaluates denial constraints only (resolved even
    when there are none, as in :func:`find_violations`).
    """
    engine = resolve_backend(backend)
    for constraint in as_constraints(constraints):
        if isinstance(constraint, FD):
            if next(_fd_violations(constraint, database), None) is not None:
                return False
            continue
        for query, _ in violation_queries(constraint, database.schema):
            if engine.evaluate(query, database):
                return False
    return True


__all__ = [
    "Violation",
    "find_violations",
    "query_violations",
    "satisfies",
    "violation_queries",
]
