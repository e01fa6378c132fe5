"""The constraint language: functional dependencies and denial constraints.

Both constraint kinds reduce to *forbidden conjunctive-query bodies*:

* an FD ``R: X -> Y`` forbids two ``R``-tuples agreeing on every ``X``
  attribute while disagreeing on some ``Y`` attribute — one boolean CQ
  (with a single inequality) per right-hand-side attribute;
* a denial constraint *is* a forbidden body: a conjunction of atoms and
  inequalities that must have no satisfying assignment in a consistent
  instance.

Keeping the compiled form a plain :class:`~repro.query.ast.Query` means
a denial constraint's detection inherits every evaluation substrate
behind :class:`~repro.query.backend.EvalBackend` for free: its check is
just a boolean CQ whose witnesses are the violating tuple sets.  FDs are
detected by LHS blocks instead (:mod:`repro.constraints.violations`);
their CQ form stays as the reference that detector is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..db.schema import Schema, SchemaError
from ..query.ast import Atom, Inequality, Query, Var


class ConstraintError(ValueError):
    """Raised for malformed constraints (unknown attributes, empty sides)."""


@dataclass(frozen=True)
class FD:
    """A functional dependency ``relation: lhs -> rhs`` over attribute names.

    Attributes are resolved against the database schema at detection
    time, so an FD is schema-independent data until it meets an
    instance.  ``FD("games", ("date",), ("winner", "result"))`` reads
    "two games rows sharing a date agree on winner and result".
    """

    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, tuple):
            object.__setattr__(self, "lhs", tuple(self.lhs))
        if not isinstance(self.rhs, tuple):
            object.__setattr__(self, "rhs", tuple(self.rhs))
        if not self.lhs:
            raise ConstraintError(f"FD on {self.relation!r} needs a left-hand side")
        if not self.rhs:
            raise ConstraintError(f"FD on {self.relation!r} needs a right-hand side")
        overlap = set(self.lhs) & set(self.rhs)
        if overlap:
            raise ConstraintError(
                f"FD on {self.relation!r}: attributes {sorted(overlap)} appear "
                f"on both sides"
            )

    @property
    def name(self) -> str:
        return f"fd:{self.relation}:{','.join(self.lhs)}->{','.join(self.rhs)}"

    def positions(self, schema: Schema) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(lhs positions, rhs positions)`` under *schema*."""
        try:
            rel = schema.relation(self.relation)
        except SchemaError as error:
            raise ConstraintError(str(error)) from None
        try:
            return (
                tuple(rel.attribute_index(a) for a in self.lhs),
                tuple(rel.attribute_index(a) for a in self.rhs),
            )
        except SchemaError as error:
            raise ConstraintError(str(error)) from None

    def __str__(self) -> str:
        return f"{self.relation}: {', '.join(self.lhs)} -> {', '.join(self.rhs)}"


@dataclass(frozen=True)
class DenialConstraint:
    """A forbidden conjunctive-query body: ``NOT EXISTS (atoms, inequalities)``.

    A consistent instance admits no assignment satisfying the body; each
    satisfying assignment's witness (the grounded atom set) is one
    violation.  This is exactly the denial-constraint fragment the
    SAT-based CQA line of work (Dixit & Kolaitis) reasons over, minus
    built-in order predicates.
    """

    atoms: tuple[Atom, ...]
    inequalities: tuple[Inequality, ...] = ()
    label: str = "denial"

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.inequalities, tuple):
            object.__setattr__(self, "inequalities", tuple(self.inequalities))
        if not self.atoms:
            raise ConstraintError("a denial constraint needs at least one atom")

    @property
    def name(self) -> str:
        return f"dc:{self.label}"

    def as_query(self) -> Query:
        """The boolean violation query (empty head; witnesses = violations)."""
        return Query(
            head=(),
            atoms=self.atoms,
            inequalities=self.inequalities,
            name=self.name,
        )

    def __str__(self) -> str:
        parts = [str(a) for a in self.atoms] + [str(e) for e in self.inequalities]
        return f"deny {', '.join(parts)}"


#: Anything the detector accepts as one constraint.
Constraint = Union[FD, DenialConstraint]


def parse_fd(text: str) -> FD:
    """Parse ``"relation: a, b -> c, d"`` into an :class:`FD`.

    The one-line spelling used by docs, benchmarks, and CSV sidecars::

        parse_fd("games: date -> winner, result")
    """
    head, sep, arrow = text.partition(":")
    if not sep:
        raise ConstraintError(f"FD {text!r} is missing the 'relation:' prefix")
    lhs_text, sep, rhs_text = arrow.partition("->")
    if not sep:
        raise ConstraintError(f"FD {text!r} is missing '->'")
    lhs = tuple(a.strip() for a in lhs_text.split(",") if a.strip())
    rhs = tuple(a.strip() for a in rhs_text.split(",") if a.strip())
    return FD(head.strip(), lhs, rhs)


def as_constraints(
    specs: Union[Constraint, str, Iterable[Union[Constraint, str]]]
) -> tuple[Constraint, ...]:
    """Normalize user input: one constraint/string or an iterable of them."""
    if isinstance(specs, (FD, DenialConstraint, str)):
        specs = (specs,)
    out: list[Constraint] = []
    for spec in specs:
        if isinstance(spec, str):
            out.append(parse_fd(spec))
        elif isinstance(spec, (FD, DenialConstraint)):
            out.append(spec)
        else:
            raise ConstraintError(f"not a constraint: {spec!r}")
    return tuple(out)


def fd_violation_queries(fd: FD, schema: Schema) -> list[Query]:
    """One boolean CQ per RHS attribute: two rows agree on X, differ there.

    ``R(x̄, y₁), R(x̄, y₂), y₁ != y₂`` with the LHS positions sharing
    variables between the two atoms.  Every satisfying assignment's
    witness is a violating *pair* of facts (the two atoms may also bind
    the same fact, but then the inequality fails, so witnesses are
    genuine pairs).
    """
    rel = schema.relation(fd.relation)
    lhs_positions, rhs_positions = fd.positions(schema)
    queries = []
    for rhs_position in rhs_positions:
        first = []
        second = []
        for position in range(rel.arity):
            if position in lhs_positions:
                shared = Var(f"x{position}")
                first.append(shared)
                second.append(shared)
            elif position == rhs_position:
                first.append(Var(f"a{position}"))
                second.append(Var(f"b{position}"))
            else:
                first.append(Var(f"u{position}"))
                second.append(Var(f"v{position}"))
        queries.append(
            Query(
                head=(),
                atoms=(Atom(fd.relation, tuple(first)), Atom(fd.relation, tuple(second))),
                inequalities=(Inequality(Var(f"a{rhs_position}"), Var(f"b{rhs_position}")),),
                name=f"{fd.name}@{rel.attributes[rhs_position]}",
            )
        )
    return queries


__all__ = [
    "Constraint",
    "ConstraintError",
    "DenialConstraint",
    "FD",
    "as_constraints",
    "fd_violation_queries",
    "parse_fd",
]
