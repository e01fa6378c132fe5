"""Facts (ground tuples).

Following Section 2 of the paper we refer to a tuple ``t`` of a relation
``R`` and the fact ``R(t)`` interchangeably; :class:`Fact` bundles the
relation name with the value vector and is hashable so that databases,
witness sets and hitting sets can all be plain Python sets.

A fact is hashed in every set and dict it passes through, so it hashes
once, at construction, and keeps the value.  That value is the usual
``hash((relation, values))``, which Python salts per process for strings;
a fact therefore pickles as ``(relation, values)`` and the loading
process computes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

#: The constants we allow inside facts.  Everything is compared by equality,
#: so strings and ints may coexist (dates are ISO strings in our datasets).
Constant = str | int | float

_ARG_SEPARATOR = ", "


@dataclass(frozen=True, order=True, slots=True)
class Fact:
    """A ground atom ``relation(values...)``."""

    relation: str
    values: tuple[Constant, ...]
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "_hash", hash((self.relation, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # never ship the cached hash: another process salts str hashes
        # differently, so the loader recomputes it
        return (Fact, (self.relation, self.values))

    @property
    def arity(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        args = _ARG_SEPARATOR.join(str(v) for v in self.values)
        return f"{self.relation}({args})"

    def replace(self, position: int, value: Constant) -> "Fact":
        """A copy of this fact with ``values[position]`` swapped for *value*."""
        if not 0 <= position < len(self.values):
            raise IndexError(f"position {position} out of range for {self}")
        values = list(self.values)
        values[position] = value
        return Fact(self.relation, tuple(values))


def fact(relation: str, *values: Constant) -> Fact:
    """Convenience constructor: ``fact("teams", "GER", "EU")``."""
    return Fact(relation, tuple(values))


def facts(relation: str, rows: Iterable[Iterable[Constant]]) -> list[Fact]:
    """Build one :class:`Fact` per row for a single relation."""
    return [Fact(relation, tuple(row)) for row in rows]
