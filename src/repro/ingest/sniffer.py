"""Typed schema sniffing for bare CSV files.

:func:`repro.db.io.load_csv` needs a ``_schema.json`` sidecar; real
dirty CSVs arrive with nothing but a header row.  The sniffer examines
the data and infers a per-column type (``int``, ``float``, ``date``,
``text``) by majority vote over the non-null cells, producing a
:class:`~repro.db.schema.RelationSchema` whose domain tags carry the
inferred kind (``games.date:date``).

Sniffed types are *metadata*: cell coercion stays per-cell
(:func:`coerce_cell`, the same int→float→str ladder the CSV directory
format uses) and deliberately independent of the column verdict, so a
clean table and a noise-polluted copy of it coerce their untouched
cells identically — the property the ingest round-trip tests and the
repair benchmark rely on.

:func:`scan_column` is the one pass behind both the vote and the
coercion: it classifies each *distinct* raw cell of a column once
(null or not, kind, coerced value) and weighs it by how often it
occurs, so a column full of repeated cells costs one classification
per spelling, not per row.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..db.io import coerce_value
from ..db.schema import RelationSchema
from ..db.tuples import Constant

#: Cell spellings treated as missing data (excluded from type voting).
NULL_TOKENS = frozenset({"", "-", "n/a", "na", "null", "none", "nil", "?"})

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
#: ISO dates plus the two ambiguous slash spellings MixedFormats emits.
_DATE_RES = (
    re.compile(r"^\d{4}-\d{2}-\d{2}$"),
    re.compile(r"^\d{2}/\d{2}/\d{4}$"),
    re.compile(r"^\d{4}/\d{2}/\d{2}$"),
)

#: Type lattice, most to least specific; a column takes the most
#: specific kind covering a majority of its non-null cells.
KINDS = ("int", "float", "date", "text")


def is_null(cell: str) -> bool:
    """Whether *cell* spells missing data."""
    return cell.strip().lower() in NULL_TOKENS


def cell_kind(cell: str) -> str:
    """The most specific kind one cell could belong to."""
    return _kind(cell.strip())


def _kind(text: str) -> str:
    if _INT_RE.match(text):
        return "int"
    if _FLOAT_RE.match(text):
        return "float"
    if any(pattern.match(text) for pattern in _DATE_RES):
        return "date"
    return "text"


@dataclass(frozen=True)
class ColumnProfile:
    """What the sniffer learned about one column."""

    name: str
    kind: str
    total: int
    nulls: int
    #: per-kind cell counts over the non-null cells
    votes: tuple[tuple[str, int], ...]

    @property
    def null_rate(self) -> float:
        return self.nulls / self.total if self.total else 0.0

    def __str__(self) -> str:
        return f"{self.name}: {self.kind} ({self.nulls}/{self.total} null)"


def scan_column(
    name: str, cells: Iterable[str], *, majority: float = 0.5
) -> tuple[ColumnProfile, list[Constant]]:
    """Profile one column and coerce its cells in one pass.

    Each distinct raw cell is classified once — null or not, its kind,
    its :func:`coerce_cell` value — and votes with its number of
    occurrences.  Returns the profile and the coerced value of every
    cell, in order.  A cell that coerces to NaN gets a value of its own:
    NaN equals nothing, so two rows that differ only in their NaN cells
    stay two facts, as a cell-by-cell load keeps them.

    ``int`` cells also vote ``float`` (every int parses as a float), so
    a column of ``3`` and ``3.5`` lands on ``float`` rather than
    ``text``.  A column with no clear majority — or all nulls — is
    ``text``.
    """
    column: Sequence[str] = cells if isinstance(cells, (list, tuple)) else list(cells)
    votes: Counter[str] = Counter()
    nulls = 0
    value_of: dict[str, Constant] = {}
    nan_cells: set[str] = set()
    for cell, count in Counter(column).items():
        text = cell.strip()
        value = value_of[cell] = coerce_value(text)
        if value != value:
            nan_cells.add(cell)
        if text.lower() in NULL_TOKENS:
            nulls += count
            continue
        kind = _kind(text)
        votes[kind] += count
        if kind == "int":
            votes["float"] += count
    values = list(map(value_of.__getitem__, column))
    if nan_cells:
        values = [
            coerce_cell(cell) if cell in nan_cells else value
            for cell, value in zip(column, values)
        ]
    total = len(column)
    populated = total - nulls
    chosen = "text"
    if populated:
        threshold = populated * majority
        for kind in ("int", "float", "date"):
            if votes.get(kind, 0) > threshold:
                chosen = kind
                break
    profile = ColumnProfile(
        name=name,
        kind=chosen,
        total=total,
        nulls=nulls,
        votes=tuple(sorted(votes.items())),
    )
    return profile, values


def sniff_column(name: str, cells: Iterable[str], *, majority: float = 0.5) -> ColumnProfile:
    """Profile one column: majority vote over non-null cell kinds
    (see :func:`scan_column`)."""
    return scan_column(name, cells, majority=majority)[0]


def scan_table(
    header: Sequence[str], rows: Sequence[Sequence[str]], *, majority: float = 0.5
) -> list[tuple[ColumnProfile, list[Constant]]]:
    """:func:`scan_column` over every column; a short row reads as empty cells."""
    columns = [
        [row[position] if position < len(row) else "" for row in rows]
        for position in range(len(header))
    ]
    return [
        scan_column(name, column, majority=majority)
        for name, column in zip(header, columns)
    ]


def sniff_table(
    header: Sequence[str], rows: Sequence[Sequence[str]], *, majority: float = 0.5
) -> list[ColumnProfile]:
    """Profile every column of a header+rows table."""
    return [profile for profile, _ in scan_table(header, rows, majority=majority)]


def typed_relation(
    name: str, header: Sequence[str], profiles: Sequence[ColumnProfile]
) -> RelationSchema:
    """The :class:`RelationSchema` whose domain tags carry the profiles' kinds."""
    return RelationSchema(
        name,
        tuple(header),
        tuple(f"{name}.{p.name}:{p.kind}" for p in profiles),
    )


def sniffed_relation(
    name: str,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    *,
    majority: float = 0.5,
) -> tuple[RelationSchema, list[ColumnProfile]]:
    """A typed :class:`RelationSchema` for the table, plus the profiles.

    Domain tags are ``relation.attribute:kind`` — unique per attribute
    (so the noise fabricators never blend columns) with the inferred
    kind readable off the tag.
    """
    profiles = sniff_table(header, rows, majority=majority)
    return typed_relation(name, header, profiles), profiles


def coerce_cell(cell: str) -> Constant:
    """Per-cell coercion: int, else float, else stripped string.

    Independent of the column's sniffed kind on purpose — see the
    module docstring.
    """
    return coerce_value(cell.strip())


__all__ = [
    "ColumnProfile",
    "KINDS",
    "NULL_TOKENS",
    "cell_kind",
    "coerce_cell",
    "is_null",
    "scan_column",
    "scan_table",
    "sniff_column",
    "sniff_table",
    "sniffed_relation",
    "typed_relation",
]
