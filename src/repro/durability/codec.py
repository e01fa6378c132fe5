"""JSON codec for everything the durability layer persists.

The write-ahead log and the checkpoints both store plain JSON objects;
this module is the single place that knows how to map the domain
objects — :class:`~repro.db.tuples.Fact`, :class:`~repro.db.edits.Edit`,
:class:`~repro.query.ast.Query`, answers, and the structural
answer-board keys of :func:`repro.dispatch.dedup.question_key` — onto
JSON and back **losslessly**.

Two invariants the recovery path depends on:

* round-tripping is exact: ``decode(encode(x)) == x`` for every value
  the server can produce, including negative numbers, floats, negated
  atoms, and inequality-bearing queries (pinned by
  ``tests/test_durability.py``);
* encoding is canonical: equal values encode to equal JSON, so digests
  of encoded state are stable across processes.

Constants are ``str | int | float`` (see :mod:`repro.db.tuples`), which
JSON represents natively and distinguishably; variables are tagged
objects so a constant string can never be mistaken for a variable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Hashable, Iterable, Mapping, Sequence

from ..db.database import Database
from ..db.edits import Edit, EditKind
from ..db.io import _schema_from_dict, _schema_to_dict
from ..db.tuples import Constant, Fact
from ..query.ast import Atom, Inequality, Query, Term, Var


class CodecError(ValueError):
    """A persisted object that cannot be decoded (corrupt or unknown)."""


# ---------------------------------------------------------------------------
# terms, facts, edits
# ---------------------------------------------------------------------------
def term_to_obj(term: Term) -> Any:
    """Variables become ``{"$var": name}``; constants pass through."""
    if isinstance(term, Var):
        return {"$var": term.name}
    return term


def term_from_obj(obj: Any) -> Term:
    if isinstance(obj, dict):
        if set(obj) != {"$var"}:
            raise CodecError(f"unknown term object {obj!r}")
        return Var(obj["$var"])
    if isinstance(obj, bool) or not isinstance(obj, (str, int, float)):
        raise CodecError(f"unsupported constant {obj!r}")
    return obj


def fact_to_obj(f: Fact) -> dict:
    return {"relation": f.relation, "values": list(f.values)}


def fact_from_obj(obj: dict) -> Fact:
    try:
        return Fact(obj["relation"], tuple(obj["values"]))
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed fact object {obj!r}") from error


def edit_to_obj(edit: Edit) -> dict:
    return {"op": edit.kind.value, "fact": fact_to_obj(edit.fact)}


def edit_from_obj(obj: dict) -> Edit:
    try:
        kind = EditKind(obj["op"])
    except (KeyError, ValueError) as error:
        raise CodecError(f"malformed edit object {obj!r}") from error
    return Edit(kind, fact_from_obj(obj["fact"]))


def edits_to_obj(edits: Iterable[Edit]) -> list[dict]:
    """Serialize an edit log (e.g. ``DatabaseFork.pending_edits``)."""
    return [edit_to_obj(e) for e in edits]


def edits_from_obj(objs: Iterable[dict]) -> list[Edit]:
    return [edit_from_obj(o) for o in objs]


# ---------------------------------------------------------------------------
# queries and answers
# ---------------------------------------------------------------------------
def _atom_to_obj(atom: Atom) -> dict:
    return {"relation": atom.relation, "terms": [term_to_obj(t) for t in atom.terms]}


def _atom_from_obj(obj: dict) -> Atom:
    try:
        return Atom(obj["relation"], tuple(term_from_obj(t) for t in obj["terms"]))
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed atom object {obj!r}") from error


def query_to_obj(query: Query) -> dict:
    return {
        "name": query.name,
        "head": [term_to_obj(t) for t in query.head],
        "atoms": [_atom_to_obj(a) for a in query.atoms],
        "inequalities": [
            [term_to_obj(e.left), term_to_obj(e.right)] for e in query.inequalities
        ],
        "negated": [_atom_to_obj(a) for a in query.negated_atoms],
    }


def query_from_obj(obj: dict) -> Query:
    try:
        return Query(
            head=tuple(term_from_obj(t) for t in obj["head"]),
            atoms=tuple(_atom_from_obj(a) for a in obj["atoms"]),
            inequalities=tuple(
                Inequality(term_from_obj(left), term_from_obj(right))
                for left, right in obj["inequalities"]
            ),
            name=obj["name"],
            negated_atoms=tuple(_atom_from_obj(a) for a in obj.get("negated", ())),
        )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed query object {obj!r}") from error


def answer_to_obj(answer: Sequence[Constant]) -> list:
    return list(answer)


def answer_from_obj(obj: Sequence[Constant]) -> tuple[Constant, ...]:
    return tuple(obj)


def assignment_to_obj(assignment: Mapping[Var, Constant]) -> list[list]:
    """A (partial or total) variable assignment, sorted by variable name
    so equal assignments encode identically."""
    return [
        [var.name, value]
        for var, value in sorted(assignment.items(), key=lambda item: item[0].name)
    ]


def assignment_from_obj(obj: Iterable[Sequence]) -> dict[Var, Constant]:
    try:
        return {Var(name): value for name, value in obj}
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed assignment object {obj!r}") from error


# ---------------------------------------------------------------------------
# answer-board entries
# ---------------------------------------------------------------------------
def board_key_to_obj(key: Hashable) -> dict:
    """Encode a :func:`~repro.dispatch.dedup.question_key` identity."""
    if not isinstance(key, tuple) or not key:
        raise CodecError(f"unsupported board key {key!r}")
    kind = key[0]
    if kind == "verify_fact":
        return {"kind": kind, "fact": fact_to_obj(key[1])}
    if kind == "verify_answer":
        return {
            "kind": kind,
            "query": query_to_obj(key[1]),
            "answer": answer_to_obj(key[2]),
        }
    if kind == "verify_candidate":
        partial = sorted(key[2], key=lambda item: item[0].name)
        return {
            "kind": kind,
            "query": query_to_obj(key[1]),
            "partial": [[var.name, value] for var, value in partial],
        }
    raise CodecError(f"unsupported board key kind {kind!r}")


def board_key_from_obj(obj: dict) -> Hashable:
    try:
        kind = obj["kind"]
        if kind == "verify_fact":
            return (kind, fact_from_obj(obj["fact"]))
        if kind == "verify_answer":
            return (kind, query_from_obj(obj["query"]), answer_from_obj(obj["answer"]))
        if kind == "verify_candidate":
            return (
                kind,
                query_from_obj(obj["query"]),
                frozenset((Var(name), value) for name, value in obj["partial"]),
            )
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed board key {obj!r}") from error
    raise CodecError(f"unsupported board key kind {obj.get('kind')!r}")


def board_value_to_obj(value: Any) -> Any:
    """Board values are final verdicts — booleans today, tuples tolerated."""
    if isinstance(value, tuple):
        return {"$tuple": list(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CodecError(f"unsupported board value {value!r}")


def board_value_from_obj(obj: Any) -> Any:
    if isinstance(obj, dict):
        if set(obj) != {"$tuple"}:
            raise CodecError(f"unknown board value object {obj!r}")
        return tuple(obj["$tuple"])
    return obj


def board_entries_to_obj(entries: Iterable[tuple[Hashable, Any]]) -> list[list]:
    return [
        [board_key_to_obj(key), board_value_to_obj(value)] for key, value in entries
    ]


def board_entries_from_obj(objs: Iterable[Sequence]) -> list[tuple[Hashable, Any]]:
    return [
        (board_key_from_obj(key), board_value_from_obj(value)) for key, value in objs
    ]


# ---------------------------------------------------------------------------
# whole databases (checkpoint payloads)
# ---------------------------------------------------------------------------
def database_to_obj(database: Database, canonical: bool = True) -> dict:
    """The checkpoint form: schema + facts, in canonical (sorted) order.

    ``canonical=False`` skips the per-fact JSON rendering and sort —
    the rows come out in set order, which is *not* stable across
    processes.  Digests must always use the canonical form; bulk
    transfers that only need a faithful copy (sharding's per-worker
    payloads) take the cheap form.
    """
    if canonical:
        rows = {
            rel.name: sorted(
                (list(f.values) for f in database.facts(rel.name)),
                key=canonical_json,
            )
            for rel in database.schema
        }
    else:
        rows = {
            rel.name: [list(f.values) for f in database.facts(rel.name)]
            for rel in database.schema
        }
    return {"schema": _schema_to_dict(database.schema), "facts": rows}


def database_from_obj(obj: dict) -> Database:
    try:
        schema = _schema_from_dict(obj["schema"])
        database = Database(schema)
        for relation, rows in obj["facts"].items():
            for row in rows:
                database.insert(Fact(relation, tuple(row)))
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed database object: {error}") from error
    return database


#: ``json.dumps`` with non-default options builds a new encoder per
#: call; the canonical options never change, so one encoder serves all
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=True)


def canonical_json(obj: Any) -> str:
    """Deterministic rendering — the basis of every digest and checksum."""
    return _CANONICAL.encode(obj)


def obj_digest(obj: Any) -> str:
    """The sha256 of ``canonical_json(obj)``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def database_digest(database: Database) -> str:
    """A stable content hash of the instance (schema + facts).

    Equal to :func:`obj_digest` of :func:`database_to_obj`'s canonical
    form, so a caller that already holds that form hashes it directly.
    """
    return obj_digest(database_to_obj(database))


__all__ = [
    "CodecError",
    "answer_from_obj",
    "answer_to_obj",
    "assignment_from_obj",
    "assignment_to_obj",
    "board_entries_from_obj",
    "board_entries_to_obj",
    "board_key_from_obj",
    "board_key_to_obj",
    "board_value_from_obj",
    "board_value_to_obj",
    "canonical_json",
    "database_digest",
    "database_from_obj",
    "database_to_obj",
    "edit_from_obj",
    "edit_to_obj",
    "edits_from_obj",
    "edits_to_obj",
    "fact_from_obj",
    "fact_to_obj",
    "obj_digest",
    "query_from_obj",
    "query_to_obj",
    "term_from_obj",
    "term_to_obj",
]
