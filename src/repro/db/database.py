"""In-memory database instances.

A :class:`Database` is a set of facts over a :class:`~repro.db.schema.Schema`
with per-position hash indexes so the query evaluator can bind atoms without
scanning whole relations.  It also implements the paper's notion of distance
between instances (size of the symmetric difference, Section 3.2) which
underpins Proposition 3.3 ("every oracle-derived edit moves D closer to
D_G").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Optional, Sequence

from .edits import Edit, EditKind
from .schema import Schema, SchemaError
from .tuples import Constant, Fact

#: Wildcard marker in match patterns.
ANY = None

Pattern = Sequence[Optional[Constant]]


def match_indexed(
    facts: Iterable[Fact],
    index: Sequence[dict[Constant, set[Fact]]],
    bound: Sequence[tuple[int, Constant]],
) -> Iterator[Fact]:
    """Facts matching the bound positions, via the per-position index.

    The shared core of :meth:`Database.match` and the overlay matching of
    :class:`~repro.db.fork.DatabaseFork`: pick the smallest candidate
    bucket among the bound positions and verify the rest.
    """
    if not bound:
        yield from facts
        return
    buckets = []
    for position, value in bound:
        bucket = index[position].get(value)
        if bucket is None:
            return
        buckets.append(bucket)
    smallest = min(buckets, key=len)
    for f in smallest:
        if all(f.values[i] == v for i, v in bound):
            yield f


class DatabaseListener:
    """Protocol for observers of a :class:`Database`'s edits.

    Listeners are notified only for *effective* edits (ones that change
    ``D``): :meth:`before_change` fires while the database still shows
    the pre-edit state, :meth:`after_change` once the edit (and the
    version bump) has landed.  Both defaults are no-ops so subclasses
    override only the side they need.
    """

    def before_change(self, database: "Database", edit: Edit) -> None:
        """Called before an effective edit mutates the database."""

    def after_change(self, database: "Database", edit: Edit) -> None:
        """Called after an effective edit mutated the database."""


class Database:
    """A mutable set of facts with secondary indexes.

    Facts are validated against the schema on insertion (relation must
    exist, arity must match).  All mutation goes through :meth:`insert` /
    :meth:`delete` (or :class:`~repro.db.edits.Edit`), keeping the indexes
    consistent.

    Every effective mutation bumps a monotone :attr:`version` stamp (plus
    a per-relation stamp), which lets derived state — materialized
    answers, a SQL backend's synced tables — detect staleness in O(1).
    Observers needing the edits themselves subscribe a
    :class:`DatabaseListener`; incremental view maintenance hangs off
    this hook.
    """

    def __init__(self, schema: Schema, facts: Iterable[Fact] = ()) -> None:
        self.schema = schema
        self._relations: dict[str, set[Fact]] = {name: set() for name in schema.names}
        # _index[relation][position][value] -> set of facts
        self._index: dict[str, list[dict[Constant, set[Fact]]]] = {
            name: [defaultdict(set) for _ in range(schema.arity(name))]
            for name in schema.names
        }
        self._version = 0
        self._relation_versions: dict[str, int] = {name: 0 for name in schema.names}
        self._listeners: list[DatabaseListener] = []
        # Relations whose fact set / index objects are referenced by a
        # live fork snapshot: they must be replaced (copy-on-write), not
        # mutated in place, before the next effective edit.
        self._cow: set[str] = set()
        for f in facts:
            self.insert(f)

    # ------------------------------------------------------------------
    # change tracking
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone stamp, bumped by every effective insert/delete."""
        return self._version

    def relation_version(self, relation: str) -> int:
        """The version stamp of *relation* alone (for targeted refresh)."""
        self._check_relation(relation)
        return self._relation_versions[relation]

    def subscribe(self, listener: DatabaseListener) -> None:
        """Register *listener* for before/after edit notifications."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: DatabaseListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # basic set interface
    # ------------------------------------------------------------------
    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Fact):
            return False
        relation = self._relations.get(f.relation)
        return relation is not None and f in relation

    def __len__(self) -> int:
        return sum(len(r) for r in self._relations.values())

    def __iter__(self) -> Iterator[Fact]:
        for relation in self._relations.values():
            yield from relation

    def facts(self, relation: str) -> frozenset[Fact]:
        """All facts of *relation* (a snapshot; safe to iterate and mutate)."""
        self._check_relation(relation)
        return frozenset(self._relations[relation])

    def size(self, relation: str) -> int:
        self._check_relation(relation)
        return len(self._relations[relation])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, f: Fact) -> bool:
        """Insert a fact; return ``True`` if the database changed."""
        self._validate(f)
        if f in self._relations[f.relation]:
            return False
        self._materialize(f.relation)
        edit = self._notify_before(EditKind.INSERT, f)
        self._relations[f.relation].add(f)
        for position, value in enumerate(f.values):
            self._index[f.relation][position][value].add(f)
        self._bump(f.relation)
        self._notify_after(edit)
        return True

    def delete(self, f: Fact) -> bool:
        """Delete a fact; return ``True`` if the database changed."""
        self._validate(f)
        if f not in self._relations[f.relation]:
            return False
        self._materialize(f.relation)
        edit = self._notify_before(EditKind.DELETE, f)
        self._relations[f.relation].discard(f)
        for position, value in enumerate(f.values):
            bucket = self._index[f.relation][position][value]
            bucket.discard(f)
            if not bucket:
                del self._index[f.relation][position][value]
        self._bump(f.relation)
        self._notify_after(edit)
        return True

    def apply(self, edits: Iterable[Edit]) -> int:
        """Apply a sequence of edits; return the number that changed D."""
        changed = 0
        for edit in edits:
            if edit.kind is EditKind.INSERT:
                changed += self.insert(edit.fact)
            else:
                changed += self.delete(edit.fact)
        return changed

    def bulk_load(self, relation: str, rows: Iterable[Sequence[Constant]]) -> int:
        """Insert many *relation* rows at once; return how many changed D.

        Semantically an :meth:`insert` loop (arity-checked, duplicates
        skipped) with the per-fact overhead amortized: copy-on-write
        materialization and version bumps are paid once per batch, and
        listener dispatch is skipped entirely — so with listeners
        subscribed this falls back to the loop, keeping maintained views
        exact.  The fast path for rebuilding shard databases in worker
        processes.
        """
        self._check_relation(relation)
        if self._listeners:
            changed = 0
            for row in rows:
                changed += self.insert(Fact(relation, tuple(row)))
            return changed
        arity = self.schema.arity(relation)
        self._materialize(relation)
        live = self._relations[relation]
        index = self._index[relation]
        before = len(live)
        for row in rows:
            f = Fact(relation, tuple(row))
            if f.arity != arity:
                raise SchemaError(
                    f"fact {f} has arity {f.arity}, relation {relation!r} "
                    f"expects {arity}"
                )
            if f in live:
                continue
            live.add(f)
            for position, value in enumerate(f.values):
                index[position][value].add(f)
        changed = len(live) - before
        if changed:
            self._bump(relation)
        return changed

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match(self, relation: str, pattern: Pattern) -> Iterator[Fact]:
        """Facts of *relation* matching *pattern* (``None`` = wildcard).

        Uses the position index on the most selective bound position and
        verifies the remaining positions, so fully unbound patterns cost a
        scan and bound ones a hash lookup.
        """
        self._check_relation(relation)
        if len(pattern) != self.schema.arity(relation):
            raise SchemaError(
                f"pattern arity {len(pattern)} != arity of {relation!r}"
            )
        bound = [(i, v) for i, v in enumerate(pattern) if v is not ANY]
        yield from match_indexed(
            self._relations[relation], self._index[relation], bound
        )

    def count_matches(self, relation: str, pattern: Pattern) -> int:
        return sum(1 for _ in self.match(relation, pattern))

    # ------------------------------------------------------------------
    # domains and comparison
    # ------------------------------------------------------------------
    def active_domain(self, relation: str | None = None, position: int | None = None) -> set[Constant]:
        """Constants appearing in the database.

        With *relation* and *position* the domain is restricted to that
        column; with only *relation* to that relation; with neither, the
        whole instance.
        """
        if relation is None:
            return {value for f in self for value in f.values}
        self._check_relation(relation)
        if position is None:
            return {value for f in self._relations[relation] for value in f.values}
        return set(self._index[relation][position])

    def distinct_count(self, relation: str, position: int) -> int:
        """``|active_domain(relation, position)|`` without building the set.

        The per-position index keeps one bucket per live value, so this
        is a single ``len`` — cheap enough to recompute statistics after
        every edit.
        """
        self._check_relation(relation)
        return len(self._index[relation][position])

    def domain_values(self, domain_tag: str) -> set[Constant]:
        """Constants from every column whose schema domain tag matches."""
        values: set[Constant] = set()
        for rel_schema in self.schema:
            for position, tag in enumerate(rel_schema.domains):
                if tag == domain_tag:
                    values |= self.active_domain(rel_schema.name, position)
        return values

    def difference(self, other: "Database") -> set[Fact]:
        """Facts in ``self`` but not in *other*."""
        return {f for f in self if f not in other}

    def symmetric_difference(self, other: "Database") -> set[Fact]:
        return self.difference(other) | other.difference(self)

    def distance(self, other: "Database") -> int:
        """``|D − D'|``: size of the symmetric difference (Section 3.2)."""
        return len(self.symmetric_difference(other))

    def copy(self) -> "Database":
        """A fully independent deep copy — O(|D|) facts and index work.

        For a cheap snapshot that shares structure with this instance,
        see :meth:`fork`.
        """
        return Database(self.schema, self)

    def state_digest(self) -> str:
        """A stable content hash of this instance (schema + facts).

        Two databases holding the same facts digest identically,
        whatever their edit history — the equality the durability
        layer's crash-recovery matrix and the benchmark baselines
        compare on.
        """
        from ..durability import codec

        return codec.database_digest(self)

    def apply_exported(self, edit_objs: Iterable[dict]) -> int:
        """Apply an edit log exported by :meth:`DatabaseFork.export_edit_log`.

        Returns the number of edits that changed ``D`` (idempotent
        edits replay safely).
        """
        from ..durability import codec

        return self.apply(codec.edits_from_obj(edit_objs))

    def fork(self) -> "Database":
        """A copy-on-write snapshot of this instance.

        The returned :class:`~repro.db.fork.DatabaseFork` sees exactly
        the facts of ``self`` at fork time and takes edits of its own
        without touching the base: fork creation is O(#relations), fork
        edits land in O(pending edits) overlay structures, and an edit
        to the *base* copies only the touched relation's set/index first
        (so every live fork keeps its snapshot).  Forks record their
        effective edits in an edit log for later commit/merge — the
        substrate of :mod:`repro.server`'s concurrent sessions.
        """
        from .fork import DatabaseFork

        return DatabaseFork(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:
        sizes = ", ".join(f"{name}:{len(r)}" for name, r in self._relations.items())
        return f"Database({sizes})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bump(self, relation: str) -> None:
        self._version += 1
        self._relation_versions[relation] += 1

    def _snapshot_structures(
        self,
    ) -> tuple[dict[str, set[Fact]], dict[str, list[dict[Constant, set[Fact]]]]]:
        """Hand the current fact sets and indexes to a new fork.

        Marks every relation copy-on-write, so the next base edit to a
        relation replaces (rather than mutates) the structures the fork
        now references.
        """
        self._cow.update(self._relations)
        return dict(self._relations), dict(self._index)

    def _materialize(self, relation: str) -> None:
        """Un-share *relation*'s structures before an in-place mutation."""
        if relation not in self._cow:
            return
        self._cow.discard(relation)
        self._relations[relation] = set(self._relations[relation])
        fresh: list[dict[Constant, set[Fact]]] = []
        for position_index in self._index[relation]:
            copied: dict[Constant, set[Fact]] = defaultdict(set)
            for value, bucket in position_index.items():
                copied[value] = set(bucket)
            fresh.append(copied)
        self._index[relation] = fresh

    def _notify_before(self, kind: EditKind, f: Fact) -> Optional[Edit]:
        if not self._listeners:
            return None
        edit = Edit(kind, f)
        for listener in tuple(self._listeners):
            listener.before_change(self, edit)
        return edit

    def _notify_after(self, edit: Optional[Edit]) -> None:
        if edit is None:
            return
        for listener in tuple(self._listeners):
            listener.after_change(self, edit)

    def _check_relation(self, relation: str) -> None:
        if relation not in self._relations:
            raise SchemaError(f"unknown relation {relation!r}")

    def _validate(self, f: Fact) -> None:
        self._check_relation(f.relation)
        expected = self.schema.arity(f.relation)
        if f.arity != expected:
            raise SchemaError(
                f"fact {f} has arity {f.arity}, relation {f.relation!r} expects {expected}"
            )
