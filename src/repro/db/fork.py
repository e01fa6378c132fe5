"""Copy-on-write database forks.

A :class:`DatabaseFork` is a cheap snapshot of a base :class:`Database`
that can be edited independently — the substrate of concurrent cleaning
sessions (:mod:`repro.server`).  Where :meth:`Database.copy` rebuilds
every fact and index bucket (O(|D|)), a fork stores only *references*
to the base's per-relation fact sets and indexes plus two overlay sets
per relation:

* ``added``   — facts inserted on the fork and absent from the snapshot;
* ``removed`` — snapshot facts deleted on the fork.

Reads combine the snapshot with the overlay (``(base − removed) ∪
added``); writes touch only the overlay, so a fork costs O(#relations)
to create and O(pending edits) to maintain, independent of |D|.

Snapshot stability is the base's job: :meth:`Database.fork` marks every
relation copy-on-write, and the base's next effective edit to a marked
relation *replaces* that relation's set/index with a copy before
mutating (``Database._materialize``).  The structures a fork references
are therefore immutable for the fork's lifetime — commits to the base
by other sessions never leak into a running fork, which is exactly the
snapshot isolation the session manager's first-committer-wins protocol
needs.

Version lineage: a fork's :attr:`~Database.version` continues from the
base's stamp at fork time and bumps per effective fork edit, and the
per-relation stamps are inherited the same way.  Derived state built
*on the fork* — the incremental engine's maintained answers, the SQL
backend's per-relation sync — works unchanged, staleness checks
included.

Every effective fork edit is appended to :attr:`pending_edits`, the
ordered edit log a session later replays onto the base at commit time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from .database import ANY, Database, Pattern, match_indexed
from .edits import Edit, EditKind
from .schema import SchemaError
from .tuples import Constant, Fact


class ForkError(RuntimeError):
    """An unsupported fork operation (e.g. forking a fork)."""


class DatabaseFork(Database):
    """An editable copy-on-write snapshot of a base :class:`Database`.

    Create one with :meth:`Database.fork`.  The fork supports the full
    :class:`Database` read/write interface (matching, domains, listener
    subscriptions, version stamps), plus the fork-specific surface:
    :attr:`base`, :attr:`forked_at_version`, :attr:`pending_edits`,
    :meth:`touched_facts`, and :meth:`delta_size`.
    """

    def __init__(self, base: Database) -> None:
        if isinstance(base, DatabaseFork):
            raise ForkError(
                "forking a fork is not supported: commit it back to its "
                "base (repro.server) or materialize it with .copy() first"
            )
        self.schema = base.schema
        self.base = base
        self.forked_at_version = base.version
        relations, index = base._snapshot_structures()
        self._base_relations = relations
        self._base_index = index
        self._added: dict[str, set[Fact]] = {name: set() for name in relations}
        self._removed: dict[str, set[Fact]] = {name: set() for name in relations}
        self._added_index: dict[str, list[dict[Constant, set[Fact]]]] = {
            name: [defaultdict(set) for _ in range(self.schema.arity(name))]
            for name in relations
        }
        self._version = base.version
        self._relation_versions = {
            name: base.relation_version(name) for name in relations
        }
        self._listeners = []
        self._cow = set()
        self._edit_log: list[Edit] = []

    # ------------------------------------------------------------------
    # fork surface
    # ------------------------------------------------------------------
    @property
    def pending_edits(self) -> tuple[Edit, ...]:
        """The effective edits applied to this fork, in order."""
        return tuple(self._edit_log)

    def touched_facts(self) -> frozenset[Fact]:
        """Every fact some pending edit inserts or deletes."""
        return frozenset(edit.fact for edit in self._edit_log)

    def delta_size(self) -> int:
        """Overlay footprint: |added| + |removed| across relations."""
        return sum(len(s) for s in self._added.values()) + sum(
            len(s) for s in self._removed.values()
        )

    def export_edit_log(self) -> list[dict]:
        """The pending edit log as JSON-serializable objects.

        This is the payload a durable server writes into its WAL commit
        record; :meth:`Database.apply_exported` replays it losslessly
        (``tests/test_durability.py`` pins the round-trip, including
        negative and float-valued facts).
        """
        from ..durability import codec

        return codec.edits_to_obj(self._edit_log)

    def fork(self) -> Database:
        raise ForkError(
            "forking a fork is not supported: commit it back to its "
            "base (repro.server) or materialize it with .copy() first"
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Fact):
            return False
        base = self._base_relations.get(f.relation)
        if base is None:
            return False
        if f in self._added[f.relation]:
            return True
        return f in base and f not in self._removed[f.relation]

    def __len__(self) -> int:
        return sum(self.size(name) for name in self._base_relations)

    def __iter__(self) -> Iterator[Fact]:
        for name in self._base_relations:
            yield from self._iter_relation(name)

    def _iter_relation(self, relation: str) -> Iterator[Fact]:
        removed = self._removed[relation]
        if removed:
            for f in self._base_relations[relation]:
                if f not in removed:
                    yield f
        else:
            yield from self._base_relations[relation]
        yield from self._added[relation]

    def facts(self, relation: str) -> frozenset[Fact]:
        """All facts of *relation* (a snapshot; safe to iterate and mutate)."""
        self._check_relation(relation)
        base = self._base_relations[relation]
        removed = self._removed[relation]
        added = self._added[relation]
        if not removed and not added:
            return frozenset(base)
        return frozenset((base - removed) | added)

    def size(self, relation: str) -> int:
        self._check_relation(relation)
        return (
            len(self._base_relations[relation])
            - len(self._removed[relation])
            + len(self._added[relation])
        )

    def match(self, relation: str, pattern: Pattern) -> Iterator[Fact]:
        """Facts of *relation* matching *pattern* (``None`` = wildcard).

        Matches the base snapshot through its index (filtering the
        removed overlay) and the added overlay through its own index —
        the same index-backed cost profile as :meth:`Database.match`.
        """
        self._check_relation(relation)
        if len(pattern) != self.schema.arity(relation):
            raise SchemaError(
                f"pattern arity {len(pattern)} != arity of {relation!r}"
            )
        bound = [(i, v) for i, v in enumerate(pattern) if v is not ANY]
        removed = self._removed[relation]
        base_matches = match_indexed(
            self._base_relations[relation], self._base_index[relation], bound
        )
        if removed:
            for f in base_matches:
                if f not in removed:
                    yield f
        else:
            yield from base_matches
        yield from match_indexed(
            self._added[relation], self._added_index[relation], bound
        )

    def active_domain(
        self, relation: str | None = None, position: int | None = None
    ) -> set[Constant]:
        """Constants appearing in the fork's effective instance."""
        if relation is None:
            return {value for f in self for value in f.values}
        self._check_relation(relation)
        if position is None:
            return {
                value for f in self._iter_relation(relation) for value in f.values
            }
        domain = set(self._added_index[relation][position])
        base_index = self._base_index[relation][position]
        removed = self._removed[relation]
        if not removed:
            domain.update(base_index)
            return domain
        for value, bucket in base_index.items():
            if value in domain:
                continue
            # the value survives if any base fact carrying it does
            if len(bucket) > len(removed) or any(f not in removed for f in bucket):
                domain.add(value)
        return domain

    def distinct_count(self, relation: str, position: int) -> int:
        """``|active_domain(relation, position)|`` over the overlay view."""
        return len(self.active_domain(relation, position))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if isinstance(other, DatabaseFork):
            return self._effective_relations() == other._effective_relations()
        return self._effective_relations() == other._relations

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}:{self.size(name)}" for name in self._base_relations
        )
        return (
            f"DatabaseFork({sizes}; +{sum(len(s) for s in self._added.values())}"
            f"/-{sum(len(s) for s in self._removed.values())}"
            f" @v{self.forked_at_version})"
        )

    def _effective_relations(self) -> dict[str, set[Fact]]:
        return {
            name: (self._base_relations[name] - self._removed[name])
            | self._added[name]
            for name in self._base_relations
        }

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, f: Fact) -> bool:
        """Insert a fact into the overlay; return ``True`` if effective."""
        self._validate(f)
        if f in self:
            return False
        edit = Edit(EditKind.INSERT, f)
        for listener in tuple(self._listeners):
            listener.before_change(self, edit)
        relation = f.relation
        if f in self._removed[relation]:
            self._removed[relation].discard(f)
        else:
            self._added[relation].add(f)
            index = self._added_index[relation]
            for position, value in enumerate(f.values):
                index[position][value].add(f)
        self._edit_log.append(edit)
        self._bump(relation)
        for listener in tuple(self._listeners):
            listener.after_change(self, edit)
        return True

    def delete(self, f: Fact) -> bool:
        """Delete a fact from the overlay view; return ``True`` if effective."""
        self._validate(f)
        if f not in self:
            return False
        edit = Edit(EditKind.DELETE, f)
        for listener in tuple(self._listeners):
            listener.before_change(self, edit)
        relation = f.relation
        if f in self._added[relation]:
            self._added[relation].discard(f)
            index = self._added_index[relation]
            for position, value in enumerate(f.values):
                bucket = index[position][value]
                bucket.discard(f)
                if not bucket:
                    del index[position][value]
        else:
            self._removed[relation].add(f)
        self._edit_log.append(edit)
        self._bump(relation)
        for listener in tuple(self._listeners):
            listener.after_change(self, edit)
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_relation(self, relation: str) -> None:
        if relation not in self._base_relations:
            raise SchemaError(f"unknown relation {relation!r}")
