"""Vectorized columnar evaluation: numpy joins over column arrays.

The reference :class:`~repro.query.evaluator.Evaluator` walks the join
tree one tuple at a time; this backend evaluates the whole query as a
sequence of *vectorized* relational operations instead:

1. **Dictionary encoding, kept current under deletes.**  Every constant
   is interned to an ``int64`` code (one append-only dictionary per
   database), and every relation becomes a set of aligned code columns,
   a row-aligned ``list[Fact]`` for decoding witnesses, and a live-row
   mask.  The store hears about edits through the database's
   :class:`~repro.db.database.DatabaseListener` hook: a delete it saw
   clears its row in the live mask (found through a sorted index in
   O(log |R|)) instead of re-encoding the relation.
   :meth:`~repro.db.database.Database.relation_version` stays the
   source of truth — an insert, or any change the store did not see,
   re-encodes the relation on its next read, which also drops the dead
   rows.

2. **Join by index probe or by sort.**  Atoms are joined greedily (most
   already bound variables first, then smallest relation — the same
   heuristic as the backtracking engine).  The running state is a
   *binding table*: one code column per bound variable plus one
   row-index column per processed atom (the provenance needed for
   witnesses).  When the table is small next to the atom's relation —
   ``L * bit_length(n) < n`` for ``L`` table rows and ``n`` relation
   rows, as in the incremental engine's delta enumerations —
   each table row binary-searches a stable sorted index of one bound
   column (built lazily, then cached with the columns), and the other
   shared variables, constants, repeated variables and partial bindings
   are checked on the probed rows only: O(L log n + matches).  Larger
   joins, and probes whose ranges would cover more rows than the
   relation holds, equi-join on the shared variables via sort +
   ``searchsorted`` range expansion, over the relation's rows narrowed
   by the atom's constants and partial bindings (looked up in the index
   of one such column) or, with none, by mask.
   Both paths yield the same (table row, relation row) pairs in the
   same order: table-row major, then ascending relation row.

3. **Predicate masks.**  Inequalities become boolean masks as soon as
   both sides are bound; each negated atom becomes a semi-join
   *reduction* at the end — binding rows whose shared-variable key
   matches any consistent live fact of the negated relation are
   eliminated (``NOT EXISTS`` with local wildcards), mirroring
   :func:`~repro.query.evaluator.negated_match_exists` exactly.

The final binding table rows are in bijection with the valid
assignments, so answers, support counts and witness multisets fall out
of column projections — answers and support stay fully vectorized
(``np.unique`` over the head projection); witnesses decode rows through
the fact lists.  Conformance with the reference engine is
property-tested in ``tests/test_backend_conformance.py``, and the probe
against the sort join in ``tests/test_columnar.py``.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Iterator, Mapping, Optional

import numpy as np

from ..db.database import Database, DatabaseListener
from ..db.edits import Edit, EditKind
from ..db.tuples import Constant, Fact
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import Query, Var
from .backend import Capabilities, EvalBackend, EvalResult
from .evaluator import Answer, Assignment

_INT64_GUARD = 2**62


def _group_keys(
    left_cols: list[np.ndarray], right_cols: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Composite join keys for two column lists, in one shared key space.

    Folds the columns pairwise into dense group ids (``np.unique``
    re-normalizes after every fold, so values stay bounded by the row
    count and the ``int64`` mix cannot overflow at any realistic scale;
    a guard falls back to lexicographic ``np.unique(axis=0)`` if it
    ever would).
    """
    n_left = left_cols[0].shape[0]
    total = n_left + right_cols[0].shape[0]
    keys = np.zeros(total, dtype=np.int64)
    if total == 0:
        return keys[:n_left], keys[n_left:]
    for lc, rc in zip(left_cols, right_cols):
        col = np.concatenate([lc, rc])
        radix = int(col.max()) + 1
        if (int(keys.max()) + 1) * radix >= _INT64_GUARD:  # pragma: no cover
            stacked = np.stack([keys, col], axis=1)
            _, keys = np.unique(stacked, axis=0, return_inverse=True)
            keys = keys.astype(np.int64)
            continue
        mixed = keys * radix + col
        _, keys = np.unique(mixed, return_inverse=True)
        keys = keys.astype(np.int64)
    return keys[:n_left], keys[n_left:]


def _equi_join(
    left_cols: list[np.ndarray], right_cols: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """All (left row, right row) index pairs with equal composite keys."""
    lk, rk = _group_keys(left_cols, right_cols)
    order = np.argsort(rk, kind="stable")
    rk_sorted = rk[order]
    lo = np.searchsorted(rk_sorted, lk, side="left")
    hi = np.searchsorted(rk_sorted, lk, side="right")
    counts = hi - lo
    left_idx = np.repeat(np.arange(lk.shape[0]), counts)
    total = int(counts.sum())
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[starts + offsets]
    return left_idx, right_idx


def _semi_mask(
    left_cols: list[np.ndarray], right_cols: list[np.ndarray]
) -> np.ndarray:
    """Boolean mask of left rows whose key appears among the right rows."""
    lk, rk = _group_keys(left_cols, right_cols)
    return np.isin(lk, rk)


def _probe_pays(left_rows: int, relation_rows: int) -> bool:
    """Whether binary-searching *left_rows* keys in a sorted index costs
    fewer comparisons than one pass over *relation_rows* rows."""
    return left_rows * relation_rows.bit_length() < relation_rows


def _sorted_index(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row order, sorted codes)`` of *column*; the sort is stable, so
    the rows of one code stay ascending."""
    order = np.argsort(column, kind="stable")
    return order, column[order]


def _probe_join(
    left_cols: list[np.ndarray],
    right_cols: list[np.ndarray],
    index: tuple[np.ndarray, np.ndarray],
    live: np.ndarray,
    limit: Optional[int] = None,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """:func:`_equi_join` over the live right rows, by index probe.

    *index* is :func:`_sorted_index` of ``right_cols[0]``; each left key
    binary-searches it, and the other key columns and the live mask are
    checked on the probed rows only.  The pairs and their order are
    :func:`_equi_join`'s over the live rows: left-major, then ascending
    right row.  ``None`` when the probed ranges cover more than *limit*
    rows.
    """
    order, keys = index
    probe = left_cols[0]
    lo = np.searchsorted(keys, probe, side="left")
    counts = np.searchsorted(keys, probe, side="right") - lo
    total = int(counts.sum())
    if limit is not None and total > limit:
        return None
    left_idx = np.repeat(np.arange(probe.shape[0]), counts)
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    rows = order[starts + np.arange(total)]
    keep = live[rows]
    for lc, rc in zip(left_cols[1:], right_cols[1:]):
        keep &= lc[left_idx] == rc[rows]
    return left_idx[keep], rows[keep]


def _filter_rows(
    columns: list[np.ndarray],
    rows,
    scalars: list[tuple[int, int]],
    repeats: list[tuple[int, int]],
    keep: np.ndarray,
) -> np.ndarray:
    """AND into *keep* which of *rows* (an index array, or ``slice(None)``
    for all) hold each ``(position, code)`` scalar and agree on each
    ``(position, first position)`` repeated variable."""
    for position, code in scalars:
        keep &= columns[position][rows] == code
    for position, first in repeats:
        keep &= columns[position][rows] == columns[first][rows]
    return keep


class _RelationColumns:
    """One relation's encoded columns, stamped with the version they show.

    Rows are never removed: a delete clears the row's ``live`` flag and
    every scan and probe skips dead rows.  ``indexes`` maps a column
    position to its stable sorted index ``(row order, sorted codes)``,
    built on first use; dead rows stay in it.
    """

    __slots__ = ("version", "columns", "facts", "live", "indexes")

    def __init__(self, version: int, columns: list[np.ndarray], facts: list[Fact]):
        self.version = version
        self.columns = columns
        self.facts = facts
        self.live = np.ones(len(facts), dtype=bool)
        self.indexes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def index(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        built = self.indexes.get(position)
        if built is None:
            built = self.indexes[position] = _sorted_index(self.columns[position])
        return built

    def lookup(self, position: int, code: int) -> np.ndarray:
        """The rows (dead ones included) holding *code* at *position*,
        ascending."""
        order, keys = self.index(position)
        lo = np.searchsorted(keys, code, side="left")
        return order[lo : np.searchsorted(keys, code, side="right")]

    def select(
        self, scalars: list[tuple[int, int]], repeats: list[tuple[int, int]]
    ) -> np.ndarray:
        """The live rows, ascending, passing :func:`_filter_rows`; with a
        scalar to look up, only its rows are checked."""
        if scalars:
            position, code = scalars[0]
            rows = self.lookup(position, code)
            keep = _filter_rows(self.columns, rows, scalars[1:], repeats, self.live[rows])
            return rows[keep]
        keep = _filter_rows(self.columns, slice(None), scalars, repeats, self.live.copy())
        return np.nonzero(keep)[0]

    def probe(
        self,
        left_cols: list[np.ndarray],
        positions: list[int],
        scalars: list[tuple[int, int]],
        repeats: list[tuple[int, int]],
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The (left row, live row) pairs agreeing on *positions* and
        passing :func:`_filter_rows`, by :func:`_probe_join` (``None``
        when it would cover more rows than the relation holds)."""
        right_cols = [self.columns[p] for p in positions]
        pairs = _probe_join(
            left_cols, right_cols, self.index(positions[0]), self.live, len(self.facts)
        )
        if pairs is None or not (scalars or repeats):
            return pairs
        left_idx, rows = pairs
        keep = _filter_rows(
            self.columns, rows, scalars, repeats, np.ones(rows.shape[0], dtype=bool)
        )
        return left_idx[keep], rows[keep]

    def tombstone(self, fact: Fact, codes: Mapping[Constant, int]) -> bool:
        """Clear *fact*'s live row; ``False`` when it has none."""
        position = next(iter(self.indexes), 0)
        code = codes.get(fact.values[position])
        if code is None:
            return False
        for row in self.lookup(position, code).tolist():
            if self.live[row] and self.facts[row] == fact:
                self.live[row] = False
                return True
        return False


class _Store:
    """Per-database columnar state: the dictionary and relation caches.

    The backend subscribes it to its database (through a
    :class:`_StoreListener`) so that deletes tombstone rows instead of
    invalidating whole relations.
    """

    def __init__(self) -> None:
        self.codes: dict[Constant, int] = {}
        self.constants: list[Constant] = []
        self.relations: dict[str, _RelationColumns] = {}
        #: the delete announced by the last ``before_change``, with the
        #: relation version it started from
        self._pending: Optional[tuple[Fact, int]] = None

    def encode(self, value: Constant) -> int:
        code = self.codes.get(value)
        if code is None:
            code = len(self.constants)
            self.codes[value] = code
            self.constants.append(value)
        return code

    def before_change(self, database: Database, edit: Edit) -> None:
        name = edit.fact.relation
        if edit.kind is EditKind.DELETE and name in self.relations:
            self._pending = (edit.fact, database.relation_version(name))
        else:
            self._pending = None

    def after_change(self, database: Database, edit: Edit) -> None:
        name = edit.fact.relation
        cached = self.relations.get(name)
        if cached is not None:
            self._catch_up(database, name, cached)

    def _catch_up(self, database: Database, name: str, cached: _RelationColumns) -> bool:
        """Bring *cached* to the current version by tombstoning the one
        announced delete, if that delete is the only change it missed."""
        version = database.relation_version(name)
        if cached.version == version:
            return True
        pending = self._pending
        if pending is None or pending[0].relation != name:
            return False
        self._pending = None
        fact, before = pending
        if (
            before != cached.version
            or version != before + 1
            or fact in database
            or not cached.tombstone(fact, self.codes)
        ):
            return False
        cached.version = version
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("backend.columnar.tombstones")
        return True

    def relation(self, database: Database, name: str) -> _RelationColumns:
        cached = self.relations.get(name)
        if cached is not None and self._catch_up(database, name, cached):
            return cached
        version = database.relation_version(name)
        facts = list(database.facts(name))
        arity = database.schema.arity(name)
        columns = [np.empty(len(facts), dtype=np.int64) for _ in range(arity)]
        encode = self.encode
        for row, f in enumerate(facts):
            for position, value in enumerate(f.values):
                columns[position][row] = encode(value)
        self.relations[name] = built = _RelationColumns(version, columns, facts)
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("backend.columnar.builds")
            tel.count("backend.columnar.rows_encoded", len(facts))
        return built


class _BindingTable:
    """The running join state: variable code columns + atom provenance."""

    def __init__(self, n_atoms: int) -> None:
        self.vars: dict[Var, np.ndarray] = {}
        self.atom_rows: list[Optional[np.ndarray]] = [None] * n_atoms
        self.size = -1  # -1: the unit table (no atom joined yet)

    def reindex(self, idx: np.ndarray) -> None:
        self.vars = {v: col[idx] for v, col in self.vars.items()}
        self.atom_rows = [
            col[idx] if col is not None else None for col in self.atom_rows
        ]
        self.size = idx.shape[0]

    def mask(self, keep: np.ndarray) -> None:
        if keep.all():
            return
        self.reindex(np.nonzero(keep)[0])


def _atom_pairs(
    table: _BindingTable,
    relation: _RelationColumns,
    first_pos: Mapping[Var, int],
    shared: list[Var],
    scalars: list[tuple[int, int]],
    repeats: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """The (table row, relation row) pairs that bind one atom.

    A table small next to the relation probes the relation's sorted
    index on the first shared variable; otherwise the relation's rows
    are filtered by mask and sort-joined with the table (or, with
    nothing shared, crossed with it).  The unit table (no atom joined
    yet) counts as one row.
    """
    tel = _TELEMETRY
    if shared and _probe_pays(table.size, len(relation.facts)):
        pairs = relation.probe(
            [table.vars[v] for v in shared],
            [first_pos[v] for v in shared],
            scalars,
            repeats,
        )
        if pairs is not None:
            if tel.enabled:
                tel.count("backend.columnar.probe_joins")
            return pairs
    candidates = relation.select(scalars, repeats)
    if table.size < 0:
        return np.zeros(candidates.shape[0], dtype=np.intp), candidates
    if shared:
        if tel.enabled:
            tel.count("backend.columnar.sort_joins")
        left_idx, right_idx = _equi_join(
            [table.vars[v] for v in shared],
            [relation.columns[first_pos[v]][candidates] for v in shared],
        )
        return left_idx, candidates[right_idx]
    # no shared variables: cartesian expansion
    return (
        np.repeat(np.arange(table.size), candidates.shape[0]),
        np.tile(candidates, table.size),
    )


class _StoreListener(DatabaseListener):
    """Forwards one database's edits to a :class:`_Store` it does not own."""

    def __init__(self, store: _Store, database: Database) -> None:
        self._store = weakref.ref(store)
        self._database = weakref.ref(database)

    def _target(self, database: Database) -> Optional[_Store]:
        store = self._store()
        if store is None or database is not self._database():
            # a dead store, or a deep copy of the database that copied
            # this listener along: stop listening there
            database.unsubscribe(self)
            return None
        return store

    def before_change(self, database: Database, edit: Edit) -> None:
        store = self._target(database)
        if store is not None:
            store.before_change(database, edit)

    def after_change(self, database: Database, edit: Edit) -> None:
        store = self._target(database)
        if store is not None:
            store.after_change(database, edit)


def _unsubscribe(database_ref: weakref.ref, listener: DatabaseListener) -> None:
    database = database_ref()
    if database is not None:
        database.unsubscribe(listener)


class ColumnarBackend(EvalBackend):
    """Numpy columnar hash-join evaluation (see the module docstring)."""

    name = "columnar"
    capabilities = Capabilities(negation=True, inequalities=True)

    def __init__(self) -> None:
        #: id(database) -> (weakref, store); entries die with the database.
        self._stores: dict[int, tuple[weakref.ref, _Store]] = {}

    # ------------------------------------------------------------------
    # store plumbing
    # ------------------------------------------------------------------
    def _store(self, database: Database) -> _Store:
        key = id(database)
        entry = self._stores.get(key)
        if entry is not None and entry[0]() is database:
            return entry[1]
        for stale, (ref, _) in list(self._stores.items()):
            if ref() is None:
                del self._stores[stale]
        store = _Store()
        database_ref = weakref.ref(database)
        listener = _StoreListener(store, database)
        database.subscribe(listener)
        # the database holds the listener, never the store: when this
        # backend (and with it the store) goes away, so does the listener
        weakref.finalize(store, _unsubscribe, database_ref, listener).atexit = False
        self._stores[key] = (database_ref, store)
        return store

    # ------------------------------------------------------------------
    # the join
    # ------------------------------------------------------------------
    def _join(
        self,
        query: Query,
        database: Database,
        partial: Optional[Mapping[Var, Constant]] = None,
    ) -> Optional[_BindingTable]:
        """The binding table of all valid assignments extending *partial*
        (``None`` when a ground predicate already fails)."""
        query.validate(database.schema)
        store = self._store(database)
        partial = dict(partial or {})
        partial_codes = {v: store.encode(c) for v, c in partial.items()}

        table = _BindingTable(len(query.atoms))
        pending_ineqs = list(query.inequalities)

        def bound_vars() -> set[Var]:
            return set(table.vars) | set(partial_codes)

        def side_column(term) -> Optional[np.ndarray]:
            """A term as a code column over the current table (None if
            the term is a constant — handled by the caller)."""
            if isinstance(term, Var):
                col = table.vars.get(term)
                if col is not None:
                    return col
                return np.full(max(table.size, 0), partial_codes[term], dtype=np.int64)
            return None

        def apply_ready_inequalities() -> bool:
            nonlocal pending_ineqs
            still: list = []
            for ineq in pending_ineqs:
                known = bound_vars()
                if any(isinstance(t, Var) and t not in known for t in (ineq.left, ineq.right)):
                    still.append(ineq)
                    continue
                if ineq.is_ground() or not (ineq.variables() & set(table.vars)):
                    # both sides constants (possibly via partial): one check
                    value = ineq.substitute(partial).holds({})
                    if value is False:
                        return False
                    continue
                left = side_column(ineq.left)
                right = side_column(ineq.right)
                if left is None:
                    left = np.full(table.size, store.encode(ineq.left), dtype=np.int64)
                if right is None:
                    right = np.full(table.size, store.encode(ineq.right), dtype=np.int64)
                table.mask(left != right)
            pending_ineqs = still
            return True

        # ground predicates that involve no table columns yet
        if not apply_ready_inequalities():
            return None

        remaining = list(range(len(query.atoms)))
        while remaining:
            known = bound_vars()
            best = min(
                remaining,
                key=lambda i: (
                    -sum(
                        1
                        for t in query.atoms[i].terms
                        if not isinstance(t, Var) or t in known
                    ),
                    database.size(query.atoms[i].relation),
                ),
            )
            remaining.remove(best)
            atom = query.atoms[best]
            relation = store.relation(database, atom.relation)
            cols = relation.columns
            scalars: list[tuple[int, int]] = []
            repeats: list[tuple[int, int]] = []
            first_pos: dict[Var, int] = {}
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Var):
                    scalars.append((position, store.encode(term)))
                elif term in first_pos:
                    repeats.append((position, first_pos[term]))
                else:
                    first_pos[term] = position
                    if term not in table.vars and term in partial_codes:
                        scalars.append((position, partial_codes[term]))
            shared = [v for v in first_pos if v in table.vars]
            left_idx, rows = _atom_pairs(table, relation, first_pos, shared, scalars, repeats)
            table.reindex(left_idx)
            table.atom_rows[best] = rows
            for v, position in first_pos.items():
                if v not in shared:
                    table.vars[v] = cols[position][rows]
            if not apply_ready_inequalities():
                return None
            if table.size == 0:
                break

        if table.size < 0:  # pragma: no cover - queries always have atoms
            table.size = 0
        if table.size and query.negated_atoms:
            self._apply_negations(query, database, store, table, partial_codes)
        return table

    def _apply_negations(
        self,
        query: Query,
        database: Database,
        store: _Store,
        table: _BindingTable,
        partial_codes: dict[Var, int],
    ) -> None:
        """Anti-join each negated atom against the binding table."""
        bound = set(table.vars) | set(partial_codes)
        for atom in query.negated_atoms:
            relation = store.relation(database, atom.relation)
            cols = relation.columns
            keep = relation.live.copy()
            shared_first: dict[Var, int] = {}
            local_first: dict[Var, int] = {}
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Var):
                    keep &= cols[position] == store.encode(term)
                    continue
                first = shared_first if term in bound else local_first
                if term in first:
                    keep &= cols[position] == cols[first[term]]
                else:
                    first[term] = position
            candidates = np.nonzero(keep)[0]
            if not shared_first:
                if candidates.shape[0]:
                    table.reindex(np.empty(0, dtype=np.int64))
                continue
            if candidates.shape[0] == 0:
                continue
            shared = list(shared_first)
            left_cols = []
            for v in shared:
                col = table.vars.get(v)
                if col is None:
                    col = np.full(table.size, partial_codes[v], dtype=np.int64)
                left_cols.append(col)
            right_cols = [cols[shared_first[v]][candidates] for v in shared]
            table.mask(~_semi_mask(left_cols, right_cols))
            if table.size == 0:
                return

    # ------------------------------------------------------------------
    # the backend surface
    # ------------------------------------------------------------------
    def _decode_head(
        self,
        query: Query,
        store: _Store,
        table: _BindingTable,
        partial_codes: Mapping[Var, int],
    ) -> np.ndarray:
        """The head projection as an (n_rows, len(head)) code matrix.

        A boolean query (empty head — e.g. a denial-constraint check)
        projects to a zero-width matrix: every surviving row decodes to
        the empty answer ``()``.
        """
        if not query.head:
            return np.empty((table.size, 0), dtype=np.int64)
        columns = []
        for term in query.head:
            if isinstance(term, Var):
                col = table.vars.get(term)
                if col is None:
                    col = np.full(table.size, partial_codes[term], dtype=np.int64)
            else:
                col = np.full(table.size, store.encode(term), dtype=np.int64)
            columns.append(col)
        return np.stack(columns, axis=1)

    def evaluate(self, query: Query, database: Database) -> set[Answer]:
        with _TELEMETRY.span("backend.evaluate", backend=self.name, query=query.name):
            table = self._join(query, database)
            if table is None or table.size == 0:
                return set()
            store = self._store(database)
            head = self._decode_head(query, store, table, {})
            unique = np.unique(head, axis=0)
            decode = store.constants
            return {tuple(decode[code] for code in row) for row in unique.tolist()}

    def run(self, query: Query, database: Database) -> EvalResult:
        with _TELEMETRY.span("backend.run", backend=self.name, query=query.name):
            result = EvalResult()
            table = self._join(query, database)
            if table is None or table.size == 0:
                return result
            store = self._store(database)
            decode = store.constants
            head = self._decode_head(query, store, table, {})
            if head.shape[1]:
                distinct, inverse = np.unique(head, axis=0, return_inverse=True)
                answers = [tuple(decode[code] for code in row) for row in distinct.tolist()]
                answer_of_row = inverse.reshape(-1)
            else:  # a boolean query: every row is the empty answer
                answers = [()]
                answer_of_row = np.zeros(table.size, dtype=np.intp)
            # one witness per row, decoded through each atom's fact list;
            # the (answer, witness) pairs are counted at C speed
            atom_facts = [store.relation(database, atom.relation).facts for atom in query.atoms]
            per_atom = [
                map(facts.__getitem__, rows.tolist())
                for facts, rows in zip(atom_facts, table.atom_rows)
            ]
            witnesses = map(frozenset, zip(*per_atom))
            counters = [Counter() for _ in answers]
            for (a, witness), n in Counter(zip(answer_of_row.tolist(), witnesses)).items():
                counters[a][witness] = n
            support = np.bincount(answer_of_row, minlength=len(answers)).tolist()
            result.answers = set(answers)
            result.support = Counter(dict(zip(answers, support)))
            result.witness_support = dict(zip(answers, counters))
            return result

    def assignments(
        self,
        query: Query,
        database: Database,
        partial: Optional[Mapping[Var, Constant]] = None,
    ) -> Iterator[Assignment]:
        partial = dict(partial or {})
        table = self._join(query, database, partial)
        if table is None or table.size == 0:
            return iter(())
        store = self._store(database)
        decode = store.constants
        names = list(table.vars)
        matrix = (
            np.stack([table.vars[v] for v in names], axis=1).tolist()
            if names
            else [[] for _ in range(table.size)]
        )
        extras = {v: c for v, c in partial.items() if v not in table.vars}

        def generate() -> Iterator[Assignment]:
            for row in matrix:
                assignment: Assignment = dict(extras)
                for v, code in zip(names, row):
                    assignment[v] = decode[code]
                yield assignment

        return generate()

    def is_satisfiable(
        self, query: Query, database: Database, partial: Mapping[Var, Constant]
    ) -> bool:
        table = self._join(query, database, dict(partial))
        return table is not None and table.size > 0


def columnar_evaluate(query: Query, database: Database) -> set[Answer]:
    """``Q(D)`` on a fresh columnar store (convenience / tests)."""
    return ColumnarBackend().evaluate(query, database)


__all__ = ["ColumnarBackend", "columnar_evaluate"]
