"""The columnar backend's delta-sized paths: index probes and tombstones.

``tests/test_backend_conformance.py`` pins the backend's results against
the reference engine.  This suite pins the machinery that keeps one
delta's cost proportional to its matches:

1. **Probe kernel** — on random code columns, the index probe returns
   exactly the (left row, right row) pairs of the sort-merge reference
   ``_equi_join`` over the live rows, in the same order.
2. **Edit replay at probe scale** — a worldcup instance large enough
   for the probe path, maintained through deletes and re-inserts with
   full ``EvalResult`` parity after every edit, and no re-encoding on a
   delete.
3. **Tombstone bookkeeping** — deletes the store did not see, aborted
   deletes, and deletes read before the store heard of them.
4. **Store lifetime** — throwaway backends leave no store and no
   listener behind on a long-lived database.
"""

from __future__ import annotations

import copy
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.constraints.violations import query_violations
from repro.datasets.worldcup import WorldCupConfig, worldcup_database
from repro.db.database import Database, DatabaseListener
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.query.backend import BackendEvaluator, NaiveBackend
from repro.query.columnar import (
    ColumnarBackend,
    _equi_join,
    _probe_join,
    _sorted_index,
    _Store,
)
from repro.query.incremental import IncrementalAnswers
from repro.query.parser import parse_query
from repro.telemetry import telemetry_session
from repro.workloads import Q3, Q4

_REFERENCE = NaiveBackend()


# ---------------------------------------------------------------------------
# 1. the probe kernel against the sort join
# ---------------------------------------------------------------------------
@st.composite
def join_inputs(draw):
    """Left and right key columns (one or two wide) over a five-code
    domain, so keys repeat, plus a live mask over the right rows."""
    width = draw(st.integers(1, 2))
    n_left = draw(st.integers(0, 25))
    n_right = draw(st.integers(0, 25))

    def column(n):
        return np.array(
            draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.int64
        )

    left = [column(n_left) for _ in range(width)]
    right = [column(n_right) for _ in range(width)]
    live = np.array(
        draw(st.lists(st.booleans(), min_size=n_right, max_size=n_right)), dtype=bool
    )
    return left, right, live


class TestProbeKernel:
    @settings(max_examples=500, deadline=None)
    @given(join_inputs())
    def test_probe_yields_the_sort_join_pairs_in_order(self, inputs):
        left, right, live = inputs
        rows = np.nonzero(live)[0]
        ref_left, ref_right = _equi_join(left, [c[rows] for c in right])
        got_left, got_right = _probe_join(left, right, _sorted_index(right[0]), live)
        assert got_left.tolist() == ref_left.tolist()
        assert got_right.tolist() == rows[ref_right].tolist()
        pairs = list(zip(got_left.tolist(), got_right.tolist()))
        assert pairs == sorted(pairs)  # left-major, then ascending right row

    @settings(max_examples=100, deadline=None)
    @given(join_inputs())
    def test_limit_bounds_the_probed_ranges(self, inputs):
        left, right, live = inputs
        index = _sorted_index(right[0])
        probed = sum(int((right[0] == key).sum()) for key in left[0].tolist())
        assert _probe_join(left, right, index, live, limit=probed) is not None
        if probed:
            assert _probe_join(left, right, index, live, limit=probed - 1) is None


# ---------------------------------------------------------------------------
# 2. incremental edit replay at probe scale
# ---------------------------------------------------------------------------
WORLDCUP = WorldCupConfig(players_per_team=6, group_games_per_cup=4)


def _assert_view_matches_reference(view, backend, query, database):
    reference = _REFERENCE.run(query, database)
    assert backend.run(query, database) == reference
    assert view.answers() == reference.answers
    # the maintained counters are the view's EvalResult
    assert view._support == reference.support
    assert view._witness_support == reference.witness_support


@pytest.mark.parametrize("query", [Q3, Q4], ids=["Q3", "Q4-self-join"])
def test_edit_replay_at_probe_scale(query):
    database = worldcup_database(WORLDCUP)
    rng = random.Random(11)
    victims = rng.sample(sorted(database.facts("teams")), 4) + rng.sample(
        sorted(database.facts("games")), 8
    )
    rng.shuffle(victims)
    backend = ColumnarBackend()
    with telemetry_session() as (hub, _):
        view = IncrementalAnswers(
            query, database, evaluator_factory=lambda q, d: BackendEvaluator(q, d, backend)
        )
        for fact in victims:
            encoded = hub.counter("backend.columnar.rows_encoded")
            assert database.delete(fact)
            _assert_view_matches_reference(view, backend, query, database)
            assert hub.counter("backend.columnar.rows_encoded") == encoded
        assert hub.counter("backend.columnar.tombstones") == len(victims)
        for fact in reversed(victims):
            assert database.insert(fact)
            _assert_view_matches_reference(view, backend, query, database)
        assert hub.counter("backend.columnar.probe_joins") > 0
        assert hub.counter("backend.columnar.sort_joins") > 0
        view.close()


# ---------------------------------------------------------------------------
# 3. tombstone bookkeeping
# ---------------------------------------------------------------------------
SCHEMA = Schema([RelationSchema("r", ("a", "b")), RelationSchema("s", ("b",))])
NEGATED = parse_query("q(x) :- r(x, y), not s(y).")
POSITIVE = parse_query("q(x, z) :- r(x, y), r(y, z).")


def _chain_database(n: int = 40) -> Database:
    facts = [Fact("r", (f"n{i}", f"n{(i * 7) % n}")) for i in range(n)]
    facts += [Fact("s", (f"n{i}",)) for i in range(0, n, 3)]
    return Database(SCHEMA, facts)


def _assert_conformant(backend, query, database):
    assert backend.run(query, database) == _REFERENCE.run(query, database)


def test_deletes_between_reads_are_tombstoned_not_reencoded():
    database = _chain_database()
    backend = ColumnarBackend()
    with telemetry_session() as (hub, _):
        _assert_conformant(backend, POSITIVE, database)
        builds = hub.counter("backend.columnar.builds")
        for fact in sorted(database.facts("r"))[:5]:
            database.delete(fact)
        _assert_conformant(backend, POSITIVE, database)
        assert hub.counter("backend.columnar.builds") == builds
        assert hub.counter("backend.columnar.tombstones") == 5


def test_an_insert_rebuilds_the_relation():
    database = _chain_database()
    backend = ColumnarBackend()
    with telemetry_session() as (hub, _):
        _assert_conformant(backend, POSITIVE, database)
        builds = hub.counter("backend.columnar.builds")
        database.delete(sorted(database.facts("r"))[0])
        database.insert(Fact("r", ("n1", "n2")))
        _assert_conformant(backend, POSITIVE, database)
        assert hub.counter("backend.columnar.builds") == builds + 1


@pytest.mark.parametrize("seen", [True, False], ids=["seen", "unseen"])
def test_an_aborted_delete_is_not_tombstoned(seen):
    database = _chain_database()
    backend = ColumnarBackend()
    _assert_conformant(backend, POSITIVE, database)
    doomed, kept = sorted(database.facts("r"))[:2]

    class Veto(DatabaseListener):
        # subscribed after the store, so the store has already heard of
        # the delete this listener aborts
        def before_change(self, database, edit):
            if edit.fact == kept:
                raise RuntimeError("vetoed")

    veto = Veto()
    database.subscribe(veto)
    with pytest.raises(RuntimeError):
        database.delete(kept)
    database.unsubscribe(veto)
    assert kept in database
    # the next delete either replaces the store's stale announcement or,
    # made behind its back, lands exactly one version past it
    store_listeners = [] if seen else list(database._listeners)
    for listener in store_listeners:
        database.unsubscribe(listener)
    database.delete(doomed)
    for listener in store_listeners:
        database.subscribe(listener)
    _assert_conformant(backend, POSITIVE, database)


def test_a_delete_read_before_the_store_hears_of_it():
    # the view subscribes before the backend's store exists, so its
    # negation delta reads ``s`` after the delete lands but before the
    # store's own after_change runs
    database = _chain_database()
    backend = ColumnarBackend()
    with telemetry_session() as (hub, _):
        view = IncrementalAnswers(
            NEGATED, database, evaluator_factory=lambda q, d: BackendEvaluator(q, d, backend)
        )
        builds = hub.counter("backend.columnar.builds")
        for fact in sorted(database.facts("s"))[:4]:
            database.delete(fact)
            assert view.answers() == _REFERENCE.evaluate(NEGATED, database)
        _assert_conformant(backend, NEGATED, database)
        assert hub.counter("backend.columnar.builds") == builds
        assert hub.counter("backend.columnar.tombstones") == 4
        view.close()


def test_an_edit_the_store_did_not_see_rebuilds():
    database = _chain_database()
    announced, unseen = sorted(database.facts("r"))[:2]

    class Sneak(DatabaseListener):
        # runs before the store: on the announced delete it deletes one
        # more fact while the store is unsubscribed
        def after_change(self, database, edit):
            if edit.fact != announced:
                return
            others = [listener for listener in database._listeners if listener is not self]
            for listener in others:
                database.unsubscribe(listener)
            database.delete(unseen)
            for listener in others:
                database.subscribe(listener)

    database.subscribe(Sneak())
    backend = ColumnarBackend()
    _assert_conformant(backend, POSITIVE, database)
    with telemetry_session() as (hub, _):
        database.delete(announced)
        assert unseen not in database
        _assert_conformant(backend, POSITIVE, database)
        assert hub.counter("backend.columnar.builds") == 1
        assert hub.counter("backend.columnar.tombstones") == 0


def test_a_deep_copy_does_not_feed_the_original_store():
    database = _chain_database()
    backend = ColumnarBackend()
    _assert_conformant(backend, POSITIVE, database)
    twin = copy.deepcopy(database)  # copies the store's listener along
    first, second = sorted(database.facts("r"))[:2]
    twin.delete(first)
    database.delete(second)
    _assert_conformant(backend, POSITIVE, database)
    _assert_conformant(backend, POSITIVE, twin)
    assert len(twin._listeners) == 1  # its own store's, not the copy


# ---------------------------------------------------------------------------
# 4. store lifetime
# ---------------------------------------------------------------------------
@pytest.fixture
def created_stores(monkeypatch):
    """Weak references to every ``_Store`` built during the test."""
    stores: weakref.WeakSet = weakref.WeakSet()
    init = _Store.__init__

    def tracking_init(self):
        init(self)
        stores.add(self)

    monkeypatch.setattr(_Store, "__init__", tracking_init)
    return stores


def test_throwaway_backends_leave_no_store_or_listener(created_stores):
    database = worldcup_database(WORLDCUP)
    fds = ["games: date -> winner, runner_up, stage, result"]
    for _ in range(20):
        api.evaluate(database, Q3, backend="columnar")
        assert query_violations(database, fds, backend="columnar") == []
    assert len(created_stores) == 0
    assert database._listeners == []
    victim = sorted(database.facts("teams"))[0]
    database.delete(victim)  # nobody is left to notify
    assert database.bulk_load("teams", [victim.values]) == 1


def test_a_live_store_holds_one_listener_and_not_the_database(created_stores):
    database = _chain_database()
    backend = ColumnarBackend()
    for _ in range(5):
        backend.evaluate(POSITIVE, database)
    assert len(database._listeners) == 1
    ref = weakref.ref(database)
    del database
    gc.collect()
    assert ref() is None
    del backend
    assert len(created_stores) == 0
