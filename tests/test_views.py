"""Tests for materialized views kept exact by ``ViewManager``."""

import random

import pytest

from repro.db.database import Database
from repro.db.edits import delete, insert
from repro.db.schema import Schema
from repro.db.tuples import fact
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.views.materialized import ViewManager
from repro.workloads import EX1


@pytest.fixture
def schema():
    return Schema.from_dict({"r": ["a", "b"], "s": ["b"]})


@pytest.fixture
def db(schema):
    return Database(
        schema,
        [fact("r", 1, 2), fact("r", 3, 2), fact("s", 2)],
    )


QUERY = parse_query("q(a) :- r(a, b), s(b).")


def _view(database, query=QUERY):
    return ViewManager(database).register(query)


class TestMaterializedView:
    """A registered view follows plain ``Database`` edits on its own."""

    def test_initial_materialization(self, db):
        view = _view(db)
        assert view.answers() == {(1,), (3,)}
        assert view.support((1,)) == 1

    def test_insert_adds_answer(self, db):
        view = _view(db)
        db.insert(fact("r", 9, 2))
        assert view.answers() == {(1,), (3,), (9,)}
        assert view.support((9,)) == 1

    def test_insert_increases_support_without_new_answer(self, db):
        view = _view(db)
        db.insert(fact("s", 5))
        assert view.answers() == {(1,), (3,)}
        db.insert(fact("r", 1, 5))
        assert view.answers() == {(1,), (3,)}  # (1,) already present
        assert view.support((1,)) == 2

    def test_delete_decrements_support(self, db):
        view = _view(db)
        db.insert(fact("s", 5))
        db.insert(fact("r", 1, 5))
        db.delete(fact("r", 1, 5))
        assert view.answers() == {(1,), (3,)}
        assert view.support((1,)) == 1

    def test_delete_removes_answer(self, db):
        view = _view(db)
        db.delete(fact("r", 1, 2))
        assert view.answers() == {(3,)}
        assert view.support((1,)) == 0

    def test_shared_fact_deletion_removes_all(self, db):
        view = _view(db)
        db.delete(fact("s", 2))
        assert view.answers() == set()

    def test_self_join_dedup(self, schema):
        db = Database(schema, [fact("s", 2)])
        view = _view(db, parse_query("q(a) :- r(a, b), r(a, c), s(b)."))
        db.insert(fact("r", 1, 2))
        assert view.answers() == {(1,)}
        # one assignment (b=c=2), counted once despite two atom positions
        assert view.support((1,)) == 1

    def test_contains_and_len(self, db):
        view = _view(db)
        assert (1,) in view
        assert (99,) not in view
        assert len(view) == 2


class TestViewManager:
    def test_register_and_query(self, db):
        manager = ViewManager(db)
        view = manager.register(QUERY)
        assert manager.view("q") is view
        assert manager.names == ("q",)

    def test_duplicate_name_rejected(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        with pytest.raises(ValueError):
            manager.register(QUERY)

    def test_insert_routes_to_views(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        changed = manager.insert(fact("r", 9, 2))
        assert changed == {"q": {(9,)}}
        assert fact("r", 9, 2) in db

    def test_idempotent_insert_noop(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        # no-op edits emit the same per-view shape as real ones
        assert manager.insert(fact("r", 1, 2)) == {"q": set()}

    def test_delete_routes_to_views(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        changed = manager.delete(fact("s", 2))
        assert changed == {"q": {(1,), (3,)}}
        assert fact("s", 2) not in db

    def test_idempotent_delete_noop(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        assert manager.delete(fact("s", 99)) == {"q": set()}

    def test_apply_edit_sequence(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        changed = manager.apply(
            [insert(fact("r", 9, 2)), delete(fact("r", 1, 2))]
        )
        assert changed["q"] == {(9,), (1,)}

    def test_multiple_views(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        manager.register(parse_query("p(b) :- s(b)."), name="p")
        changed = manager.insert(fact("s", 7))
        assert changed["p"] == {(7,)}
        assert changed["q"] == set()

    def test_insert_revoking_negated_answers_is_reported(self, db):
        manager = ViewManager(db)
        view = manager.register(parse_query("q(a) :- r(a, b), not s(a)."))
        assert view.answers() == {(1,), (3,)}
        assert manager.insert(fact("s", 3)) == {"q": {(3,)}}
        assert view.answers() == {(1,)}

    def test_close_detaches_every_view(self, db):
        before = len(db._listeners)
        manager = ViewManager(db)
        view = manager.register(QUERY)
        manager.register(parse_query("p(b) :- s(b)."), name="p")
        assert len(db._listeners) == before + 2
        manager.close()
        assert len(db._listeners) == before
        manager.close()  # idempotent
        db.insert(fact("r", 9, 2))
        # a detached view is a snapshot that recomputes on read
        assert view.answers() == evaluate(QUERY, db)

    def test_with_block_detaches_every_view(self, db):
        before = len(db._listeners)
        with ViewManager(db) as manager:
            manager.register(QUERY)
            assert len(db._listeners) == before + 1
        assert len(db._listeners) == before


class TestNoOpEditDrift:
    """Regression: no-op edits must never drift the support counters."""

    def test_manager_noop_storm_keeps_views_exact(self, db):
        manager = ViewManager(db)
        view = manager.register(QUERY)
        for _ in range(3):
            manager.insert(fact("r", 1, 2))   # already present
            manager.delete(fact("s", 99))     # absent
        assert view.support((1,)) == 1
        assert view.answers() == evaluate(QUERY, db)


class TestIncrementalMatchesRecompute:
    def test_random_edit_sequences(self, schema):
        rng = random.Random(13)
        db = Database(schema)
        manager = ViewManager(db)
        view = manager.register(QUERY)
        pool = [fact("r", a, b) for a in range(4) for b in range(3)] + [
            fact("s", b) for b in range(3)
        ]
        for _ in range(300):
            victim = rng.choice(pool)
            if rng.random() < 0.5:
                manager.insert(victim)
            else:
                manager.delete(victim)
            assert view.answers() == evaluate(QUERY, db)

    def test_worldcup_cleaning_keeps_view_exact(self, worldcup_gt):
        from repro.core.qoco import QOCO, QOCOConfig
        from repro.datasets.noise import inject_result_errors
        from repro.oracle.base import AccountingOracle
        from repro.oracle.perfect import PerfectOracle

        errors = inject_result_errors(
            worldcup_gt, EX1, n_wrong=1, n_missing=1, rng=random.Random(3)
        )
        db = errors.dirty
        with ViewManager(db) as manager:
            view = manager.register(EX1)
            # the cleaning loop edits the managed database directly
            oracle = AccountingOracle(PerfectOracle(worldcup_gt))
            QOCO(db, oracle, QOCOConfig(seed=3)).clean(EX1)
            assert view.answers() == evaluate(EX1, db)
            assert view.answers() == evaluate(EX1, worldcup_gt)
