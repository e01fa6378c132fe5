"""Tests for cleaning under unions of conjunctive queries."""

import random

import pytest

from repro.core.ucq import (
    UCQCleaner,
    add_missing_answer_union,
    remove_wrong_answer_union,
)
from repro.db.tuples import fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.union import parse_union

#: Finalists (winner or runner-up) over the Figure 1 fragment.
FINALISTS = parse_union(
    """
    finalists(x) :- games(d, x, y, "Final", r).
    finalists(x) :- games(d, y, x, "Final", r).
    """
)


@pytest.fixture
def oracle(fig1_gt):
    return AccountingOracle(PerfectOracle(fig1_gt))


class TestUnionDeletion:
    def test_wrong_answer_removed_from_both_disjuncts(self, fig1_dirty, fig1_gt, oracle):
        # In Figure 1's dirty DB, ESP "won" finals it never played; ESP is
        # still a genuine finalist (2010), so the union answer is true.
        # Fabricate an answer wrong under both disjuncts instead: add fake
        # games featuring a non-existent team.
        fake1 = fact("games", "01.01.1999", "XXX", "GER", "Final", "1:0")
        fake2 = fact("games", "02.01.1999", "GER", "XXX", "Final", "2:0")
        fig1_dirty.insert(fake1)
        fig1_dirty.insert(fake2)
        assert ("XXX",) in FINALISTS.answers(fig1_dirty)

        edits = remove_wrong_answer_union(
            FINALISTS, fig1_dirty, ("XXX",), oracle, rng=random.Random(0)
        )
        assert ("XXX",) not in FINALISTS.answers(fig1_dirty)
        assert {e.fact for e in edits} == {fake1, fake2}

    def test_only_false_facts_deleted(self, fig1_dirty, fig1_gt, oracle):
        fig1_dirty.insert(fact("games", "01.01.1999", "XXX", "GER", "Final", "1:0"))
        edits = remove_wrong_answer_union(
            FINALISTS, fig1_dirty, ("XXX",), oracle, rng=random.Random(0)
        )
        for edit in edits:
            assert edit.fact not in fig1_gt

    def test_no_singleton_inference_when_a_disjunct_negates(self):
        from repro.core.deletion import DeletionError
        from repro.db.database import Database
        from repro.db.schema import Schema

        # 1 is wrong only because the blocker c(1) is missing; its one
        # witness b(1) is true and must not be inferred false
        union = parse_union("q(x) :- a(x).\nq(x) :- b(x), not c(x).")
        schema = Schema.from_dict({"a": ["p"], "b": ["p"], "c": ["p"]})
        truth = Database(schema, [fact("b", 1), fact("c", 1)])
        dirty = Database(schema, [fact("b", 1)])
        oracle = AccountingOracle(PerfectOracle(truth))
        with pytest.raises(DeletionError):
            remove_wrong_answer_union(union, dirty, (1,), oracle)
        assert fact("b", 1) in dirty


class TestUnionInsertion:
    def test_missing_answer_added_via_right_disjunct(self, fig1_dirty, fig1_gt, oracle):
        # FRA lost the 2006 final (true) but in the dirty DB loses nothing
        # after we remove that game; FRA is then a missing finalist.
        game_2006 = fact("games", "09.07.2006", "ITA", "FRA", "Final", "5:3")
        fig1_dirty.delete(game_2006)
        assert ("FRA",) not in FINALISTS.answers(fig1_dirty)

        edits = add_missing_answer_union(
            FINALISTS, fig1_dirty, ("FRA",), oracle, rng=random.Random(0)
        )
        assert ("FRA",) in FINALISTS.answers(fig1_dirty)
        for edit in edits:
            assert edit.fact in fig1_gt

    def test_probes_disjuncts_with_closed_questions(self, fig1_dirty, fig1_gt, oracle):
        fig1_dirty.delete(fact("games", "09.07.2006", "ITA", "FRA", "Final", "5:3"))
        add_missing_answer_union(
            FINALISTS, fig1_dirty, ("FRA",), oracle, rng=random.Random(0)
        )
        from repro.oracle.questions import QuestionKind

        assert oracle.log.count_of([QuestionKind.VERIFY_CANDIDATE]) >= 1

    def test_impossible_answer_raises(self, fig1_dirty, oracle):
        from repro.core.insertion import InsertionError

        with pytest.raises(InsertionError):
            add_missing_answer_union(
                FINALISTS, fig1_dirty, ("NOPE",), oracle, rng=random.Random(0)
            )


class TestUnionMainLoop:
    def test_clean_converges_to_union_ground_truth(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        # dirty finalists: includes nobody missing but ESP's fake games are
        # harmless (ESP is a true finalist); corrupt harder:
        fig1_dirty.insert(fact("games", "01.01.1999", "XXX", "GER", "Final", "1:0"))
        fig1_dirty.delete(fact("games", "09.07.2006", "ITA", "FRA", "Final", "5:3"))

        system = UCQCleaner(fig1_dirty, oracle, seed=0)
        report = system.clean(FINALISTS)
        assert report.converged
        assert FINALISTS.answers(fig1_dirty) == FINALISTS.answers(fig1_gt)

    def test_clean_noop_on_clean_db(self, fig1_gt):
        db = fig1_gt.copy()
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        report = UCQCleaner(db, oracle, seed=0).clean(FINALISTS)
        assert report.edits == []
        assert db == fig1_gt
