"""Tests for composite questions (§9 extension)."""

import random

import pytest

from repro.core.composite import crowd_remove_wrong_answer_composite
from repro.core.deletion import QOCODeletion, crowd_remove_wrong_answer
from repro.datasets.figure1 import ESP_EU, figure1_dirty
from repro.db.tuples import fact
from repro.oracle.aggregator import MajorityVote
from repro.oracle.base import AccountingOracle
from repro.oracle.crowd import Crowd
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import CATEGORY_VERIFY_TUPLES, QuestionKind
from repro.query.evaluator import evaluate
from repro.workloads import EX1


class TestOracleCompositeSupport:
    def test_perfect_oracle_default_loop(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        facts = [fact("teams", "ESP", "EU"), fact("teams", "BRA", "EU")]
        assert oracle.verify_facts(facts) == {facts[0]: True, facts[1]: False}

    def test_accounting_logs_one_interaction(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        facts = [fact("teams", "ESP", "EU"), fact("teams", "BRA", "EU")]
        oracle.verify_facts(facts)
        assert oracle.log.question_count == 1
        assert oracle.log.cost_of([QuestionKind.VERIFY_FACTS]) == 1

    def test_accounting_caches_per_fact(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        f1, f2 = fact("teams", "ESP", "EU"), fact("teams", "BRA", "EU")
        oracle.verify_fact(f1)
        oracle.verify_facts([f1, f2])  # only f2 goes to the backend
        oracle.verify_facts([f1, f2])  # fully cached, free
        assert oracle.log.question_count == 2

    def test_empty_batch_free(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        assert oracle.verify_facts([]) == {}
        assert oracle.log.question_count == 0

    def test_crowd_composite_majority(self, fig1_gt):
        crowd = Crowd([PerfectOracle(fig1_gt)] * 3, MajorityVote(3))
        facts = [fact("teams", "ESP", "EU"), fact("teams", "BRA", "EU")]
        replies = crowd.verify_facts(facts)
        assert replies == {facts[0]: True, facts[1]: False}
        # early stop: 2 members x 2 facts = 4 member answers
        assert crowd.stats.answers[CATEGORY_VERIFY_TUPLES] == 4


class TestCompositeDeletion:
    def test_removes_wrong_answer(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        edits = crowd_remove_wrong_answer_composite(
            EX1, fig1_dirty, ("ESP",), oracle, batch_size=3, rng=random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)
        for edit in edits:
            assert edit.fact not in fig1_gt

    def test_fewer_interactions_than_single_question(self, fig1_gt):
        def interactions(batch_size):
            db = figure1_dirty()
            oracle = AccountingOracle(PerfectOracle(fig1_gt))
            if batch_size == 1:
                crowd_remove_wrong_answer(
                    EX1, db, ("ESP",), oracle, QOCODeletion(), random.Random(0)
                )
            else:
                crowd_remove_wrong_answer_composite(
                    EX1, db, ("ESP",), oracle, batch_size, random.Random(0)
                )
            return oracle.log.question_count

        assert interactions(3) < interactions(1)

    def test_batch_size_one_equivalent_outcome(self, fig1_gt):
        db = figure1_dirty()
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        crowd_remove_wrong_answer_composite(
            EX1, db, ("ESP",), oracle, batch_size=1, rng=random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, db)

    def test_true_shared_fact_survives(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        crowd_remove_wrong_answer_composite(
            EX1, fig1_dirty, ("ESP",), oracle, batch_size=4, rng=random.Random(0)
        )
        assert ESP_EU in fig1_dirty

    def test_invalid_batch_size(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        with pytest.raises(ValueError):
            crowd_remove_wrong_answer_composite(
                EX1, fig1_dirty, ("ESP",), oracle, batch_size=0
            )

    def test_works_with_crowd_backend(self, fig1_dirty, fig1_gt):
        crowd = Crowd([PerfectOracle(fig1_gt)] * 3, MajorityVote(3))
        oracle = AccountingOracle(crowd)
        crowd_remove_wrong_answer_composite(
            EX1, fig1_dirty, ("ESP",), oracle, batch_size=3, rng=random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)

    def test_no_singleton_inference_under_negation(self):
        from repro.core.deletion import DeletionError
        from repro.db.database import Database
        from repro.db.schema import Schema
        from repro.query.parser import parse_query

        # 1 is wrong only because the blocker c(1) is missing; its one
        # witness b(1) is true and must not be inferred false
        query = parse_query("q(x) :- b(x), not c(x).")
        schema = Schema.from_dict({"b": ["p"], "c": ["p"]})
        truth = Database(schema, [fact("b", 1), fact("c", 1)])
        dirty = Database(schema, [fact("b", 1)])
        oracle = AccountingOracle(PerfectOracle(truth))
        with pytest.raises(DeletionError):
            crowd_remove_wrong_answer_composite(query, dirty, (1,), oracle)
        assert fact("b", 1) in dirty
