"""Unit tests for Algorithm 1 (CrowdRemoveWrongAnswer) and baselines."""

import random

import pytest

from repro.core.deletion import (
    DeletionError,
    QOCODeletion,
    QOCOMinusDeletion,
    RandomDeletion,
    crowd_remove_wrong_answer,
)
from repro.core.registry import REGISTRY
from repro.datasets.figure1 import ESP_EU
from repro.db.edits import EditKind
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import QuestionKind
from repro.query.evaluator import evaluate
from repro.workloads import EX1


@pytest.fixture
def oracle(fig1_gt):
    return AccountingOracle(PerfectOracle(fig1_gt))


class TestQOCODeletion:
    def test_removes_wrong_answer(self, fig1_dirty, fig1_gt, oracle):
        assert ("ESP",) in evaluate(EX1, fig1_dirty)
        edits = crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)
        assert edits  # some deletions happened

    def test_only_false_facts_deleted(self, fig1_dirty, fig1_gt, oracle):
        edits = crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        for edit in edits:
            assert edit.kind is EditKind.DELETE
            assert edit.fact not in fig1_gt  # never deletes a true fact

    def test_true_shared_fact_survives(self, fig1_dirty, oracle):
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        assert ESP_EU in fig1_dirty  # Teams(ESP, EU) is true, must remain

    def test_first_question_is_most_frequent_fact(self, fig1_dirty, oracle):
        # Teams(ESP, EU) occurs in all six witnesses, so QOCO asks it first
        # (Example 4.6).
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        first = next(
            r for r in oracle.log.records if r.kind is QuestionKind.VERIFY_FACT
        )
        assert first.detail == str(ESP_EU)

    def test_question_count_example_4_6(self, fig1_dirty, oracle):
        # Example 4.6's trace: Teams(ESP,EU)? YES, then two of the four
        # game facts — after which the unique minimal hitting set rule
        # finishes the job.  Exact count depends on tie-breaking, but must
        # stay below the naive five questions.
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        assert oracle.log.cost_of([QuestionKind.VERIFY_FACT]) <= 4

    def test_unique_hitting_set_needs_no_questions(self, fig1_dirty, oracle):
        # Delete three of Spain's four "wins"; the single remaining
        # witness {game, teams} still needs one question, but once the
        # teams fact is verified the game is a singleton -> inferred.
        games = sorted(
            f
            for f in fig1_dirty.facts("games")
            if f.values[1] == "ESP" and f.values[0] != "11.07.2010"
        )
        for f in games[:2]:
            fig1_dirty.delete(f)
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)

    def test_inferred_facts_remembered(self, fig1_dirty, oracle):
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        # every deleted fact is now known-false to the oracle (asked or inferred)
        for edit in oracle.log.records:
            pass
        known_false = [
            f for f in fig1_dirty.facts("games") if oracle.known_fact_value(f) is False
        ]
        assert known_false == []  # deleted facts are gone from the db

    def test_no_apply_mode(self, fig1_dirty, oracle):
        before = fig1_dirty.copy()
        edits = crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0),
            apply=False,
        )
        assert fig1_dirty == before
        fig1_dirty.apply(edits)
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)


class TestBaselines:
    def test_qoco_minus_removes_answer(self, fig1_dirty, oracle):
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCOMinusDeletion(), random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)

    def test_random_removes_answer(self, fig1_dirty, oracle):
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, RandomDeletion(), random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)

    def test_random_verifies_every_witness_fact(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, RandomDeletion(), random.Random(0)
        )
        # 4 games + 1 teams fact = 5 distinct witness facts, all verified.
        assert oracle.log.cost_of([QuestionKind.VERIFY_FACT]) == 5

    def test_ordering_qoco_never_worse(self, fig1_gt):
        """QOCO <= QOCO- <= Random in questions on the Figure 1 instance."""
        from repro.datasets.figure1 import figure1_dirty

        costs = {}
        for name in REGISTRY.names("deletion"):
            oracle = AccountingOracle(PerfectOracle(fig1_gt))
            db = figure1_dirty()
            strategy = REGISTRY.resolve("deletion", name)
            crowd_remove_wrong_answer(
                EX1, db, ("ESP",), oracle, strategy, random.Random(0)
            )
            costs[name] = oracle.log.cost_of([QuestionKind.VERIFY_FACT])
        assert costs["qoco"] <= costs["qoco-"] <= costs["random"]


class TestEdgeCases:
    def test_answer_with_no_witnesses_is_noop(self, fig1_dirty, oracle):
        edits = crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("XXX",), oracle, QOCODeletion(), random.Random(0)
        )
        assert edits == []

    def test_lying_oracle_raises_deletion_error(self, fig1_dirty, fig1_gt):
        # An oracle that calls every fact true can never destroy a witness:
        # strategies without singleton inference must detect and fail.
        class YesOracle(PerfectOracle):
            def verify_fact(self, fact):
                return True

        oracle = AccountingOracle(YesOracle(fig1_gt))
        with pytest.raises(DeletionError):
            crowd_remove_wrong_answer(
                EX1, fig1_dirty, ("ESP",), oracle, QOCOMinusDeletion(), random.Random(0)
            )

    def test_qoco_singleton_rule_overrides_lying_oracle(self, fig1_dirty, fig1_gt):
        # QOCO proper still terminates under a yes-oracle: once all but one
        # fact of a witness are "verified" true, the singleton rule deletes
        # the last one without asking (Algorithm 1, lines 2-4).
        class YesOracle(PerfectOracle):
            def verify_fact(self, fact):
                return True

        oracle = AccountingOracle(YesOracle(fig1_gt))
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        assert ("ESP",) not in evaluate(EX1, fig1_dirty)

    def test_cached_knowledge_reused_across_calls(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        cost_first = oracle.log.total_cost
        # Re-running on an already-clean instance costs nothing new.
        crowd_remove_wrong_answer(
            EX1, fig1_dirty, ("ESP",), oracle, QOCODeletion(), random.Random(0)
        )
        assert oracle.log.total_cost == cost_first
