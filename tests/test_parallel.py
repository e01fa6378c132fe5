"""Tests for the parallel (round-based) main loop (Appendix B)."""

import random

import pytest

from repro.core.deletion import QOCODeletion, crowd_remove_wrong_answer, removal_task
from repro.core.insertion import InsertionConfig, insertion_task
from repro.core.parallel import ParallelQOCO, RoundScheduler
from repro.core.qoco import QOCO, QOCOConfig
from repro.core.registry import REGISTRY
from repro.core.split import ProvenanceSplit
from repro.datasets.figure1 import figure1_dirty
from repro.db.tuples import fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import QuestionKind
from repro.query.evaluator import Evaluator, evaluate
from repro.workloads import EX1, EX2, Q3


@pytest.fixture
def oracle(fig1_gt):
    return AccountingOracle(PerfectOracle(fig1_gt))


def qoco_removal(witnesses):
    return removal_task(EX1, ("ESP",), witnesses, QOCODeletion(), random.Random(0))


class TestRemovalTask:
    @pytest.mark.parametrize("name", REGISTRY.names("deletion"))
    def test_single_task_equivalent_to_algorithm1(self, fig1_gt, name):
        # one task run in rounds and the synchronous driver are the same
        # Algorithm 1: the same edits from the same questions
        scheduled_db, driven_db = figure1_dirty(), figure1_dirty()
        witnesses = [
            frozenset(w) for w in Evaluator(EX1, scheduled_db).witnesses(("ESP",))
        ]
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        task = removal_task(
            EX1, ("ESP",), witnesses, REGISTRY.resolve("deletion", name),
            random.Random(0),
        )
        (edits,) = RoundScheduler(oracle).run([task])
        assert edits is not None
        scheduled_db.apply(edits)
        assert ("ESP",) not in evaluate(EX1, scheduled_db)
        for edit in edits:
            assert edit.fact not in fig1_gt

        driven = AccountingOracle(PerfectOracle(fig1_gt))
        driven_edits = crowd_remove_wrong_answer(
            EX1, driven_db, ("ESP",), driven,
            strategy=REGISTRY.resolve("deletion", name), rng=random.Random(0),
        )
        assert driven_edits == edits
        assert driven.log.records == oracle.log.records
        assert oracle.log.question_count > 0

    def test_failed_task_reports_none(self, fig1_gt, oracle):
        # an empty witness can never be destroyed: the task fails and the
        # scheduler reports None in its slot (others keep their results)
        bad = qoco_removal([frozenset()])
        good = qoco_removal([])
        scheduler = RoundScheduler(oracle)
        results = scheduler.run([bad, good])
        assert results[0] is None
        assert results[1] == []

    def test_yes_oracle_resolved_by_singleton_rule(self, fig1_gt):
        # Like Algorithm 1, the singleton rule closes out even a lying
        # yes-oracle: the last fact of a witness is deleted by inference.
        class YesOracle(PerfectOracle):
            def verify_fact(self, fact):
                return True

        witnesses = [frozenset({fact("teams", "A", "B"), fact("teams", "C", "D")})]
        scheduler = RoundScheduler(AccountingOracle(YesOracle(fig1_gt)))
        (result,) = scheduler.run([qoco_removal(witnesses)])
        assert result is not None
        assert len(result) == 1  # one inferred deletion finished the job

    def test_rounds_bounded_by_max_task_questions(self, fig1_dirty, fig1_gt, oracle):
        # two parallel removals share rounds
        fig1_dirty.insert(fact("games", "01.01.1999", "FRA", "GER", "Final", "9:0"))
        fig1_dirty.insert(fact("games", "02.01.1999", "FRA", "ITA", "Final", "9:0"))
        evaluator = Evaluator(EX1, fig1_dirty)
        tasks = [
            removal_task(
                EX1, answer, [frozenset(w) for w in evaluator.witnesses(answer)],
                QOCODeletion(), random.Random(0),
            )
            for answer in (("ESP",), ("FRA",))
        ]
        scheduler = RoundScheduler(oracle)
        results = scheduler.run(tasks)
        assert all(r is not None for r in results)
        total_questions = oracle.log.question_count
        assert scheduler.rounds < total_questions  # parallelism paid off
        assert scheduler.peak_width == 2


class TestInsertionTask:
    def test_single_task_inserts_witness(self, fig1_dirty, fig1_gt, oracle):
        task = insertion_task(
            EX2, fig1_dirty, ("Andrea Pirlo",),
            ProvenanceSplit(), random.Random(0), InsertionConfig(),
        )
        scheduler = RoundScheduler(oracle)
        (edits,) = scheduler.run([task])
        assert edits is not None
        assert ("Andrea Pirlo",) in evaluate(EX2, fig1_dirty)

    def test_already_present_answer_is_free(self, fig1_dirty, fig1_gt, oracle):
        task = insertion_task(
            EX2, fig1_dirty, ("Mario Goetze",),
            ProvenanceSplit(), random.Random(0), InsertionConfig(),
        )
        scheduler = RoundScheduler(oracle)
        (edits,) = scheduler.run([task])
        assert edits == []
        assert oracle.log.question_count == 0


class TestParallelQOCO:
    def test_same_outcome_as_sequential(self, fig1_gt):
        sequential_db = figure1_dirty()
        QOCO(
            sequential_db, AccountingOracle(PerfectOracle(fig1_gt)), QOCOConfig(seed=0)
        ).clean(EX1)

        parallel_db = figure1_dirty()
        report = ParallelQOCO(
            parallel_db, AccountingOracle(PerfectOracle(fig1_gt)), seed=0
        ).clean(EX1)
        assert evaluate(EX1, parallel_db) == evaluate(EX1, sequential_db)
        assert evaluate(EX1, parallel_db) == evaluate(EX1, fig1_gt)
        assert report.converged

    def test_rounds_fewer_than_questions(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        report = ParallelQOCO(fig1_dirty, oracle, seed=0).clean(EX1)
        assert report.rounds < oracle.log.question_count

    def test_side_effects_cleaned_across_iterations(self, fig1_dirty, fig1_gt):
        # the Totti example again, through the parallel loop
        report = ParallelQOCO(
            fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)), seed=0
        ).clean(EX2)
        assert evaluate(EX2, fig1_dirty) == evaluate(EX2, fig1_gt)
        assert ("Francesco Totti",) in report.wrong_answers_removed

    def test_on_worldcup_scale(self, worldcup_gt):
        from repro.datasets.noise import inject_result_errors

        errors = inject_result_errors(
            worldcup_gt, Q3, n_wrong=4, n_missing=4, rng=random.Random(55)
        )
        dirty = errors.dirty.copy()
        oracle = AccountingOracle(PerfectOracle(worldcup_gt))
        report = ParallelQOCO(dirty, oracle, seed=55).clean(Q3)
        assert evaluate(Q3, dirty) == evaluate(Q3, worldcup_gt)
        assert report.converged
        # with ~40 answers verified in one wave, rounds collapse
        assert report.rounds < oracle.log.question_count / 2

    def test_completion_width_batches_missing_answers(self, worldcup_gt):
        from repro.datasets.noise import inject_result_errors

        errors = inject_result_errors(
            worldcup_gt, Q3, n_wrong=0, n_missing=4, rng=random.Random(56)
        )
        dirty = errors.dirty.copy()
        oracle = AccountingOracle(PerfectOracle(worldcup_gt))
        report = ParallelQOCO(
            dirty, oracle, completion_width=8, seed=56
        ).clean(Q3)
        assert evaluate(Q3, dirty) == evaluate(Q3, worldcup_gt)
        assert len(report.missing_answers_added) >= 1

    def test_clean_database_single_round(self, fig1_gt):
        db = fig1_gt.copy()
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        report = ParallelQOCO(db, oracle, seed=0).clean(EX1)
        assert report.edits == []
        assert report.rounds <= 3


class TestParallelQOCOConfig:
    """The round loop honours every QOCOConfig field the sequential one does."""

    @pytest.fixture
    def instance(self, worldcup_gt):
        from repro.datasets.noise import inject_result_errors

        errors = inject_result_errors(worldcup_gt, Q3, 8, 2, random.Random(5))
        return errors.dirty.copy(), worldcup_gt

    def test_random_deletion_verifies_every_witness_fact(self, instance):
        dirty, truth = instance
        wrong = evaluate(Q3, dirty) - evaluate(Q3, truth)
        evaluator = Evaluator(Q3, dirty)
        witness_facts = {
            str(f) for answer in wrong for w in evaluator.witnesses(answer) for f in w
        }
        oracle = AccountingOracle(PerfectOracle(truth))
        report = ParallelQOCO(dirty, oracle, deletion="random", seed=3).clean(Q3)
        assert report.converged
        assert evaluate(Q3, dirty) == evaluate(Q3, truth)
        verified = {
            r.detail for r in oracle.log.records if r.kind is QuestionKind.VERIFY_FACT
        }
        assert witness_facts <= verified

    def test_minimize_query_cleans_the_core(self, fig1_dirty, fig1_gt):
        from repro.query.minimize import minimize
        from repro.query.parser import parse_query

        bloated = parse_query(
            'q(x) :- games(d1, x, y, "Final", u1), games(d2, x, z, "Final", u2), '
            'games(d3, x, w, "Final", u3), teams(x, "EU"), d1 != d2.'
        )
        core = minimize(bloated)
        assert len(core.atoms) < len(bloated.atoms)
        posted = []

        class Recording(RoundScheduler):
            def answer_batch(self, requests):
                posted.extend(r[1] for r in requests if r[0] in ("verify_answer", "complete_result"))
                return super().answer_batch(requests)

        report = ParallelQOCO(
            fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)),
            minimize_query=True, scheduler_factory=Recording, seed=0,
        ).clean(bloated)
        assert report.converged
        assert evaluate(bloated, fig1_dirty) == evaluate(bloated, fig1_gt)
        assert posted and all(query == core for query in posted)
