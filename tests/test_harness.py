"""Tests for the experiment harness measurements."""

import pytest

from repro.core.registry import RegistryError
from repro.experiments.harness import (
    BarMeasurement,
    deletion_upper_bound,
    insertion_upper_bound,
    plant_errors,
    run_deletion,
    run_insertion,
    run_mixed,
)
from repro.query.evaluator import Evaluator, evaluate
from repro.workloads import Q1, Q3


@pytest.fixture(scope="module")
def q1_errors(worldcup_gt):
    return plant_errors(worldcup_gt, Q1, n_wrong=2, n_missing=0, seed=42)


@pytest.fixture(scope="module")
def q1_missing(worldcup_gt):
    return plant_errors(worldcup_gt, Q1, n_wrong=0, n_missing=2, seed=43)


class TestBarMeasurement:
    def test_avoided_derivation(self):
        bar = BarMeasurement("deletion", "Q1", "QOCO", lower=5, questions=3, naive_upper=10)
        assert bar.avoided == 7
        assert bar.total == 15

    def test_avoided_clipped_at_zero(self):
        bar = BarMeasurement("x", "g", "a", lower=1, questions=20, naive_upper=10)
        assert bar.avoided == 0


class TestDeletionRun:
    def test_cleans_all_wrong_answers(self, worldcup_gt, q1_errors):
        run_deletion(worldcup_gt, Q1, q1_errors, "QOCO", seed=1)
        # the measurement works on a copy; the planted instance is intact
        assert evaluate(Q1, q1_errors.dirty) != evaluate(Q1, worldcup_gt)

    def test_lower_bound_is_result_size(self, worldcup_gt, q1_errors):
        bar = run_deletion(worldcup_gt, Q1, q1_errors, "QOCO", seed=1)
        assert bar.lower >= len(evaluate(Q1, q1_errors.dirty)) - len(
            q1_errors.wrong_answers
        )

    def test_upper_bound_counts_distinct_witness_facts(self, worldcup_gt, q1_errors):
        upper = deletion_upper_bound(Q1, q1_errors.dirty, q1_errors.wrong_answers)
        facts = set()
        evaluator = Evaluator(Q1, q1_errors.dirty)
        for answer in q1_errors.wrong_answers:
            for witness in evaluator.witnesses(answer):
                facts |= witness
        assert upper == len(facts)

    def test_qoco_at_most_random(self, worldcup_gt, q1_errors):
        qoco = run_deletion(worldcup_gt, Q1, q1_errors, "QOCO", seed=1)
        rand = run_deletion(worldcup_gt, Q1, q1_errors, "Random", seed=1)
        assert qoco.questions <= rand.questions

    def test_unknown_strategy_rejected(self, worldcup_gt, q1_errors):
        with pytest.raises(RegistryError):
            run_deletion(worldcup_gt, Q1, q1_errors, "Nope", seed=1)


class TestInsertionRun:
    def test_identifies_and_inserts(self, worldcup_gt, q1_missing):
        bar = run_insertion(worldcup_gt, Q1, q1_missing, "Provenance", seed=1)
        assert bar.lower >= 1
        # questions may legitimately be 0: when the deleted fact grounds
        # out in Q|t (e.g. teams(TCH, EU)), Algorithm 2's TrueTuples step
        # re-inserts it without consulting the crowd.
        assert bar.questions >= 0

    def test_upper_bound_counts_embedded_variables(self, worldcup_gt, q1_missing):
        upper = insertion_upper_bound(Q1, q1_missing.missing_answers)
        # Q1|t has 6 variables left after binding x.
        assert upper == 6 * len(q1_missing.missing_answers)

    def test_split_beats_naive_bound(self, worldcup_gt, q1_missing):
        bar = run_insertion(worldcup_gt, Q1, q1_missing, "Provenance", seed=1)
        assert bar.questions < bar.lower + bar.naive_upper


class TestMixedRun:
    def test_mixed_categories_sum(self, worldcup_gt):
        errors = plant_errors(worldcup_gt, Q3, n_wrong=2, n_missing=2, seed=7)
        mixed = run_mixed(worldcup_gt, Q3, errors, seed=7)
        # Category costs equal lower+questions up to the terminating
        # COMPL(Q(D)) probes (one "nothing missing" reply per iteration).
        difference = sum(mixed.categories.values()) - (
            mixed.bar.lower + mixed.bar.questions
        )
        assert 0 <= difference <= 3

    def test_mixed_converges(self, worldcup_gt):
        errors = plant_errors(worldcup_gt, Q3, n_wrong=2, n_missing=2, seed=8)
        mixed = run_mixed(worldcup_gt, Q3, errors, seed=8)
        assert mixed.bar.questions > 0
