"""Tests for the controlled noise model (Section 7.2 parameters)."""

import random

import pytest

from repro.datasets import figure1_ground_truth
from repro.datasets.noise import (
    NoiseError,
    NoiseSpec,
    fabricate_fact,
    inject_result_errors,
    make_dirty,
    measure_cleanliness,
    measure_skewness,
)
from repro.query.evaluator import evaluate
from repro.workloads import Q3, SOCCER_QUERIES


class TestNoiseSpec:
    def test_counts_skew_one(self):
        false, missing = NoiseSpec(cleanliness=0.8, skewness=1.0).counts(1000)
        assert missing == 0
        assert false == 250  # 1000/(1000+F) = 0.8

    def test_counts_skew_zero(self):
        false, missing = NoiseSpec(cleanliness=0.8, skewness=0.0).counts(1000)
        assert false == 0
        assert missing == 200  # (1000-M)/1000 = 0.8

    def test_counts_balanced(self):
        false, missing = NoiseSpec(cleanliness=0.8, skewness=0.5).counts(1000)
        # (G-M)/(G+F) = 0.8 and F = M
        assert false == missing
        assert abs((1000 - missing) / (1000 + false) - 0.8) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(cleanliness=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(skewness=1.5)


def _per_fact_sort_make_dirty(ground_truth, spec, rng):
    """``make_dirty`` as first written: every false fact re-sorts the
    ground truth by ``repr`` and every try re-sorts its column's domain.
    The draws it makes are the ones ``make_dirty`` must reproduce."""
    false_count, missing_count = spec.counts(len(ground_truth))
    dirty = ground_truth.copy()
    for fact in rng.sample(sorted(ground_truth, key=repr), missing_count):
        dirty.delete(fact)
    added = set()
    for _ in range(false_count):
        facts = sorted(ground_truth, key=repr)
        for _ in range(200):
            base = rng.choice(facts)
            position = rng.randrange(base.arity)
            pool = sorted(
                v
                for v in ground_truth.active_domain(base.relation, position)
                if v != base.values[position]
            )
            if not pool:
                continue
            fake = base.replace(position, rng.choice(pool))
            if fake not in ground_truth and fake not in added:
                break
        else:
            raise NoiseError("exhausted attempts to fabricate a false fact")
        added.add(fake)
        dirty.insert(fake)
    return dirty


class TestMakeDirty:
    @pytest.mark.parametrize("cleanliness", [0.6, 0.8, 0.95])
    @pytest.mark.parametrize("skewness", [0.0, 0.5, 1.0])
    def test_targets_hit(self, worldcup_gt, cleanliness, skewness):
        spec = NoiseSpec(cleanliness=cleanliness, skewness=skewness)
        dirty = make_dirty(worldcup_gt, spec, random.Random(7))
        assert measure_cleanliness(dirty, worldcup_gt) == pytest.approx(
            cleanliness, abs=0.02
        )
        assert measure_skewness(dirty, worldcup_gt) == pytest.approx(
            skewness, abs=0.02
        )

    def test_protected_facts_survive(self, worldcup_gt):
        protected = set(worldcup_gt.facts("stages"))
        dirty = make_dirty(
            worldcup_gt,
            NoiseSpec(cleanliness=0.6, skewness=0.0),
            random.Random(7),
            protected=protected,
        )
        for f in protected:
            assert f in dirty

    def test_ground_truth_untouched(self, worldcup_gt):
        size = len(worldcup_gt)
        make_dirty(worldcup_gt, NoiseSpec(), random.Random(0))
        assert len(worldcup_gt) == size

    def test_measures_on_identical_pair(self, worldcup_gt):
        assert measure_cleanliness(worldcup_gt, worldcup_gt) == 1.0
        assert measure_skewness(worldcup_gt, worldcup_gt) == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize(
        "cleanliness,skewness", [(0.6, 1.0), (0.7, 0.5), (0.8, 0.0), (0.9, 0.3)]
    )
    def test_matches_a_per_fact_sort_reference(self, seed, cleanliness, skewness):
        truth = figure1_ground_truth()
        spec = NoiseSpec(cleanliness=cleanliness, skewness=skewness)
        dirty = make_dirty(truth, spec, random.Random(seed))
        expected = _per_fact_sort_make_dirty(truth, spec, random.Random(seed))
        assert dirty.state_digest() == expected.state_digest()

    def test_worldcup_digest_is_unchanged(self, worldcup_gt):
        # recorded when make_dirty still sorted the ground truth once per
        # false fact; sorting once must draw the same dirty database
        spec = NoiseSpec(cleanliness=0.6, skewness=1.0)
        dirty = make_dirty(worldcup_gt, spec, random.Random(7))
        assert dirty.state_digest() == (
            "604fceb78f9fe701ca631714d09ef5c6a273e2261eca145e3fb051a92db2a64c"
        )

    def test_result_cleanliness(self, worldcup_gt):
        from repro.datasets.noise import measure_result_cleanliness

        assert measure_result_cleanliness(worldcup_gt, worldcup_gt, Q3) == 1.0
        errors = inject_result_errors(
            worldcup_gt, Q3, n_wrong=3, n_missing=3, rng=random.Random(9)
        )
        level = measure_result_cleanliness(errors.dirty, worldcup_gt, Q3)
        true_count = len(evaluate(Q3, worldcup_gt))
        expected = (true_count - 3) / (true_count + 3)
        assert level == pytest.approx(expected)


class TestFabricateFact:
    def test_fabricated_fact_is_false(self, worldcup_gt, rng):
        for _ in range(20):
            fake = fabricate_fact(worldcup_gt, set(), rng)
            assert fake not in worldcup_gt

    def test_respects_forbidden(self, worldcup_gt, rng):
        seen = set()
        for _ in range(20):
            fake = fabricate_fact(worldcup_gt, seen, rng)
            assert fake not in seen
            seen.add(fake)

    def test_relation_restriction(self, worldcup_gt, rng):
        fake = fabricate_fact(worldcup_gt, set(), rng, relation="teams")
        assert fake.relation == "teams"


class TestInjectResultErrors:
    @pytest.mark.parametrize("n_wrong,n_missing", [(0, 3), (3, 0), (3, 3)])
    def test_exact_error_counts(self, worldcup_gt, n_wrong, n_missing):
        result = inject_result_errors(
            worldcup_gt, Q3, n_wrong, n_missing, random.Random(11)
        )
        assert len(result.wrong_answers) == n_wrong
        assert len(result.missing_answers) >= min(
            n_missing, 1 if n_missing else 0
        )
        # wrong/missing sets consistent with actual evaluation
        true_answers = evaluate(Q3, worldcup_gt)
        dirty_answers = evaluate(Q3, result.dirty)
        assert result.wrong_answers == frozenset(dirty_answers - true_answers)
        assert result.missing_answers == frozenset(true_answers - dirty_answers)

    def test_no_errors_requested(self, worldcup_gt):
        result = inject_result_errors(worldcup_gt, Q3, 0, 0, random.Random(1))
        assert result.dirty == worldcup_gt

    def test_too_many_missing_rejected(self, worldcup_gt):
        total = len(evaluate(Q3, worldcup_gt))
        with pytest.raises(NoiseError):
            inject_result_errors(worldcup_gt, Q3, 0, total + 1, random.Random(1))

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q5"])
    def test_works_across_queries(self, worldcup_gt, name):
        query = SOCCER_QUERIES[name]
        result = inject_result_errors(worldcup_gt, query, 2, 2, random.Random(3))
        assert len(result.wrong_answers) == 2
        assert len(result.missing_answers) >= 1

    def test_deterministic(self, worldcup_gt):
        a = inject_result_errors(worldcup_gt, Q3, 2, 2, random.Random(5))
        b = inject_result_errors(worldcup_gt, Q3, 2, 2, random.Random(5))
        assert a.dirty == b.dirty
