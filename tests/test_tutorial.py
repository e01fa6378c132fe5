"""The docs/tutorial.md walkthrough, executed end to end.

Keeps the tutorial honest: the movie example is built here exactly as
the document describes and every step must behave as narrated.
"""

import random

import pytest

from repro import (
    AccountingOracle,
    Crowd,
    ImperfectOracle,
    MajorityVote,
    PerfectOracle,
    QOCO,
    QOCOConfig,
)
from repro.core import ConstraintCleaner, MinCutSplit, QOCOMinusDeletion
from repro.db import (
    Database,
    ForeignKey,
    Key,
    ConstraintSet,
    RelationSchema,
    Schema,
    fact,
    load_csv,
    save_csv,
)
from repro.query import evaluate, parse_query
from repro.views import ViewManager


@pytest.fixture
def schema():
    return Schema(
        [
            RelationSchema("movies", ("title", "director", "year")),
            RelationSchema("awards", ("title", "award")),
        ]
    )


@pytest.fixture
def ground_truth(schema):
    return Database(
        schema,
        [
            fact("movies", "Alien", "Ridley Scott", 1979),
            fact("movies", "Blade Runner", "Ridley Scott", 1982),
            fact("movies", "Heat", "Michael Mann", 1995),
            fact("awards", "Alien", "Oscar-VFX"),
            fact("awards", "Blade Runner", "Hugo"),
        ],
    )


@pytest.fixture
def dirty(schema):
    return Database(
        schema,
        [
            fact("movies", "Alien", "Ridley Scott", 1979),
            fact("movies", "Blade Runner", "Ridley Scott", 1982),
            fact("movies", "Heat", "Michael Mann", 1995),
            fact("movies", "Heat 2", "Michael Mann", 1999),  # false
            fact("awards", "Alien", "Oscar-VFX"),
            # awards(Blade Runner, Hugo) missing
        ],
    )


AWARDED = parse_query("q(t, d) :- movies(t, d, y), awards(t, a).")
SNUBBED = parse_query("q(t) :- movies(t, d, y), not awards(t, a).")


class TestTutorialSteps:
    def test_step1_2_schema_queries(self, ground_truth):
        assert evaluate(AWARDED, ground_truth) == {
            ("Alien", "Ridley Scott"),
            ("Blade Runner", "Ridley Scott"),
        }
        assert evaluate(SNUBBED, ground_truth) == {("Heat",)}

    def test_step1_csv_round_trip(self, ground_truth, tmp_path):
        save_csv(ground_truth, tmp_path / "my_movies")
        assert load_csv(tmp_path / "my_movies") == ground_truth

    def test_step3_clean_against_ground_truth(self, dirty, ground_truth, tmp_path):
        oracle = AccountingOracle(PerfectOracle(ground_truth))
        report = QOCO(dirty, oracle).clean(AWARDED)
        assert evaluate(AWARDED, dirty) == evaluate(AWARDED, ground_truth)
        assert "wrong removed" in report.summary()
        oracle.log.save_json(tmp_path / "audit.json")
        assert (tmp_path / "audit.json").exists()

    def test_step5_crowd(self, dirty, ground_truth):
        members = [
            ImperfectOracle(ground_truth, 0.1, rng=random.Random(i))
            for i in range(3)
        ]
        crowd = Crowd(members, MajorityVote(sample_size=3))
        QOCO(dirty, AccountingOracle(crowd), QOCOConfig(seed=0)).clean(AWARDED)
        assert crowd.stats.total > 0

    def test_step6_strategy_config(self, dirty, ground_truth):
        config = QOCOConfig(deletion="qoco-", split="mincut", seed=7)
        oracle = AccountingOracle(PerfectOracle(ground_truth))
        cleaner = QOCO(dirty, oracle, config)
        assert isinstance(cleaner.deletion_strategy, QOCOMinusDeletion)
        assert isinstance(cleaner.split_strategy, MinCutSplit)
        cleaner.clean(AWARDED)
        assert evaluate(AWARDED, dirty) == evaluate(AWARDED, ground_truth)

    def test_step7_constraints(self, dirty, ground_truth):
        constraints = ConstraintSet(
            keys=[Key("movies", (0,))],
            foreign_keys=[ForeignKey("awards", (0,), "movies", (0,))],
        )
        dirty.insert(fact("awards", "Ghost Movie", "Oscar"))  # dangling
        cleaner = ConstraintCleaner(
            dirty, AccountingOracle(PerfectOracle(ground_truth)), constraints
        )
        cleaner.repair()
        assert constraints.is_satisfied(dirty)

    def test_step8_view_monitoring(self, dirty, ground_truth):
        with ViewManager(dirty) as manager:
            view = manager.register(AWARDED)
            oracle = AccountingOracle(PerfectOracle(ground_truth))
            QOCO(dirty, oracle).clean(AWARDED)
            assert view.answers() == evaluate(AWARDED, dirty)
            assert view.answers() == evaluate(AWARDED, ground_truth)

    def test_negation_cleaning_on_tutorial_data(self, dirty, ground_truth):
        from repro.core import remove_wrong_answer_with_negation

        # "Blade Runner" shows as snubbed in the dirty DB because its
        # award row is missing; the two-sided removal inserts it.
        assert ("Blade Runner",) in evaluate(SNUBBED, dirty)
        oracle = AccountingOracle(PerfectOracle(ground_truth))
        remove_wrong_answer_with_negation(
            SNUBBED, dirty, ("Blade Runner",), oracle, random.Random(0)
        )
        assert ("Blade Runner",) not in evaluate(SNUBBED, dirty)
        assert fact("awards", "Blade Runner", "Hugo") in dirty
