"""Tests for queries with safe negation (§9 extension)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoco_strategies import CONSTANTS, databases, facts, queries
from repro.core.negation import (
    Option,
    add_missing_answer_with_negation,
    remove_wrong_answer_with_negation,
)
from repro.db.database import Database
from repro.db.edits import EditKind
from repro.db.schema import Schema
from repro.db.tuples import Fact, fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.ast import QueryError, Var
from repro.query.evaluator import evaluate, naive_evaluate
from repro.query.parser import parse_query

#: Teams that reached a final but never won one ("nearly men").
NEVER_WON = parse_query(
    'q(x) :- games(d, y, x, "Final", r), not won(x).'
)
# helper relation: won(team) — teams with at least one title


@pytest.fixture
def schema():
    return Schema.from_dict(
        {"games": ["d", "w", "l", "s", "r"], "won": ["team"]}
    )


def build(schema, games, winners):
    db = Database(schema)
    for row in games:
        db.insert(fact("games", *row))
    for team in winners:
        db.insert(fact("won", team))
    return db


@pytest.fixture
def gt(schema):
    games = [
        ("d1", "GER", "ARG", "Final", "1:0"),
        ("d2", "ESP", "NED", "Final", "1:0"),
        ("d3", "GER", "NED", "Final", "2:1"),
    ]
    return build(schema, games, winners=["GER", "ESP"])


class TestParsing:
    def test_not_keyword(self):
        q = parse_query("q(x) :- r(x), not s(x).")
        assert len(q.atoms) == 1
        assert len(q.negated_atoms) == 1
        assert q.negated_atoms[0].relation == "s"

    def test_round_trip(self):
        q = parse_query('q(x) :- r(x, y), not s(x, "c"), x != y.')
        assert parse_query(str(q)) == q

    def test_local_wildcards_allowed(self):
        # z occurs only under the negation: a NOT EXISTS wildcard.
        q = parse_query("q(x) :- r(x), not s(z).")
        assert q.negated_atoms[0].variables() == {Var("z")}

    def test_wildcard_shared_across_negations_rejected(self):
        with pytest.raises(QueryError):
            parse_query("q(x) :- r(x), not s(z), not t(z, x).")

    def test_not_must_precede_atom(self):
        with pytest.raises(Exception):
            parse_query("q(x) :- r(x), not x != y.")


class TestEvaluation:
    def test_negation_filters(self, gt):
        answers = evaluate(NEVER_WON, gt)
        assert answers == {("ARG",), ("NED",)}  # ESP and GER have titles

    def test_matches_naive(self, gt):
        assert evaluate(NEVER_WON, gt) == naive_evaluate(NEVER_WON, gt)

    def test_constant_negated_atom(self, schema):
        db = build(schema, [("d1", "A", "B", "Final", "1:0")], winners=["A"])
        q = parse_query('q(x) :- games(d, x, y, s, r), not won("ZZZ").')
        assert evaluate(q, db) == {("A",)}
        db.insert(fact("won", "ZZZ"))
        assert evaluate(q, db) == set()

    def test_empty_negated_relation(self, schema):
        db = build(schema, [("d1", "A", "B", "Final", "1:0")], winners=[])
        assert evaluate(NEVER_WON, db) == {("B",)}

    def test_validate_checks_negated_atoms(self, gt):
        q = parse_query("q(x) :- games(d, x, y, s, r), not nosuch(x).")
        with pytest.raises(Exception):
            evaluate(q, gt)

    def test_not_exists_wildcard(self, schema):
        # losers who never won *any* final, wildcard over the opponent
        db = build(
            schema,
            [
                ("d1", "GER", "ARG", "Final", "1:0"),
                ("d2", "GER", "NED", "Final", "2:1"),
            ],
            winners=[],
        )
        q = parse_query(
            'q(x) :- games(d, y, x, "Final", r), not games(e, x, z, "Final", u).'
        )
        # ARG and NED never appear as winners of any final
        assert evaluate(q, db) == {("ARG",), ("NED",)}
        db.insert(fact("games", "d3", "ARG", "BRA", "Final", "1:0"))
        assert evaluate(q, db) == {("NED",), ("BRA",)}

    def test_bound_variable_repeated_under_negation(self, schema):
        db = build(schema, [("d1", "A", "B", "Final", "1:0")], winners=[])
        # not games(e, x, x, ...) — blocks x only if x beat itself
        q = parse_query(
            'q(x) :- games(d, x, y, "Final", r), not games(e, x, x, s, u).'
        )
        assert evaluate(q, db) == {("A",)}
        db.insert(fact("games", "d9", "A", "A", "Group", "0:0"))
        assert evaluate(q, db) == set()

    def test_repeated_local_wildcard_must_be_consistent(self, schema):
        db = build(schema, [("d1", "A", "B", "Final", "1:0")], winners=[])
        # not games(e, z, z, ...) — blocks everything only if ANY team
        # ever beat itself (z repeated under the negation)
        q = parse_query(
            'q(x) :- games(d, x, y, "Final", r), not games(e, z, z, s, u).'
        )
        assert evaluate(q, db) == {("A",)}
        db.insert(fact("games", "d9", "C", "C", "Group", "0:0"))
        assert evaluate(q, db) == set()


class TestRemoveWrongAnswer:
    def test_wrong_answer_from_missing_negated_fact(self, schema, gt):
        # Dirty DB lacks won(ESP): NED is correct but ESP appears wrongly
        # as a never-winner... build: ESP lost a final too.
        games = [
            ("d1", "GER", "ARG", "Final", "1:0"),
            ("d2", "ESP", "NED", "Final", "1:0"),
            ("d3", "GER", "ESP", "Final", "2:1"),
        ]
        gt_db = build(schema, games, winners=["GER", "ESP"])
        dirty = build(schema, games, winners=["GER"])  # won(ESP) missing
        assert ("ESP",) in evaluate(NEVER_WON, dirty)
        assert ("ESP",) not in evaluate(NEVER_WON, gt_db)

        oracle = AccountingOracle(PerfectOracle(gt_db))
        edits = remove_wrong_answer_with_negation(
            NEVER_WON, dirty, ("ESP",), oracle, random.Random(0)
        )
        assert ("ESP",) not in evaluate(NEVER_WON, dirty)
        # the fix was an insertion of the true won(ESP) fact
        assert fact("won", "ESP") in dirty
        assert any(e.fact == fact("won", "ESP") for e in edits)

    def test_wrong_answer_from_false_positive_fact(self, schema):
        games_true = [("d1", "GER", "ARG", "Final", "1:0")]
        gt_db = build(schema, games_true, winners=["GER"])
        dirty = build(
            schema,
            games_true + [("d9", "GER", "BRA", "Final", "3:0")],  # fake game
            winners=["GER"],
        )
        assert ("BRA",) in evaluate(NEVER_WON, dirty)
        oracle = AccountingOracle(PerfectOracle(gt_db))
        remove_wrong_answer_with_negation(
            NEVER_WON, dirty, ("BRA",), oracle, random.Random(0)
        )
        assert ("BRA",) not in evaluate(NEVER_WON, dirty)
        assert fact("games", "d9", "GER", "BRA", "Final", "3:0") not in dirty

    def test_only_truth_preserving_edits(self, schema):
        games = [("d1", "GER", "ARG", "Final", "1:0")]
        gt_db = build(schema, games, winners=["GER", "ARG"])
        dirty = build(schema, games, winners=["GER"])
        oracle = AccountingOracle(PerfectOracle(gt_db))
        edits = remove_wrong_answer_with_negation(
            NEVER_WON, dirty, ("ARG",), oracle, random.Random(0)
        )
        for edit in edits:
            from repro.db.edits import EditKind

            if edit.kind is EditKind.INSERT:
                assert edit.fact in gt_db
            else:
                assert edit.fact not in gt_db


class TestAddMissingAnswer:
    def test_missing_because_of_false_blocker(self, schema):
        # NED never won, but the dirty DB has a false won(NED) fact that
        # blocks the negated atom.
        games = [("d1", "GER", "NED", "Final", "1:0")]
        gt_db = build(schema, games, winners=["GER"])
        dirty = build(schema, games, winners=["GER", "NED"])  # won(NED) false
        assert ("NED",) not in evaluate(NEVER_WON, dirty)

        oracle = AccountingOracle(PerfectOracle(gt_db))
        edits = add_missing_answer_with_negation(
            NEVER_WON, dirty, ("NED",), oracle, rng=random.Random(0)
        )
        assert ("NED",) in evaluate(NEVER_WON, dirty)
        assert fact("won", "NED") not in dirty

    def test_missing_because_of_missing_positive_fact(self, schema):
        games = [("d1", "GER", "NED", "Final", "1:0")]
        gt_db = build(schema, games, winners=["GER"])
        dirty = build(schema, [], winners=["GER"])  # the game is missing
        oracle = AccountingOracle(PerfectOracle(gt_db))
        add_missing_answer_with_negation(
            NEVER_WON, dirty, ("NED",), oracle, rng=random.Random(0)
        )
        assert ("NED",) in evaluate(NEVER_WON, dirty)

    def test_both_problems_at_once(self, schema):
        games = [("d1", "GER", "NED", "Final", "1:0")]
        gt_db = build(schema, games, winners=["GER"])
        dirty = build(schema, [], winners=["GER", "NED"])  # missing + blocker
        oracle = AccountingOracle(PerfectOracle(gt_db))
        add_missing_answer_with_negation(
            NEVER_WON, dirty, ("NED",), oracle, rng=random.Random(0)
        )
        assert ("NED",) in evaluate(NEVER_WON, dirty)


class TestOption:
    def test_edit_direction(self):
        f = fact("won", "X")
        assert str(Option("delete", f).edit()) == "won(X)-"
        assert str(Option("insert", f).edit()) == "won(X)+"

    def test_str(self):
        f = fact("won", "X")
        assert str(Option("delete", f)) == "won(X)-"


@st.composite
def blocked_instances(draw):
    """A negated query; a truth holding witnesses of its positive body,
    some of them blocked; and the truth with random facts dropped."""
    query = draw(queries(negation=True, min_negated=1))
    truth = draw(databases(max_size=8))
    body_vars = set().union(*(atom.variables() for atom in query.atoms))
    for _ in range(draw(st.integers(1, 3))):
        assignment = {v: draw(st.sampled_from(CONSTANTS)) for v in sorted(body_vars, key=str)}
        blockers = [atom for atom in query.negated_atoms if draw(st.booleans())]
        for atom in list(query.atoms) + blockers:
            wildcards = {
                v: draw(st.sampled_from(CONSTANTS))
                for v in sorted(atom.variables() - body_vars, key=str)
            }
            ground = atom.substitute({**assignment, **wildcards})
            truth.insert(Fact(ground.relation, tuple(ground.terms)))
    dirty = truth.copy()
    for dropped in draw(st.sets(st.sampled_from(sorted(truth, key=repr)))):
        dirty.delete(dropped)
    return query, truth, dirty


class TestCleaningLoopsKeepTrueFacts:
    """Theorem 4.5's singleton rule is off for negated queries: a wrong
    answer may only lack a blocker, so the last unverified fact of a
    witness can be true."""

    NEARLY = parse_query(
        'nearly(x) :- games(d, y, x, "Final", r), not champions(x).'
    )

    @staticmethod
    def with_champions(db):
        # figure 1 plus champions(team) for every final's winner
        from repro.db.schema import RelationSchema

        db.schema.add(RelationSchema("champions", ("team",)))
        extended = Database(db.schema, db)
        for game in extended.facts("games"):
            if game.values[3] == "Final":
                extended.insert(fact("champions", game.values[1]))
        return extended

    @pytest.mark.parametrize("loop", ["naive", "columnar", "parallel"])
    def test_figure1_finalists_who_never_won(self, loop):
        from repro.api import clean
        from repro.core.parallel import ParallelQOCO
        from repro.datasets import figure1_dirty, figure1_ground_truth

        truth = self.with_champions(figure1_ground_truth())
        dirty = self.with_champions(figure1_dirty())
        true_games = [g for g in dirty.facts("games") if g in truth]
        oracle = AccountingOracle(PerfectOracle(truth))
        if loop == "parallel":
            report = ParallelQOCO(dirty, oracle, seed=0).clean(self.NEARLY)
        else:
            report = clean(dirty, self.NEARLY, oracle, backend=loop, seed=0)
        # every witness of a wrong answer is true here: the answers stay
        # until a blocker can be inserted, and no true game is deleted
        assert all(g in dirty for g in true_games)
        assert report.edits == []
        assert not report.converged

    @settings(max_examples=200, deadline=None)
    @given(instance=blocked_instances(), inserts=st.lists(facts(), max_size=4))
    def test_no_loop_deletes_a_true_fact(self, instance, inserts):
        from repro.core.parallel import ParallelQOCO
        from repro.core.qoco import QOCO

        query, truth, dirty = instance
        for extra in inserts:
            dirty.insert(extra)
        for loop in (QOCO, ParallelQOCO):
            oracle = AccountingOracle(PerfectOracle(truth))
            report = loop(dirty.copy(), oracle, seed=0).clean(query)
            deleted = [e.fact for e in report.edits if e.kind is EditKind.DELETE]
            assert not [f for f in deleted if f in truth], loop.__name__
