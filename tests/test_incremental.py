"""The incremental evaluation engine: delta maintenance == from-scratch.

Four layers of checks:

1. unit behavior of :class:`IncrementalAnswers` (delta bookkeeping,
   negation revoke/restore, fallback snapshot mode, lifecycle);
2. the property-based differential — random schema/instance/query plus a
   random edit sequence; after *every* edit the maintained answers,
   supports, and witness sets must equal a from-scratch
   :class:`Evaluator`, including queries with inequalities and negated
   atoms;
3. whole-loop equivalence — ``QOCO`` / ``ParallelQOCO`` with
   ``use_incremental`` on and off produce bit-identical answers, edits,
   and oracle-question logs;
4. telemetry accounting of the new counters.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qoco_strategies import databases, facts, queries
from repro.core.parallel import ParallelQOCO
from repro.core.qoco import QOCO, QOCOConfig
from repro.db.database import Database
from repro.db.edits import EditKind
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact, fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.ast import Atom, Query, Var
from repro.query.evaluator import Evaluator, evaluate, instantiate_head
from repro.query.incremental import (
    IncrementalAnswers,
    assignments_using_fact,
    negation_binding,
    supports_incremental,
)
from repro.query.union import UnionQuery
from repro.telemetry import telemetry_session
from repro.workloads import EX1

DIFFERENTIAL_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def scratch_state(query: Query, database: Database):
    """(answers, support per answer, witness set per answer) from scratch."""
    evaluator = Evaluator(query, database)
    answers = evaluator.answers()
    support: dict = {}
    for assignment in evaluator.assignments():
        answer = instantiate_head(query, assignment)
        support[answer] = support.get(answer, 0) + 1
    witnesses = {
        answer: {frozenset(w) for w in evaluator.witnesses(answer)}
        for answer in answers
    }
    return answers, support, witnesses


def assert_fact_index_exact(engine: IncrementalAnswers):
    """The engine's fact index equals one rebuilt from its witness
    multiset: every live witness is indexed under each of its facts, and
    nothing else is (no entry, empty or not, for a fact that no live
    witness holds)."""
    rebuilt: dict = {}
    for answer, counter in engine._witness_support.items():
        for witness in counter:
            for f in witness:
                rebuilt.setdefault(f, set()).add((answer, witness))
    assert engine._by_fact == rebuilt


def assert_engine_matches_scratch(engine: IncrementalAnswers, query, database):
    answers, support, witnesses = scratch_state(query, database)
    assert engine.answers() == answers
    assert len(engine) == len(answers)
    for answer in answers:
        assert answer in engine
        assert engine.support(answer) == support[answer]
        assert set(engine.witnesses(answer)) == witnesses[answer]
        assert engine.witness_count(answer) == len(witnesses[answer])
    assert_fact_index_exact(engine)


# ---------------------------------------------------------------------------
# unit behavior
# ---------------------------------------------------------------------------


class TestIncrementalAnswersUnit:
    def test_tracks_simple_inserts_and_deletes(self, fig1_dirty):
        engine = IncrementalAnswers(EX1, fig1_dirty)
        new_game = fact("games", "01.01.2030", "GER", "BRA", "Final", "2:1")
        fig1_dirty.insert(new_game)
        assert_engine_matches_scratch(engine, EX1, fig1_dirty)
        fig1_dirty.delete(new_game)
        assert_engine_matches_scratch(engine, EX1, fig1_dirty)

    def test_noop_edits_change_nothing(self, fig1_dirty):
        engine = IncrementalAnswers(EX1, fig1_dirty)
        before = engine.answers()
        present = next(iter(fig1_dirty.facts("games")))
        fig1_dirty.insert(present)  # already there: no notification at all
        absent = fact("games", "09.09.2099", "ZZZ", "YYY", "Group", "0:0")
        fig1_dirty.delete(absent)
        assert engine.answers() == before

    def test_rejects_union_queries(self, fig1_dirty):
        union = UnionQuery((EX1,))
        assert not supports_incremental(union)
        with pytest.raises(TypeError):
            IncrementalAnswers(union, fig1_dirty)  # type: ignore[arg-type]

    def test_close_detaches_and_reads_still_correct(self, fig1_dirty):
        engine = IncrementalAnswers(EX1, fig1_dirty)
        engine.close()
        new_game = fact("games", "01.01.2030", "GER", "BRA", "Final", "2:1")
        fig1_dirty.insert(new_game)
        # no longer subscribed: the version stamp forces a full recompute
        assert_engine_matches_scratch(engine, EX1, fig1_dirty)
        engine.close()  # idempotent

    def test_context_manager_unsubscribes(self, fig1_dirty):
        with IncrementalAnswers(EX1, fig1_dirty) as engine:
            assert engine._subscribed
        assert not engine._subscribed

    def test_snapshot_mode_recomputes_on_version_change(self, fig1_dirty):
        engine = IncrementalAnswers(EX1, fig1_dirty, subscribe=False)
        with telemetry_session() as (hub, _):
            new_game = fact("games", "01.01.2030", "GER", "BRA", "Final", "2:1")
            fig1_dirty.insert(new_game)
            assert_engine_matches_scratch(engine, EX1, fig1_dirty)
            assert hub.counter("incremental.full_recompute") >= 1
            assert hub.counter("incremental.delta_applied") == 0


class TestNegationDeltas:
    SCHEMA = Schema(
        [RelationSchema("r", ("p", "q")), RelationSchema("b", ("p",))]
    )

    def _query(self) -> Query:
        # q(x) :- r(x, y), not b(x).
        return Query(
            head=(Var("x"),),
            atoms=(Atom("r", (Var("x"), Var("y"))),),
            negated_atoms=(Atom("b", (Var("x"),)),),
            name="neg",
        )

    def test_insert_into_negated_relation_revokes_answer(self):
        db = Database(self.SCHEMA, [Fact("r", ("1", "2"))])
        engine = IncrementalAnswers(self._query(), db)
        assert engine.answers() == {("1",)}
        with telemetry_session() as (hub, _):
            db.insert(Fact("b", ("1",)))
            assert engine.answers() == set()
            assert hub.counter("incremental.delta_applied") == 1

    def test_delete_from_negated_relation_restores_answer(self):
        db = Database(
            self.SCHEMA, [Fact("r", ("1", "2")), Fact("b", ("1",))]
        )
        engine = IncrementalAnswers(self._query(), db)
        assert engine.answers() == set()
        db.delete(Fact("b", ("1",)))
        assert engine.answers() == {("1",)}
        assert engine.witnesses(("1",)) == [frozenset({Fact("r", ("1", "2"))})]

    def test_restore_only_when_last_blocker_leaves(self):
        # two blocking facts match the same negated atom via a wildcard
        schema = Schema(
            [RelationSchema("r", ("p",)), RelationSchema("b", ("p", "q"))]
        )
        query = Query(
            head=(Var("x"),),
            atoms=(Atom("r", (Var("x"),)),),
            negated_atoms=(Atom("b", (Var("x"), Var("l1"))),),
            name="neg2",
        )
        db = Database(
            schema,
            [Fact("r", ("1",)), Fact("b", ("1", "a")), Fact("b", ("1", "b"))],
        )
        engine = IncrementalAnswers(query, db)
        assert engine.answers() == set()
        db.delete(Fact("b", ("1", "a")))
        assert engine.answers() == set()  # still blocked by ("1", "b")
        db.delete(Fact("b", ("1", "b")))
        assert engine.answers() == {("1",)}

    def test_relation_in_both_positive_and_negated_position(self):
        # q(x) :- r(x), not r(c): inserting r(c) both adds the witness
        # for answer (c,) and revokes every answer at once.
        schema = Schema([RelationSchema("r", ("p",))])
        query = Query(
            head=(Var("x"),),
            atoms=(Atom("r", (Var("x"),)),),
            negated_atoms=(Atom("r", ("c",)),),
            name="both",
        )
        db = Database(schema, [Fact("r", ("a",))])
        engine = IncrementalAnswers(query, db)
        assert engine.answers() == {("a",)}
        db.insert(Fact("r", ("c",)))
        assert_engine_matches_scratch(engine, query, db)
        assert engine.answers() == set()
        db.delete(Fact("r", ("c",)))
        assert engine.answers() == {("a",)}


class TestDeleteDropsIndexedWitnesses:
    """A delete reads its lost witnesses from the fact index; these are
    the shapes a random draw rarely reaches."""

    SCHEMA = Schema([RelationSchema("r", ("p", "q"))])

    def test_fact_matching_two_atoms_of_one_assignment(self):
        # q(x) :- r(x, y), r(x, z): r(a, b) grounds both atoms of the
        # assignment y = z = b, and one of two atoms of y = b, z = c and
        # of y = c, z = b, which share the witness {r(a, b), r(a, c)}.
        query = Query(
            head=(Var("x"),),
            atoms=(
                Atom("r", (Var("x"), Var("y"))),
                Atom("r", (Var("x"), Var("z"))),
            ),
            name="selfjoin",
        )
        db = Database(self.SCHEMA, [Fact("r", ("a", "b")), Fact("r", ("a", "c"))])
        engine = IncrementalAnswers(query, db)
        assert engine.support(("a",)) == 4
        with telemetry_session() as (hub, _):
            db.delete(Fact("r", ("a", "b")))
            # the three lost assignments count with their multiplicity
            assert hub.histogram("incremental.delta_assignments").total == 3
        assert engine.support(("a",)) == 1
        assert engine.witnesses(("a",)) == [frozenset({Fact("r", ("a", "c"))})]
        assert_engine_matches_scratch(engine, query, db)

    def test_witness_shared_by_two_answers(self):
        # q(x) :- r(x, y), r(y, x): {r(a, b), r(b, a)} witnesses both a
        # and b, so deleting either fact removes both answers.
        query = Query(
            head=(Var("x"),),
            atoms=(
                Atom("r", (Var("x"), Var("y"))),
                Atom("r", (Var("y"), Var("x"))),
            ),
            name="swap",
        )
        db = Database(
            self.SCHEMA,
            [Fact("r", ("a", "b")), Fact("r", ("b", "a")), Fact("r", ("c", "c"))],
        )
        engine = IncrementalAnswers(query, db)
        shared = frozenset({Fact("r", ("a", "b")), Fact("r", ("b", "a"))})
        assert engine.witnesses(("a",)) == engine.witnesses(("b",)) == [shared]
        assert_fact_index_exact(engine)
        db.delete(Fact("r", ("a", "b")))
        assert engine.answers() == {("c",)}
        assert Fact("r", ("b", "a")) not in engine._by_fact
        assert_engine_matches_scratch(engine, query, db)

    def test_delete_kills_and_restores_at_once(self):
        # q(x) :- r(x, y), not r(y, l): r(b, c) is the witness of b and
        # the only blocker of a; deleting it swaps the two answers.
        query = Query(
            head=(Var("x"),),
            atoms=(Atom("r", (Var("x"), Var("y"))),),
            negated_atoms=(Atom("r", (Var("y"), Var("l"))),),
            name="killrestore",
        )
        db = Database(self.SCHEMA, [Fact("r", ("a", "b")), Fact("r", ("b", "c"))])
        engine = IncrementalAnswers(query, db)
        assert engine.answers() == {("b",)}
        db.delete(Fact("r", ("b", "c")))
        assert engine.answers() == {("a",)}
        assert engine.witnesses(("a",)) == [frozenset({Fact("r", ("a", "b"))})]
        assert_engine_matches_scratch(engine, query, db)

    def test_columnar_clean_of_deletions_joins_once(self, monkeypatch):
        # Q3 over one worldcup replica with two fake champions: the engine
        # is built by one run(), and every delete reads the fact index
        # instead of enumerating assignments.
        from repro.datasets.worldcup import (
            WorldCupConfig,
            inject_fake_champions,
            worldcup_database,
            worldcup_years,
        )
        from repro.query import backend as backend_module
        from repro.query.columnar import ColumnarBackend
        from repro.workloads import Q3

        calls = Counter()

        class CountingColumnar(ColumnarBackend):
            def run(self, query, database):
                calls["run"] += 1
                return super().run(query, database)

            def assignments(self, query, database, partial=None):
                calls["assignments"] += 1
                return super().assignments(query, database, partial)

        monkeypatch.setattr(backend_module, "_REGISTRY", dict(backend_module._REGISTRY))
        backend_module.register_backend("columnar", CountingColumnar)
        config = WorldCupConfig(seed=3, replicas=1)
        truth = worldcup_database(config)
        dirty = truth.copy()
        inject_fake_champions(dirty, worldcup_years(config)[:2])
        oracle = AccountingOracle(PerfectOracle(truth))
        report = QOCO(dirty, oracle, QOCOConfig(backend="columnar")).clean(Q3)
        assert report.converged and len(report.wrong_answers_removed) == 2
        assert {e.kind for e in report.edits} == {EditKind.DELETE}
        assert calls == Counter(run=1)
        assert evaluate(Q3, dirty) == evaluate(Q3, truth)


class TestNegationBinding:
    def test_binding_separates_shared_and_local(self):
        atom = Atom("t", (Var("x"), Var("l"), Var("l")))
        shared = negation_binding(atom, Fact("t", ("a", "b", "b")), {Var("x")})
        assert shared == {Var("x"): "a"}
        # inconsistent repeated local wildcard: no assignment matches
        assert (
            negation_binding(atom, Fact("t", ("a", "b", "c")), {Var("x")})
            is None
        )

    def test_binding_rejects_constant_mismatch(self):
        atom = Atom("r", ("k", Var("x")))
        assert negation_binding(atom, Fact("r", ("no", "v")), {Var("x")}) is None
        assert negation_binding(atom, Fact("r", ("k", "v")), {Var("x")}) == {
            Var("x"): "v"
        }

    def test_assignments_using_fact_dedupes_across_atoms(self, fig1_dirty):
        # EX1 mentions games twice; a final both atoms can bind must be
        # reported once per distinct assignment.
        evaluator = Evaluator(EX1, fig1_dirty)
        for games_fact in fig1_dirty.facts("games"):
            result = assignments_using_fact(evaluator, games_fact)
            keys = [frozenset(a.items()) for a in result]
            assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# the property-based differential
# ---------------------------------------------------------------------------


class TestDifferential:
    @DIFFERENTIAL_SETTINGS
    @given(
        query=queries(negation=True),
        database=databases(),
        edits=st.lists(
            st.tuples(st.booleans(), facts()), min_size=1, max_size=12
        ),
    )
    def test_engine_matches_scratch_after_every_edit(
        self, query, database, edits
    ):
        engine = IncrementalAnswers(query, database)
        assert_engine_matches_scratch(engine, query, database)
        for is_insert, f in edits:
            if is_insert:
                database.insert(f)
            else:
                database.delete(f)
            assert_engine_matches_scratch(engine, query, database)
        engine.close()

    @DIFFERENTIAL_SETTINGS
    @given(
        query=queries(negation=True),
        database=databases(),
        edits=st.lists(
            st.tuples(st.booleans(), facts()), min_size=1, max_size=8
        ),
    )
    def test_snapshot_fallback_matches_scratch(self, query, database, edits):
        engine = IncrementalAnswers(query, database, subscribe=False)
        for is_insert, f in edits:
            (database.insert if is_insert else database.delete)(f)
            assert_engine_matches_scratch(engine, query, database)

    @DIFFERENTIAL_SETTINGS
    @given(
        query=queries(negation=True),
        database=databases(),
        edits=st.lists(
            st.tuples(st.booleans(), facts()), min_size=1, max_size=12
        ),
    )
    def test_engine_matches_scratch_with_telemetry_on(
        self, query, database, edits
    ):
        with telemetry_session():
            engine = IncrementalAnswers(query, database)
            for is_insert, f in edits:
                (database.insert if is_insert else database.delete)(f)
                assert_engine_matches_scratch(engine, query, database)
            engine.close()


# ---------------------------------------------------------------------------
# whole-loop equivalence: incremental vs full evaluation
# ---------------------------------------------------------------------------


def _corrupt(database: Database, seed: int) -> Database:
    """One random deletion, mirroring the telemetry differential setup."""
    dirty = database.copy()
    rng = random.Random(seed)
    pool = [f for rel in ("r", "s", "t") for f in dirty.facts(rel)]
    if pool:
        dirty.delete(rng.choice(sorted(pool, key=repr)))
    return dirty


class TestCleaningEquivalence:
    def _run_qoco(self, use_incremental: bool, seed: int):
        from repro.datasets.figure1 import figure1_dirty, figure1_ground_truth

        dirty = figure1_dirty()
        oracle = AccountingOracle(PerfectOracle(figure1_ground_truth()))
        config = QOCOConfig(seed=seed, use_incremental=use_incremental)
        report = QOCO(dirty, oracle, config).clean(EX1)
        return {
            "answers": evaluate(EX1, dirty),
            "edits": [(e.kind.value, e.fact) for e in report.edits],
            "log": report.log.to_dicts(),
            "iterations": report.iterations,
            "removed": report.wrong_answers_removed,
            "added": report.missing_answers_added,
            "converged": report.converged,
        }

    def test_figure1_cleaning_identical(self):
        for seed in (0, 7, 42):
            assert self._run_qoco(True, seed) == self._run_qoco(False, seed)

    def test_parallel_cleaning_identical(self):
        from repro.datasets.figure1 import figure1_dirty, figure1_ground_truth

        def run(use_incremental: bool, seed: int):
            dirty = figure1_dirty()
            oracle = AccountingOracle(PerfectOracle(figure1_ground_truth()))
            report = ParallelQOCO(
                dirty, oracle, seed=seed, use_incremental=use_incremental
            ).clean(EX1)
            return {
                "answers": evaluate(EX1, dirty),
                "edits": [(e.kind.value, e.fact) for e in report.edits],
                "log": report.log.to_dicts(),
                "rounds": report.rounds,
                "converged": report.converged,
            }

        for seed in (0, 7):
            assert run(True, seed) == run(False, seed)

    @DIFFERENTIAL_SETTINGS
    @given(
        query=queries(negation=True),
        database=databases(),
        seed=st.integers(0, 2**16),
    )
    def test_randomized_cleaning_identical(self, query, database, seed):
        """Full-loop differential over *randomized* instances: the
        incremental and full-evaluation modes must produce identical
        answers, edits, and oracle-question logs."""
        ground_truth = database
        dirty_base = _corrupt(database, seed)

        def run(use_incremental: bool):
            dirty = dirty_base.copy()
            oracle = AccountingOracle(PerfectOracle(ground_truth))
            config = QOCOConfig(
                seed=seed, max_iterations=4, use_incremental=use_incremental
            )
            report = QOCO(dirty, oracle, config).clean(query)
            return {
                "answers": evaluate(query, dirty),
                "edits": [(e.kind.value, e.fact) for e in report.edits],
                "log": report.log.to_dicts(),
                "converged": report.converged,
            }

        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# telemetry accounting
# ---------------------------------------------------------------------------


class TestIncrementalTelemetry:
    def test_counters_flow_during_cleaning(self):
        from repro.datasets.figure1 import figure1_dirty, figure1_ground_truth

        with telemetry_session() as (hub, _):
            oracle = AccountingOracle(PerfectOracle(figure1_ground_truth()))
            report = QOCO(figure1_dirty(), oracle, QOCOConfig(seed=1)).clean(EX1)
            assert report.converged
            # construction recomputes once; every effective edit is a delta
            assert hub.counter("incremental.full_recompute") == 1
            assert hub.counter("incremental.delta_applied") == len(
                [e for e in report.edits]
            )
            assert hub.counter("incremental.answers_touched") >= 1

    def test_delta_histogram_observed(self, fig1_dirty):
        with telemetry_session() as (hub, _):
            IncrementalAnswers(EX1, fig1_dirty)
            fig1_dirty.insert(
                fact("games", "01.01.2030", "GER", "BRA", "Final", "2:1")
            )
            assert hub.histogram("incremental.delta_assignments").count == 1
