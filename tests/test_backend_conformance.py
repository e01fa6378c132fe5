"""Cross-backend differential conformance: every backend is the reference.

The :class:`~repro.query.backend.EvalBackend` contract is that the
substrate is invisible: answers, per-answer support counts, and witness
multisets must be bit-identical to the naive backtracking reference,
whatever engine computed them.  This suite pins that contract four ways:

1. **Workload conformance** — every backend agrees with the reference on
   every workload query (soccer/worldcup Q1-Q8 + EX1/EX2, dbgroup G1-G4,
   Figure 1) over the synthetic instances, including full
   ``EvalResult`` parity (answers, support, witness multisets).
2. **Small-instance agreement** — hypothesis-driven: random databases
   and random queries (with inequalities and up to two negated atoms)
   against the cross-product oracle ``naive_evaluate``.
3. **Edit-replay conformance** — randomized insert/delete sequences
   replayed through :class:`IncrementalAnswers` with each backend as the
   ``evaluator_factory``; after every edit the maintained view must
   equal a from-scratch reference evaluation, and its fact index must
   equal one rebuilt from its witness multiset.
4. **Metamorphic properties** — row-order shuffling, column permutation
   under renamed schemas, and duplicate-fact idempotence leave every
   backend's ``EvalResult`` unchanged.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qoco_strategies import SCHEMA, databases, facts, queries
from test_incremental import assert_fact_index_exact
from repro.datasets.dbgroup import DBGroupConfig, dbgroup_database
from repro.datasets.figure1 import figure1_dirty
from repro.datasets.worldcup import WorldCupConfig, worldcup_database
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.query.ast import Atom, Query, Var
from repro.query.backend import (
    BackendEvaluator,
    NaiveBackend,
    resolve_backend,
)
from repro.query.evaluator import Evaluator, naive_evaluate
from repro.query.incremental import IncrementalAnswers
from repro.workloads import DBGROUP_QUERIES, EX1, EX2, SOCCER_QUERIES

BACKEND_NAMES = ["naive", "columnar", "sql"]

CONFORMANCE_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_REFERENCE = NaiveBackend()


@pytest.fixture(params=BACKEND_NAMES)
def backend(request):
    """Each registered backend, wrapped with its naive fallback."""
    return resolve_backend(request.param)


def assert_conformant(backend, query, database):
    """Full ``EvalResult`` parity against the reference backend."""
    ref = _REFERENCE.run(query, database)
    got = backend.run(query, database)
    assert got.answers == ref.answers
    assert got.support == ref.support
    assert got.witness_support == ref.witness_support
    assert backend.evaluate(query, database) == ref.answers


# ---------------------------------------------------------------------------
# 1. workload conformance
# ---------------------------------------------------------------------------

# Scaled-down instances: conformance needs full witness enumeration per
# query, so the suite runs the paper's workloads at laptop-test scale.
WORLDCUP = WorldCupConfig(players_per_team=6, group_games_per_cup=4)
DBGROUP = DBGroupConfig(n_members=12, n_publications=40, n_events=20, n_trips=30)


@pytest.fixture(scope="module")
def worldcup_db():
    return worldcup_database(WORLDCUP)


@pytest.fixture(scope="module")
def dbgroup_db():
    return dbgroup_database(DBGROUP)


@pytest.fixture(scope="module")
def figure1_db():
    return figure1_dirty()


class TestWorkloadConformance:
    @pytest.mark.parametrize("name", sorted(SOCCER_QUERIES))
    def test_soccer_queries(self, backend, worldcup_db, name):
        assert_conformant(backend, SOCCER_QUERIES[name], worldcup_db)

    @pytest.mark.parametrize("name", sorted(DBGROUP_QUERIES))
    def test_dbgroup_queries(self, backend, dbgroup_db, name):
        assert_conformant(backend, DBGROUP_QUERIES[name], dbgroup_db)

    @pytest.mark.parametrize("query", [EX1, EX2], ids=lambda q: q.name)
    def test_figure1_queries(self, backend, figure1_db, query):
        assert_conformant(backend, query, figure1_db)

    def test_is_satisfiable_agrees_on_workload_answers(
        self, backend, worldcup_db
    ):
        query = SOCCER_QUERIES["Q2"]
        reference = Evaluator(query, worldcup_db)
        for answer in sorted(_REFERENCE.evaluate(query, worldcup_db))[:5]:
            partial = {
                var: value
                for var, value in zip(query.head, answer)
                if isinstance(var, Var)
            }
            assert backend.is_satisfiable(query, worldcup_db, partial)
            assert reference.is_satisfiable(partial)


# ---------------------------------------------------------------------------
# 2. small-instance agreement with the cross-product oracle
# ---------------------------------------------------------------------------


class TestSmallInstanceAgreement:
    @CONFORMANCE_SETTINGS
    @given(database=databases(), query=queries(negation=True))
    def test_evaluate_matches_cross_product_oracle(
        self, backend, database, query
    ):
        assert backend.evaluate(query, database) == naive_evaluate(
            query, database
        )

    @CONFORMANCE_SETTINGS
    @given(
        database=databases(),
        query=queries(negation=True, min_inequalities=1),
    )
    def test_run_matches_reference_under_inequalities(
        self, backend, database, query
    ):
        assert_conformant(backend, query, database)

    @CONFORMANCE_SETTINGS
    @given(
        database=databases(),
        query=queries(negation=True, min_negated=1),
    )
    def test_run_matches_reference_under_negation(
        self, backend, database, query
    ):
        assert_conformant(backend, query, database)


# ---------------------------------------------------------------------------
# 3. randomized edit replays through the incremental engine
# ---------------------------------------------------------------------------


def _factory(backend):
    """An ``evaluator_factory`` that runs delta rules on *backend*."""
    if isinstance(backend, NaiveBackend):
        return Evaluator
    return lambda query, database: BackendEvaluator(query, database, backend)


class TestEditReplayConformance:
    @CONFORMANCE_SETTINGS
    @given(
        database=databases(),
        query=queries(negation=True),
        edits=st.lists(facts(), max_size=8),
    )
    def test_incremental_view_stays_conformant(
        self, backend, database, query, edits
    ):
        view = IncrementalAnswers(
            query, database, evaluator_factory=_factory(backend)
        )
        for fact in edits:
            if fact in database.facts(fact.relation):
                database.delete(fact)
            else:
                database.insert(fact)
            reference = _REFERENCE.run(query, database)
            assert view.answers() == reference.answers
            for answer in reference.answers:
                assert view.support(answer) == reference.support[answer]
                assert (
                    view.witness_count(answer)
                    == len(reference.witness_support[answer])
                )
            assert_fact_index_exact(view)
        view.close()

    @CONFORMANCE_SETTINGS
    @given(
        database=databases(),
        query=queries(negation=True),
        edits=st.lists(facts(), min_size=1, max_size=6),
    )
    def test_witness_multisets_survive_replay(
        self, backend, database, query, edits
    ):
        view = IncrementalAnswers(
            query, database, evaluator_factory=_factory(backend)
        )
        for fact in edits:
            if fact in database.facts(fact.relation):
                database.delete(fact)
            else:
                database.insert(fact)
        reference = _REFERENCE.run(query, database)
        assert view.answers() == reference.answers
        for answer in reference.answers:
            assert sorted(view.witnesses(answer), key=repr) == sorted(
                reference.witness_support[answer], key=repr
            )
        assert_fact_index_exact(view)
        view.close()


# ---------------------------------------------------------------------------
# 4. metamorphic properties
# ---------------------------------------------------------------------------


def _permuted_instance(database, query):
    """Rename every relation and reverse its columns, consistently.

    ``r(p, q)`` becomes ``pr(q, p)`` and so on; atoms (positive and
    negated) are rewritten to match.  The head is untouched, so answers
    must be identical under any backend.
    """
    schema = Schema(
        [
            RelationSchema(
                f"p{rel}", tuple(reversed(SCHEMA.relation(rel).attributes))
            )
            for rel in ("r", "s", "t")
        ]
    )
    renamed = Database(
        schema,
        [
            Fact(f"p{f.relation}", tuple(reversed(f.values)))
            for rel in ("r", "s", "t")
            for f in database.facts(rel)
        ],
    )

    def rewrite(atom):
        return Atom(f"p{atom.relation}", tuple(reversed(atom.terms)))

    rewritten = Query(
        query.head,
        tuple(rewrite(a) for a in query.atoms),
        query.inequalities,
        query.name,
        tuple(rewrite(a) for a in query.negated_atoms),
    )
    return renamed, rewritten


class TestMetamorphicProperties:
    @CONFORMANCE_SETTINGS
    @given(
        database=databases(),
        query=queries(negation=True),
        seed=st.randoms(use_true_random=False),
    )
    def test_row_order_shuffle_is_invisible(
        self, backend, database, query, seed
    ):
        all_facts = [
            f for rel in ("r", "s", "t") for f in sorted(
                database.facts(rel), key=repr
            )
        ]
        seed.shuffle(all_facts)
        shuffled = Database(SCHEMA, all_facts)
        assert_conformant(backend, query, shuffled)
        assert backend.run(query, shuffled).answers == backend.run(
            query, database
        ).answers

    @CONFORMANCE_SETTINGS
    @given(database=databases(), query=queries(negation=True))
    def test_column_permutation_under_renamed_schema(
        self, backend, database, query
    ):
        renamed, rewritten = _permuted_instance(database, query)
        original = backend.run(query, database)
        permuted = backend.run(rewritten, renamed)
        assert permuted.answers == original.answers
        assert permuted.support == original.support
        # witnesses live in the renamed schema; compare their shape
        assert {
            answer: sorted(counter.values())
            for answer, counter in permuted.witness_support.items()
        } == {
            answer: sorted(counter.values())
            for answer, counter in original.witness_support.items()
        }

    @CONFORMANCE_SETTINGS
    @given(database=databases(), query=queries(negation=True))
    def test_duplicate_fact_idempotence(self, backend, database, query):
        all_facts = [
            f for rel in ("r", "s", "t") for f in database.facts(rel)
        ]
        doubled = Database(SCHEMA, all_facts + all_facts)
        assert_conformant(backend, query, doubled)
        doubled_result = backend.run(query, doubled)
        baseline = backend.run(query, database)
        assert doubled_result.answers == baseline.answers
        assert doubled_result.support == baseline.support
