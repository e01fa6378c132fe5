"""Constraint language, violation detection, and oracle-guided repair.

Covers the ``repro.constraints`` package: FD/denial-constraint
compilation to boolean CQs, FD block detection checked against those
CQs on naive and columnar, the hitting-set repair enumerator, and the
two repairers the benchmark gate compares (oracle-guided vs
exhaustive).
"""

from __future__ import annotations

import copy
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api
from repro.constraints import (
    FD,
    CandidateRepair,
    ConstraintError,
    DenialConstraint,
    ExhaustiveRepairer,
    OracleRepairer,
    RepairBudget,
    Violation,
    candidate_repairs,
    find_violations,
    greedy_repair,
    minimal_deletion_repairs,
    parse_fd,
    repair,
    satisfies,
    violation_hypergraph,
)
from repro.constraints import repairer as repairer_module
from repro.constraints.repair import RepairError, inferable_deletions, update_candidates
from repro.constraints.violations import query_violations
from repro.core.registry import REGISTRY
from repro.db.database import Database
from repro.db.edits import EditKind
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.ast import Atom, Var
from repro.telemetry import telemetry_session


def games_schema() -> Schema:
    return Schema([RelationSchema("games", ("date", "winner", "result"))])


def games_db(rows) -> Database:
    db = Database(games_schema())
    for row in rows:
        db.insert(fact("games", *row))
    return db


CLEAN_ROWS = [
    ("1998-07-12", "FRA", "3-0"),
    ("2002-06-30", "BRA", "2-0"),
    ("2006-07-09", "ITA", "1-1"),
]


class TestConstraintAst:
    def test_parse_fd_round_trips(self):
        fd = parse_fd("games: date -> winner, result")
        assert fd == FD("games", ("date",), ("winner", "result"))
        assert str(fd) == "games: date -> winner, result"
        assert fd.name == "fd:games:date->winner,result"

    def test_parse_fd_rejects_malformed(self):
        with pytest.raises(ConstraintError):
            parse_fd("no arrow here")
        with pytest.raises(ConstraintError):
            parse_fd("date -> winner")  # no relation prefix
        with pytest.raises(ConstraintError):
            FD("games", (), ("winner",))
        with pytest.raises(ConstraintError):
            FD("games", ("date",), ())
        with pytest.raises(ConstraintError):
            FD("games", ("date",), ("date",))  # overlapping sides

    def test_fd_positions_resolve_against_schema(self):
        fd = parse_fd("games: date -> result")
        assert fd.positions(games_schema()) == ((0,), (2,))
        with pytest.raises(ConstraintError):
            parse_fd("games: nope -> result").positions(games_schema())
        with pytest.raises(ConstraintError):
            parse_fd("missing: a -> b").positions(games_schema())

    def test_denial_constraint_is_a_boolean_query(self):
        dc = DenialConstraint(
            atoms=(Atom("games", (Var("d"), Var("w"), Var("r"))),),
            label="no-games",
        )
        query = dc.as_query()
        assert query.head == ()
        assert query.name == "dc:no-games"
        with pytest.raises(ConstraintError):
            DenialConstraint(atoms=())


class TestViolationDetection:
    def test_clean_instance_has_no_violations(self):
        db = games_db(CLEAN_ROWS)
        assert find_violations(db, "games: date -> winner") == []
        assert satisfies(db, "games: date -> winner")

    def test_fd_violation_is_the_conflicting_pair(self):
        rows = CLEAN_ROWS + [("1998-07-12", "BRA", "3-0")]
        db = games_db(rows)
        violations = find_violations(db, "games: date -> winner, result")
        assert len(violations) == 1
        (violation,) = violations
        assert violation.facts == frozenset(
            {
                fact("games", "1998-07-12", "FRA", "3-0"),
                fact("games", "1998-07-12", "BRA", "3-0"),
            }
        )
        assert violation.rhs_position == 1  # they differ on winner only
        assert not satisfies(db, "games: date -> winner, result")

    def test_multi_rhs_disagreements_are_separate_violations(self):
        rows = CLEAN_ROWS + [("1998-07-12", "BRA", "0-3")]
        db = games_db(rows)
        violations = find_violations(db, "games: date -> winner, result")
        # same pair, flagged once per disagreeing RHS attribute — but
        # deduped to distinct (constraint, witness) keys
        positions = {v.rhs_position for v in violations}
        assert positions == {1, 2}

    def test_denial_constraint_detection(self):
        db = games_db(CLEAN_ROWS)
        dc = DenialConstraint(
            atoms=(Atom("games", (Var("d"), "FRA", Var("r"))),),
            label="no-france",
        )
        violations = find_violations(db, dc)
        assert len(violations) == 1
        assert violations[0].facts == frozenset(
            {fact("games", "1998-07-12", "FRA", "3-0")}
        )

    @pytest.mark.parametrize("backend", ["naive", "columnar"])
    def test_detection_is_backend_agnostic(self, backend):
        rows = CLEAN_ROWS + [("2002-06-30", "GER", "2-0")]
        db = games_db(rows)
        violations = find_violations(db, "games: date -> winner", backend=backend)
        assert len(violations) == 1


#: equal across types (1 == 1.0 == True) and string look-alikes of them
MIXED_VALUES = st.sampled_from([0, 1, 2, 1.0, 2.5, -0.0, True, False, "1", "1.0", "a"])


@st.composite
def fd_instances(draw):
    """A relation of mixed-type rows (possibly none) with duplicate and
    near-duplicate rows, 1-2 FDs with a one- or two-attribute LHS and
    1-3 RHS attributes, and possibly a fork of it with pending edits."""
    arity = draw(st.integers(3, 5))
    names = tuple(f"a{i}" for i in range(arity))
    schema = Schema([RelationSchema("r", names)])
    row = st.tuples(*[MIXED_VALUES] * arity)
    rows = draw(st.lists(row, max_size=10))
    if rows:
        for index, position, value in draw(
            st.lists(st.tuples(st.integers(0, 99), st.integers(0, arity - 1), MIXED_VALUES),
                     max_size=8)
        ):
            near = list(rows[index % len(rows)])
            near[position] = value
            rows.append(tuple(near))
        rows.extend(rows[i % len(rows)] for i in draw(st.lists(st.integers(0, 99), max_size=3)))
    database = Database(schema)
    for values in rows:
        database.insert(fact("r", *values))
    if draw(st.booleans()):
        database = database.fork()
        for is_delete, index, values in draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, 99), row), max_size=5)
        ):
            present = sorted(database.facts("r"), key=repr)
            if is_delete and present:
                database.delete(present[index % len(present)])
            else:
                database.insert(fact("r", *values))
    fds = []
    for _ in range(draw(st.integers(1, 2))):
        order = draw(st.permutations(names))
        lhs_size = draw(st.integers(1, 2))
        rhs_size = draw(st.integers(1, min(3, arity - lhs_size)))
        fds.append(FD("r", order[:lhs_size], order[lhs_size:lhs_size + rhs_size]))
    return database, fds


def _exact(violations):
    """Each violation as its sort key: catches a fact stored as ``1``
    coming back as ``1.0``, which ``==`` would not."""
    return [
        (v.constraint_name, v.rhs_position, sorted(map(repr, v.facts)))
        for v in violations
    ]


class TestBlockDetector:
    """The LHS-block detector against the FD's self-join CQs."""

    @given(instance=fd_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_cq_reference_on_naive_and_columnar(self, instance):
        database, fds = instance
        found = find_violations(database, fds)
        columnar = query_violations(database, fds, backend="columnar")
        assert found == columnar
        assert _exact(found) == _exact(columnar)
        # a naive witness is the grounded atom pair, so the second fact
        # takes the first's LHS values (a stored -0.0 can come back as
        # 0); mapped back to the stored facts the lists are identical
        stored = {f: f for f in database.facts("r")}
        naive = query_violations(database, fds, backend="naive")
        assert _exact(found) == sorted(
            (v.constraint_name, v.rhs_position, sorted(repr(stored[f]) for f in v.facts))
            for v in naive
        )
        assert satisfies(database, fds) == (found == [])

    def test_backend_name_still_resolved(self):
        with pytest.raises(ValueError):
            find_violations(games_db(CLEAN_ROWS), FDSPEC, backend="no-such-engine")

    def test_default_detection_leaves_numpy_unloaded(self):
        code = (
            "import sys\n"
            "from repro.constraints import find_violations, satisfies\n"
            "from repro.db.database import Database\n"
            "from repro.db.schema import RelationSchema, Schema\n"
            "from repro.db.tuples import fact\n"
            "db = Database(Schema([RelationSchema('g', ('a', 'b'))]),\n"
            "              [fact('g', 1, 2), fact('g', 1, 3)])\n"
            "assert len(find_violations(db, 'g: a -> b')) == 1\n"
            "assert not satisfies(db, 'g: a -> b')\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestRepairEnumeration:
    def pair(self, a, b, rhs=1, name="fd"):
        return Violation(name, frozenset({a, b}), rhs)

    def test_minimal_deletion_repairs_are_hitting_sets(self):
        a = fact("games", "d1", "FRA", "r")
        b = fact("games", "d1", "BRA", "r")
        repairs = minimal_deletion_repairs([self.pair(a, b)])
        assert {frozenset(e.fact for e in r.edits) for r in repairs} == {
            frozenset({a}),
            frozenset({b}),
        }
        assert all(r.kind == "delete" and r.cost == 1 for r in repairs)

    def test_update_candidates_swap_the_rhs_cell(self):
        a = fact("games", "d1", "FRA", "r")
        b = fact("games", "d1", "BRA", "r")
        updates = update_candidates(self.pair(a, b))
        assert len(updates) == 2
        new_facts = {e.fact for u in updates for e in u.edits if e.kind.value == "+"}
        assert new_facts == {a.replace(1, "BRA"), b.replace(1, "FRA")}
        assert candidate_repairs([self.pair(a, b)], updates=True)

    def test_greedy_repair_prefers_shared_facts(self):
        shared = fact("games", "d1", "X", "r")
        others = [fact("games", "d1", f"Y{i}", "r") for i in range(3)]
        violations = [self.pair(shared, other) for other in others]
        chosen = greedy_repair(violations)
        assert {e.fact for e in chosen.edits} == {shared}
        with pytest.raises(RepairError):
            greedy_repair([])

    def test_inferable_deletions_lift_theorem_45(self):
        lone = fact("games", "d2", "Z", "r")
        assert inferable_deletions([Violation("dc", frozenset({lone}))]) == {lone}
        a = fact("games", "d1", "FRA", "r")
        b = fact("games", "d1", "BRA", "r")
        assert inferable_deletions([self.pair(a, b)]) is None

    def test_hypergraph_dedupes_edges(self):
        a = fact("games", "d1", "FRA", "r")
        b = fact("games", "d1", "BRA", "r")
        edges = violation_hypergraph([self.pair(a, b), self.pair(a, b, rhs=2)])
        assert edges == [frozenset({a, b})]

    def test_candidate_repair_validation(self):
        with pytest.raises(RepairError):
            CandidateRepair.deletion([])
        a = fact("games", "d1", "FRA", "r")
        with pytest.raises(RepairError):
            CandidateRepair.update(a, a)


FDSPEC = "games: date -> winner, result"


def dirty_pair_db():
    """Clean rows plus one conflicting twin per clean row."""
    truth = games_db(CLEAN_ROWS)
    dirty = copy.deepcopy(truth)
    for row in CLEAN_ROWS:
        dirty.insert(fact("games", row[0], row[1] + "_WRONG", row[2]))
    return truth, dirty


class TestOracleRepairer:
    def test_reaches_consistency_and_truth(self):
        truth, dirty = dirty_pair_db()
        report = OracleRepairer(dirty, PerfectOracle(truth), FDSPEC).run()
        assert report.consistent and report.converged
        assert dirty == truth
        assert report.questions_asked > 0
        assert "question" in report.summary()

    def test_strictly_fewer_questions_than_exhaustive(self):
        truth, dirty = dirty_pair_db()
        guided = OracleRepairer(
            copy.deepcopy(dirty), PerfectOracle(truth), FDSPEC
        ).run()
        blunt = ExhaustiveRepairer(
            copy.deepcopy(dirty), PerfectOracle(truth), FDSPEC
        ).run()
        assert guided.consistent and blunt.consistent
        assert guided.questions_asked < blunt.questions_asked

    def test_pair_inference_saves_questions(self):
        # one shared wrong fact conflicting with several true ones:
        # after the shared fact is deleted, edges vanish; after a true
        # fact is certified, its pair partner is inferred false free.
        truth = games_db(CLEAN_ROWS)
        dirty = copy.deepcopy(truth)
        dirty.insert(fact("games", "1998-07-12", "XXX", "3-0"))
        oracle = AccountingOracle(PerfectOracle(truth))
        report = OracleRepairer(dirty, oracle, "games: date -> winner").run()
        assert report.consistent
        # one question decides the pair, whichever side was asked
        assert report.questions_asked == 1

    def test_singleton_edges_are_free(self):
        truth = games_db(CLEAN_ROWS)
        dirty = copy.deepcopy(truth)
        dc = DenialConstraint(
            atoms=(Atom("games", (Var("d"), "GER_FAKE", Var("r"))),),
            label="no-fake",
        )
        dirty.insert(fact("games", "2010-07-11", "GER_FAKE", "1-0"))
        report = OracleRepairer(dirty, PerfectOracle(truth), dc).run()
        assert report.consistent
        assert report.questions_asked == 0  # singleton ⇒ certainly false
        assert report.free_deletions == 1

    def test_budget_exhaustion_degrades_not_fails(self):
        truth, dirty = dirty_pair_db()
        report = OracleRepairer(
            dirty, PerfectOracle(truth), FDSPEC, budget=RepairBudget(max_cost=1)
        ).run()
        assert report.consistent  # best-effort greedy still repaired
        assert not report.converged  # ... but uncertified
        assert report.questions_asked <= 1

    def test_value_updates_restore_rows(self):
        # truth holds two same-date rows agreeing on winner; the dirty
        # copy mis-spells one winner.  A pure deletion repair loses the
        # row; the update repair rewrites the winner cell back.
        truth = games_db(CLEAN_ROWS + [("1998-07-12", "FRA", "2-1")])
        dirty = games_db(CLEAN_ROWS + [("1998-07-12", "BRA", "2-1")])
        report = OracleRepairer(
            dirty, PerfectOracle(truth), "games: date -> winner", updates=True
        ).run()
        assert report.consistent
        assert report.updates_applied == 1
        assert dirty == truth

    def test_repair_budget_validation(self):
        with pytest.raises(ValueError):
            RepairBudget(max_cost=-1)
        with pytest.raises(ValueError):
            RepairBudget(deadline=-0.1)
        with pytest.raises(ValueError):
            OracleRepairer(games_db([]), PerfectOracle(games_db([])), FDSPEC, max_rounds=0)


class _RecordingOracle(AccountingOracle):
    """Logs every ``verify_fact`` call, cache hits included."""

    def __init__(self, truth: Database, known) -> None:
        super().__init__(PerfectOracle(truth))
        self.asked = []
        for known_fact in known:
            self.remember_fact(known_fact, known_fact in truth)

    def verify_fact(self, fact):
        self.asked.append(fact)
        return super().verify_fact(fact)


def _reference_resolve(edges, database, oracle, *, violations=(), updates=False, max_cost=None):
    """One round of the oracle repairer, recounting degrees per question.

    Returns the edits as ``(kind, fact)`` pairs, the inferred and free
    counts, the updates applied, and whether the round converged (no
    budget ran out).
    """
    edits, certified = [], set()
    inferred = free = updated = 0
    pair_context = {}
    for violation in violations:
        if violation.rhs_position is not None and len(violation.facts) == 2:
            pair_context.setdefault(violation.facts, violation)
    cost_before = oracle.log.total_cost

    def try_update(false_fact):
        nonlocal updated
        for facts, violation in pair_context.items():
            if false_fact not in facts:
                continue
            (partner,) = facts - {false_fact}
            if partner not in certified:
                continue
            position = violation.rhs_position
            corrected = false_fact.replace(position, partner.values[position])
            if corrected in database:
                continue
            if oracle.verify_fact(corrected) and database.insert(corrected):
                edits.append((EditKind.INSERT, corrected))
                updated += 1
            return

    while edges:
        singleton = next((e for e in edges if len(e) == 1), None)
        if singleton is not None:
            (chosen,) = singleton
            free += 1
        else:
            if max_cost is not None and oracle.log.total_cost - cost_before >= max_cost:
                # the budget ran out: greedily hit the live edges, in list order
                for edit in greedy_repair([Violation("budget", e) for e in edges]).edits:
                    if edit.apply(database):
                        edits.append((edit.kind, edit.fact))
                return edits, inferred, free, updated, False
            counts = Counter(f for edge in edges for f in edge)
            chosen = max(counts, key=lambda f: (counts[f], oracle.knows_fact(f), repr(f)))
            if oracle.verify_fact(chosen):
                certified.add(chosen)
                edges = [edge - {chosen} for edge in edges]
                for edge in edges:
                    if len(edge) == 1:
                        inferred += 1
                        oracle.remember_fact(next(iter(edge)), False)
                continue
        if database.delete(chosen):
            edits.append((EditKind.DELETE, chosen))
        oracle.remember_fact(chosen, False)
        if updates:
            try_update(chosen)
        edges = [edge for edge in edges if chosen not in edge]
    return edits, inferred, free, updated, True


#: facts with equal degrees and mixed value types, so ties fall to
#: knows_fact and then to repr
FACT_POOL = [fact("r", i, "x" if i % 2 else i % 3) for i in range(8)]
#: the other values at every key: an update's corrected fact is one
CORRECTIONS = [
    fact("r", i, v) for i in range(8) for v in ("x", 0, 1, 2) if fact("r", i, v) not in FACT_POOL
]
#: FD violations are pairs; some edges of other sizes keep singletons
#: (free deletions) and wider edges in play
EDGE = st.frozensets(st.sampled_from(FACT_POOL), min_size=2, max_size=2) | st.frozensets(
    st.sampled_from(FACT_POOL), min_size=1, max_size=3
)


class TestDegreeBookkeeping:
    @given(
        edges=st.lists(EDGE, min_size=1, max_size=14),
        # any truth over the pool, with extra weight on truths that keep
        # most pool facts true (they reach verified facts and updates)
        false_facts=st.one_of(
            st.sets(st.sampled_from(FACT_POOL), max_size=3),
            st.sets(st.sampled_from(FACT_POOL)),
        ),
        true_corrections=st.sets(st.sampled_from(CORRECTIONS)),
        known=st.sets(st.sampled_from(FACT_POOL)),
        updates=st.booleans(),
        max_cost=st.sampled_from([None, 0, 1, 2, 3]),
    )
    @settings(max_examples=400, deadline=None)
    def test_questions_and_edits_match_a_recounting_loop(
        self, edges, false_facts, true_corrections, known, updates, max_cost
    ):
        true_facts = [f for f in FACT_POOL if f not in false_facts] + list(true_corrections)
        schema = Schema([RelationSchema("r", ("k", "v"))])
        truth = Database(schema, true_facts)
        violations = [
            Violation("fd:r:k->v", edge, 1 if len(edge) == 2 else None) for edge in edges
        ]
        budget = RepairBudget(max_cost=max_cost) if max_cost is not None else None

        database = Database(schema, FACT_POOL)
        oracle = _RecordingOracle(truth, known)
        rounds = iter([violations])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repairer_module, "find_violations", lambda *a, **k: next(rounds, []))
            report = OracleRepairer(
                database, oracle, "r: k -> v", updates=updates, budget=budget
            ).run()

        reference_db = Database(schema, FACT_POOL)
        reference_oracle = _RecordingOracle(truth, known)
        edits, inferred, free, updated, converged = _reference_resolve(
            violation_hypergraph(violations),
            reference_db,
            reference_oracle,
            violations=violations,
            updates=updates,
            max_cost=max_cost,
        )
        assert oracle.asked == reference_oracle.asked
        assert oracle.log.records == reference_oracle.log.records
        assert [(edit.kind, edit.fact) for edit in report.edits] == edits
        assert (report.inferred, report.free_deletions) == (inferred, free)
        assert (report.updates_applied, report.converged) == (updated, converged)
        assert database == reference_db


class TestRepairStrategies:
    def test_registry_knows_repair_strategies(self):
        names = REGISTRY.names("repair")
        assert {"oracle", "exhaustive", "greedy"} <= set(names)

    def test_repair_function_dispatches_by_name(self):
        truth, dirty = dirty_pair_db()
        report = repair(dirty, FDSPEC, PerfectOracle(truth), strategy="exhaustive")
        assert report.consistent
        assert report.query_name.startswith("exhaustive(")

    def test_greedy_strategy_asks_nothing(self):
        truth, dirty = dirty_pair_db()
        report = repair(dirty, FDSPEC, PerfectOracle(truth), strategy="greedy")
        assert report.consistent
        assert report.questions_asked == 0
        assert not report.converged

    def test_api_facade(self):
        truth, dirty = dirty_pair_db()
        report = repro.api.repair(dirty, FDSPEC, PerfectOracle(truth))
        assert report.consistent
        assert dirty == truth


class TestFinalDetection:
    """Detection re-runs after the loop only when ``max_rounds`` ran out:
    a round that found no violation already showed consistency."""

    @staticmethod
    def _detections(run):
        with telemetry_session() as (hub, _):
            report = run()
            return report, hub.counter("constraints.checks")

    @pytest.mark.parametrize("strategy", ["oracle", "exhaustive", "greedy"])
    def test_converged_loop_does_not_redetect(self, strategy):
        truth, dirty = dirty_pair_db()
        report, detections = self._detections(
            lambda: repair(dirty, FDSPEC, PerfectOracle(truth), strategy=strategy)
        )
        assert report.consistent and report.rounds == 1
        assert detections == 2  # the repairing round, then the clean one

    @pytest.mark.parametrize("strategy", ["oracle", "exhaustive", "greedy"])
    def test_exhausted_rounds_redetect(self, strategy):
        truth, dirty = dirty_pair_db()
        report, detections = self._detections(
            lambda: repair(
                dirty, FDSPEC, PerfectOracle(truth), strategy=strategy, max_rounds=1
            )
        )
        assert report.consistent and report.rounds == 1
        assert detections == 2  # the repairing round, then the final check

    def test_exhaustive_give_up_is_inconsistent(self):
        _, dirty = dirty_pair_db()
        # an oracle that certifies every fact leaves nothing to delete
        report, detections = self._detections(
            lambda: ExhaustiveRepairer(dirty, PerfectOracle(copy.deepcopy(dirty)), FDSPEC).run()
        )
        assert not report.consistent and not report.converged
        assert detections == 1


class TestReportShape:
    def test_report_satisfies_reportlike(self):
        from repro.core.report import ReportLike

        truth, dirty = dirty_pair_db()
        report = repair(dirty, FDSPEC, PerfectOracle(truth))
        assert isinstance(report, ReportLike)
        assert report.total_cost == report.cost
        assert report.rounds >= 1
        assert report.wall_clock >= 0.0
