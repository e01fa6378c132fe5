"""Constraint language, violation detection, and oracle-guided repair.

Covers the ``repro.constraints`` package: FD/denial-constraint
compilation to boolean CQs, backend-pluggable detection, the
hitting-set repair enumerator, and the two repairers the benchmark gate
compares (oracle-guided vs exhaustive).
"""

from __future__ import annotations

import copy

import pytest

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
from repro.constraints.repair import RepairError, inferable_deletions, update_candidates
from repro.core.registry import REGISTRY
from repro.db.database import Database
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
