"""Tests for Algorithm 3 — the main iterative cleaning loop."""



from repro.core.qoco import QOCO, QOCOConfig
from repro.core.deletion import QOCOMinusDeletion
from repro.core.split import MinCutSplit
from repro.datasets.figure1 import ITA_EU
from repro.oracle.base import AccountingOracle
from repro.oracle.enumeration import Chao92Estimator
from repro.oracle.perfect import PerfectOracle
from repro.query.evaluator import evaluate
from repro.workloads import EX1, EX2


class TestConvergence:
    def test_ex1_converges_to_ground_truth_result(self, fig1_dirty, fig1_gt):
        system = QOCO(fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)))
        report = system.clean(EX1)
        assert report.converged
        assert evaluate(EX1, fig1_dirty) == evaluate(EX1, fig1_gt)
        assert report.wrong_answers_removed == [("ESP",)]
        assert ("ITA",) in report.missing_answers_added

    def test_ex2_converges_with_side_effects(self, fig1_dirty, fig1_gt):
        # Example 6.1: inserting Teams(ITA, EU) for Pirlo surfaces the
        # wrong answer (Totti); the loop must clean that up too.
        system = QOCO(fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)))
        report = system.clean(EX2)
        assert report.converged
        assert evaluate(EX2, fig1_dirty) == evaluate(EX2, fig1_gt)
        assert ("Andrea Pirlo",) in report.missing_answers_added
        assert ("Francesco Totti",) in report.wrong_answers_removed
        assert report.iterations >= 2  # the side effect forces a second pass

    def test_totti_side_effect_sequence(self, fig1_dirty, fig1_gt):
        report = QOCO(fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt))).clean(EX2)
        assert ITA_EU in fig1_dirty  # true tuple inserted
        from repro.db.tuples import fact

        assert fact("goals", "Francesco Totti", "09.07.2006") not in fig1_dirty

    def test_clean_database_needs_no_edits(self, fig1_gt):
        db = fig1_gt.copy()
        report = QOCO(db, AccountingOracle(PerfectOracle(fig1_gt))).clean(EX1)
        assert report.edits == []
        assert report.converged
        assert db == fig1_gt

    def test_edits_move_towards_ground_truth(self, fig1_dirty, fig1_gt):
        # Proposition 3.3 aggregated: total distance never increases.
        before = fig1_dirty.distance(fig1_gt)
        QOCO(fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt))).clean(EX1)
        after = fig1_dirty.distance(fig1_gt)
        assert after <= before

    def test_cleaning_both_queries_sequentially(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        system = QOCO(fig1_dirty, oracle)
        system.clean(EX1)
        system.clean(EX2)
        assert evaluate(EX1, fig1_dirty) == evaluate(EX1, fig1_gt)
        assert evaluate(EX2, fig1_dirty) == evaluate(EX2, fig1_gt)


class TestConfig:
    def test_alternative_strategies(self, fig1_dirty, fig1_gt):
        config = QOCOConfig(
            deletion=QOCOMinusDeletion(),
            split=MinCutSplit(),
            seed=3,
        )
        report = QOCO(
            fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)), config
        ).clean(EX1)
        assert report.converged
        assert evaluate(EX1, fig1_dirty) == evaluate(EX1, fig1_gt)

    def test_chao_estimator_still_converges(self, fig1_dirty, fig1_gt):
        config = QOCOConfig(estimator_factory=lambda: Chao92Estimator(patience=2))
        report = QOCO(
            fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)), config
        ).clean(EX1)
        assert evaluate(EX1, fig1_dirty) == evaluate(EX1, fig1_gt)

    def test_iteration_bound_respected(self, fig1_dirty, fig1_gt):
        config = QOCOConfig(max_iterations=1)
        report = QOCO(
            fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)), config
        ).clean(EX2)
        assert report.iterations == 1
        # EX2 needs 2 iterations (Totti side effect) -> flagged unconverged.
        assert not report.converged

    def test_plain_oracle_wrapped_automatically(self, fig1_dirty, fig1_gt):
        system = QOCO(fig1_dirty, PerfectOracle(fig1_gt))
        assert isinstance(system.oracle, AccountingOracle)

    def test_minimize_query_option(self, fig1_dirty, fig1_gt):
        from repro.query.parser import parse_query
        from repro.query.evaluator import evaluate

        # EX1 with a redundant third games atom — the core drops it and
        # the run cleans the same result with smaller witnesses.
        bloated = parse_query(
            'q(x) :- games(d1, x, y, "Final", u1), games(d2, x, z, "Final", u2), '
            'games(d3, x, w, "Final", u3), teams(x, "EU"), d1 != d2.'
        )
        config = QOCOConfig(minimize_query=True, seed=0)
        report = QOCO(
            fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt)), config
        ).clean(bloated)
        assert report.converged
        assert evaluate(bloated, fig1_dirty) == evaluate(bloated, fig1_gt)


class TestReport:
    def test_summary_mentions_counts(self, fig1_dirty, fig1_gt):
        report = QOCO(fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt))).clean(EX1)
        text = report.summary()
        assert "wrong removed" in text
        assert "missing added" in text

    def test_edit_partition(self, fig1_dirty, fig1_gt):
        report = QOCO(fig1_dirty, AccountingOracle(PerfectOracle(fig1_gt))).clean(EX1)
        assert set(report.deletions) | set(report.insertions) == set(report.edits)

    def test_log_attached(self, fig1_dirty, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        report = QOCO(fig1_dirty, oracle).clean(EX1)
        assert report.log is oracle.log
        assert report.total_cost == oracle.log.total_cost
