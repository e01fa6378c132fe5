"""Unit tests for the perfect oracle."""

from repro.datasets.figure1 import ITA_EU
from repro.db.tuples import fact
from repro.oracle.perfect import PerfectOracle
from repro.query.ast import Var
from repro.query.evaluator import witness_of
from repro.shard import wire
from repro.workloads import EX1, EX2


class TestClosedQuestions:
    def test_verify_fact(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        assert oracle.verify_fact(fact("teams", "ESP", "EU"))
        assert not oracle.verify_fact(fact("teams", "BRA", "EU"))
        assert oracle.verify_fact(ITA_EU)  # in D_G though missing from D

    def test_verify_answer(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        assert oracle.verify_answer(EX1, ("GER",))
        assert oracle.verify_answer(EX1, ("ITA",))
        assert not oracle.verify_answer(EX1, ("ESP",))

    def test_verify_candidate_partial(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        assert oracle.verify_candidate(EX1, {Var("x"): "ITA"})
        assert not oracle.verify_candidate(EX1, {Var("x"): "ESP"})

    def test_verify_candidate_total(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        assignment = oracle.complete_assignment(EX1, {Var("x"): "GER"})
        assert oracle.verify_candidate(EX1, assignment)


class TestOpenQuestions:
    def test_complete_assignment_extends_partial(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        partial = {Var("x"): "ITA"}
        full = oracle.complete_assignment(EX1, partial)
        assert full is not None
        assert full[Var("x")] == "ITA"
        # the completed witness holds in D_G
        for f in witness_of(EX1, full):
            assert f in fig1_gt

    def test_complete_assignment_unsatisfiable(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        assert oracle.complete_assignment(EX1, {Var("x"): "ESP"}) is None

    def test_complete_result_returns_missing(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        missing = oracle.complete_result(EX1, [("GER",)])
        assert missing == ("ITA",)

    def test_complete_result_none_when_complete(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        assert oracle.complete_result(EX1, [("GER",), ("ITA",)]) is None

    def test_complete_result_deterministic(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        first = oracle.complete_result(EX2, [])
        second = oracle.complete_result(EX2, [])
        assert first == second

    def test_complete_result_ignores_extra_known(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        # wrong answers in the known set don't confuse the oracle
        missing = oracle.complete_result(EX1, [("GER",), ("ESP",)])
        assert missing == ("ITA",)


class TestMemoization:
    def test_true_answers_cached_per_query(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        oracle.verify_answer(EX1, ("GER",))
        cached = oracle._answers_cache
        assert len(cached) == 1
        oracle.verify_answer(EX1, ("ITA",))
        assert len(cached) == 1  # same query object, one evaluation

    def test_decoded_copies_of_a_query_share_one_entry(self, fig1_gt):
        # a crowd worker decodes a fresh Query for every question it
        # leases; equal copies must hit the cache, not grow it
        oracle = PerfectOracle(fig1_gt)
        obj = wire.question_to_obj("verify_answer", query=EX1, answer=("GER",))
        for _ in range(5):
            decoded = wire.question_from_obj(obj)
            assert decoded["query"] is not EX1
            assert oracle.verify_answer(decoded["query"], decoded["answer"])
        assert len(oracle._answers_cache) == 1
