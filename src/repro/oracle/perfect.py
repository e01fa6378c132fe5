"""The perfect oracle (Section 3.2).

A perfect oracle "always speaks the truth and knows about D_G": we back
it directly by the ground-truth database.  The paper's own simulated
experiments use exactly this construction, and its real perfect experts
matched it answer-for-answer (Section 7.2).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..db.database import Database
from ..db.tuples import Constant, Fact
from ..query.ast import Query, Var
from ..query.evaluator import Answer, Assignment, Evaluator
from .base import Oracle


class PerfectOracle(Oracle):
    """Answers every question correctly by consulting ``D_G``.

    Query results over the ground truth are memoized per query value, so
    repeated ``TRUE(Q, t)?`` / ``COMPL(Q(D))`` calls don't re-evaluate —
    also when each call carries a fresh copy of the query, as a crowd
    worker decoding every question from the wire does.
    """

    def __init__(self, ground_truth: Database) -> None:
        self.ground_truth = ground_truth
        self._answers_cache: dict[Query, set[Answer]] = {}

    def _true_answers(self, query: Query) -> set[Answer]:
        answers = self._answers_cache.get(query)
        if answers is None:
            answers = Evaluator(query, self.ground_truth).answers()
            self._answers_cache[query] = answers
        return answers

    # -- Oracle interface --------------------------------------------------
    def verify_fact(self, fact: Fact) -> bool:
        return fact in self.ground_truth

    def verify_answer(self, query: Query, answer: Answer) -> bool:
        return answer in self._true_answers(query)

    def verify_candidate(self, query: Query, partial: Mapping[Var, Constant]) -> bool:
        return Evaluator(query, self.ground_truth).is_satisfiable(partial)

    def complete_assignment(
        self, query: Query, partial: Mapping[Var, Constant]
    ) -> Optional[Assignment]:
        evaluator = Evaluator(query, self.ground_truth)
        return next(evaluator.assignments(partial), None)

    def complete_result(
        self, query: Query, known_answers: Iterable[Answer]
    ) -> Optional[Answer]:
        known = set(known_answers)
        missing = sorted(
            (a for a in self._true_answers(query) if a not in known), key=repr
        )
        if missing:
            return missing[0]
        return None
