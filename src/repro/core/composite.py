"""Composite-question deletion (the paper's §9 extension).

"We plan to consider richer crowd interactions by allowing composite
crowd questions where, for example, the correctness of several tuples is
posed in a single question.  Composite questions can potentially reduce
the number of questions posed in general."

This module implements that extension for the deletion problem: instead
of verifying the single most frequent witness fact per round, QOCO packs
the *k* most frequent facts into one composite question.  Everything
else — witness bookkeeping, the Theorem 4.5 singleton rule — is
unchanged, so the number of *interactions* drops roughly by a factor of
k while the number of elementary judgments stays the same (see
``benchmarks/bench_ablation.py``).
"""

from __future__ import annotations

import random
from typing import Optional

from ..db.database import Database
from ..db.edits import Edit, delete
from ..oracle.base import AccountingOracle
from ..provenance.witness import fact_frequencies
from ..query.ast import Query
from ..query.evaluator import Answer, Evaluator
from .deletion import DeletionError, _consume_singletons, _prune_with_knowledge


def crowd_remove_wrong_answer_composite(
    query: Query,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    batch_size: int = 3,
    rng: Optional[random.Random] = None,
    witnesses: Optional[list[frozenset]] = None,
) -> list[Edit]:
    """Algorithm 1 with composite questions of up to *batch_size* facts.

    Facts are still ranked by witness frequency; the top *batch_size*
    are posed as one question.  Mutates *database*; returns the edits.
    """
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    rng = rng if rng is not None else random.Random()

    if witnesses is None:
        witnesses = [
            frozenset(w) for w in Evaluator(query, database).witnesses(answer)
        ]
    sets: list[frozenset] = list(witnesses)
    sets, edits = _prune_with_knowledge(sets, oracle)

    while sets:
        sets, inferred = _consume_singletons(query, sets)
        for fact in inferred:
            edits.append(delete(fact))
            oracle.remember_fact(fact, False)
        if not sets:
            break
        if any(not s for s in sets):
            raise DeletionError(
                f"answer {answer!r} has a witness whose facts were all deemed true"
            )
        batch = _top_frequent(sets, batch_size)
        replies = oracle.verify_facts(batch)
        survivors = []
        false_facts = {fact for fact, truthful in replies.items() if not truthful}
        true_facts = {fact for fact, truthful in replies.items() if truthful}
        edits += [delete(fact) for fact in sorted(false_facts, key=repr)]
        for s in sets:
            if s & false_facts:
                continue  # witness destroyed
            survivors.append(s - true_facts)
        if any(not s for s in survivors):
            raise DeletionError(
                f"answer {answer!r} has a witness whose facts were all deemed true"
            )
        sets = survivors

    database.apply(edits)
    return edits


def _top_frequent(sets: list[frozenset], batch_size: int) -> list:
    """The *batch_size* facts hitting the most witnesses."""
    counts = fact_frequencies(sets)
    ranked = sorted(counts, key=lambda f: (-counts[f], repr(f)))
    return ranked[:batch_size]
