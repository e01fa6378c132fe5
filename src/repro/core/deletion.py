"""Removing a wrong answer (Section 4, Algorithm 1) and its baselines.

The witnesses of the wrong answer form a set system over facts; the
false facts to delete form a hitting set of it.  QOCO's greedy strategy
asks about the most frequent fact first and — via Theorem 4.5 — stops
asking as soon as a unique minimal hitting set exists (the singleton
rule), inferring the remaining deletions for free.

Baselines (Section 7.2):

* ``QOCO−`` — same greedy order but without the unique-minimal-hitting-
  set detection: it keeps verifying facts until every witness is
  destroyed.
* ``Random`` — the naive baseline, which "verifies all tuples of all
  witnesses" in random order.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

from ..db.database import Database
from ..db.edits import Edit, delete
from ..db.tuples import Fact
from ..oracle.base import AccountingOracle
from ..provenance.witness import most_frequent_fact
from ..query.ast import Query
from ..query.evaluator import Answer, Evaluator
from ..telemetry import TELEMETRY as _TELEMETRY
from .registry import REGISTRY
from .tasks import Task, drive


class DeletionError(RuntimeError):
    """Raised when a wrong answer cannot be removed (e.g. crowd insists
    every fact of some witness is true)."""


class DeletionStrategy(ABC):
    """How to pick the next fact to verify, and whether to use Thm 4.5."""

    name: str = "abstract"
    #: Apply the singleton rule (unique-minimal-hitting-set inference)?
    infer_singletons: bool = False
    #: Verify every distinct witness fact in random order instead of
    #: choosing one fact at a time (the Random baseline)?
    verify_all: bool = False

    @abstractmethod
    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        """The next fact to ask the crowd about."""


class QOCODeletion(DeletionStrategy):
    """Algorithm 1: most-frequent fact + singleton inference."""

    name = "QOCO"
    infer_singletons = True

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        fact = most_frequent_fact(sets)
        assert fact is not None
        return fact


class QOCOMinusDeletion(DeletionStrategy):
    """QOCO without Theorem 4.5: greedy order, no free inference."""

    name = "QOCO-"
    infer_singletons = False

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        fact = most_frequent_fact(sets)
        assert fact is not None
        return fact


class RandomDeletion(DeletionStrategy):
    """Verify every witness fact in random order (``choose`` draws one
    uniformly among the remaining witnesses' tuples)."""

    name = "Random"
    infer_singletons = False
    verify_all = True

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        pool = sorted({f for s in sets for f in s}, key=repr)
        return rng.choice(pool)


def crowd_remove_wrong_answer(
    query: Query,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    strategy: Optional[DeletionStrategy] = None,
    rng: Optional[random.Random] = None,
    apply: bool = True,
    witnesses: Optional[list[frozenset]] = None,
) -> list[Edit]:
    """Algorithm 1: derive (and by default apply) deletion edits that
    remove *answer* from ``Q(D)``.

    Returns the list of deletion edits.  With a perfect oracle the edits
    are guaranteed to destroy every witness; with an imperfect crowd a
    witness may survive (all its facts "verified" true), in which case a
    :class:`DeletionError` is raised and the caller's iterative loop is
    expected to retry.

    *witnesses* overrides the witness system (used by the UCQ extension,
    which feeds the union of the per-disjunct systems).
    """
    strategy = strategy if strategy is not None else QOCODeletion()
    rng = rng if rng is not None else random.Random()
    tel = _TELEMETRY

    with tel.span("deletion.remove_answer", strategy=strategy.name):
        tel.count("deletion.invocations")
        if witnesses is None:
            witnesses = [
                frozenset(w) for w in Evaluator(query, database).witnesses(answer)
            ]
        if tel.enabled:
            tel.observe("deletion.witnesses_per_answer", len(witnesses))
        # Facts already known false (from earlier questions this run) destroy
        # their witnesses for free; known-true facts can be pre-pruned.
        sets, edits = _prune_with_knowledge(list(witnesses), oracle)
        edits += drive(removal_task(query, answer, sets, strategy, rng), oracle)
        if apply:
            database.apply(edits)
        return edits


def removal_task(
    query: Query,
    answer: Answer,
    witnesses: list[frozenset],
    strategy: DeletionStrategy,
    rng: random.Random,
) -> Task:
    """Algorithm 1 over *answer*'s witness sets, one question per yield.

    Returns the deletion edits without applying them.  Raises
    :class:`DeletionError` when a witness has every fact deemed true.
    """
    sets = list(witnesses)
    edits: list[Edit] = []

    if strategy.verify_all:
        # The Random baseline verifies every distinct witness fact.
        pool = sorted({f for s in sets for f in s}, key=repr)
        rng.shuffle(pool)
        for fact in pool:
            if (yield ("verify_fact", fact)):
                sets = [s - {fact} for s in sets]
            else:
                edits.append(delete(fact))
                sets = [s for s in sets if fact not in s]
        # A set still present had every member verified true (possible
        # only with a lying crowd).
        if sets:
            raise DeletionError("witnesses survived full verification")
        return edits

    while sets:
        if strategy.infer_singletons:
            sets, inferred = _consume_singletons(query, sets)
            for fact in inferred:
                edits.append(delete(fact))
                yield ("remember", fact, False)
            if not sets:
                break
        if any(not s for s in sets):
            raise DeletionError(
                f"answer {answer!r} has a witness whose facts were all deemed true"
            )
        fact = strategy.choose(sets, rng)
        _TELEMETRY.count("deletion.facts_asked")
        if (yield ("verify_fact", fact)):
            sets = [s - {fact} for s in sets]
            if any(not s for s in sets):
                raise DeletionError(
                    f"answer {answer!r} has a witness whose facts were all deemed true"
                )
        else:
            edits.append(delete(fact))
            sets = [s for s in sets if fact not in s]
    return edits


def _prune_with_knowledge(
    sets: list[frozenset], oracle: AccountingOracle
) -> tuple[list[frozenset], list[Edit]]:
    """Apply cached oracle knowledge before asking anything."""
    edits: list[Edit] = []
    pruned: list[frozenset] = []
    known_false = set()
    for s in sets:
        for fact in s:
            if oracle.known_fact_value(fact) is False:
                known_false.add(fact)
    for s in sets:
        if s & known_false:
            continue
        trimmed = frozenset(
            f for f in s if oracle.known_fact_value(f) is not True
        )
        pruned.append(trimmed)
    edits += [delete(f) for f in sorted(known_false, key=repr)]
    return pruned, edits


def _consume_singletons(
    query: Query, sets: list[frozenset]
) -> tuple[list[frozenset], list[Fact]]:
    """Algorithm 1 lines 2-4: the facts to delete without asking, and
    the witnesses they leave.

    Because the wrong answer has at least one false fact per witness and
    all other facts of a singleton's witness were verified true, the
    singleton's fact must be false (Theorem 4.5); the caller remembers
    it as such.  With a negated atom in *query* that premise fails: a
    wrong answer may only lack a blocker, so every witness fact can be
    true, and nothing is inferred.
    """
    inferred: list[Fact] = []
    if query.negated_atoms:
        return sets, inferred
    while True:
        singles = sorted({next(iter(s)) for s in sets if len(s) == 1}, key=repr)
        if not singles:
            return sets, inferred
        inferred += singles
        _TELEMETRY.count("deletion.singleton_inferences", len(singles))
        sets = [s for s in sets if not (s & set(singles))]


# String-name resolution (QOCOConfig(deletion="qoco"), the experiment
# harness, wire configs) goes through the unified strategy registry.
REGISTRY.register("deletion", "qoco", QOCODeletion)
REGISTRY.register("deletion", "qoco-", QOCOMinusDeletion)
REGISTRY.register("deletion", "random", RandomDeletion)
