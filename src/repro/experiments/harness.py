"""Experiment harness: measurement procedures behind every figure.

Measurement conventions (see DESIGN.md §2 and EXPERIMENTS.md):

* **Deletion** (Figures 3a/3d): every answer of ``Q(D)`` must be
  verified (``TRUE(Q, t)?`` — the black "# results" bar); the red
  "# questions" bar counts the ``TRUE(R(ā))?`` fact verifications the
  strategy asked; the white "# avoided" bar is the naive upper bound
  (every distinct fact across the wrong answers' witnesses) minus the
  questions asked.
* **Insertion** (Figures 3b/3e): the black "# missing" bar counts the
  ``COMPL(Q(D))`` identifications (one per missing answer); the red bar
  counts candidate verifications plus the variables the crowd filled;
  the white bar is the naive upper bound (all unique variables of each
  ``Q|t``) minus the questions.
* **Mixed** (Figure 3c): sum of the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from ..core.deletion import DeletionStrategy, crowd_remove_wrong_answer
from ..core.insertion import InsertionConfig, crowd_add_missing_answer
from ..core.registry import REGISTRY
from ..core.split import SplitStrategy
from ..db.database import Database
from ..datasets.noise import ResultErrors, inject_result_errors
from ..oracle.base import AccountingOracle, Oracle
from ..oracle.perfect import PerfectOracle
from ..oracle.questions import QuestionKind
from ..query.ast import Query
from ..query.evaluator import Answer, Evaluator, answer_to_partial
from ..query.subquery import embed_answer, unique_variables


@dataclass(frozen=True)
class BarMeasurement:
    """One stacked bar of a Figure 3 panel."""

    figure: str
    group: str          # e.g. the query name or "#wrong=5"
    algorithm: str
    lower: int          # black segment (forced interactions)
    questions: int      # red segment (actual strategy questions)
    naive_upper: int    # lower + questions + avoided

    @property
    def avoided(self) -> int:
        return max(0, self.naive_upper - self.questions)

    @property
    def total(self) -> int:
        return self.lower + self.questions + self.avoided

    def as_row(self) -> tuple:
        return (
            self.group,
            self.algorithm,
            self.lower,
            self.questions,
            self.avoided,
            self.lower + self.naive_upper,
        )


BAR_HEADERS = ("group", "algorithm", "lower", "questions", "avoided", "total")


def make_strategy(name: str) -> DeletionStrategy:
    return REGISTRY.resolve("deletion", name)


def make_split(name: str) -> SplitStrategy:
    return REGISTRY.resolve("split", name)


# ---------------------------------------------------------------------------
# deletion experiments
# ---------------------------------------------------------------------------


def deletion_upper_bound(
    query: Query, dirty: Database, wrong_answers: Iterable[Answer]
) -> int:
    """Distinct facts across all witnesses of the wrong answers."""
    evaluator = Evaluator(query, dirty)
    facts = set()
    for answer in wrong_answers:
        for witness in evaluator.witnesses(answer):
            facts |= witness
    return len(facts)


def run_deletion(
    ground_truth: Database,
    query: Query,
    errors: ResultErrors,
    strategy_name: str,
    seed: int = 0,
    oracle: Oracle | None = None,
) -> BarMeasurement:
    """Verify every answer of Q(D); remove the wrong ones with *strategy*."""
    dirty = errors.dirty.copy()
    backend = oracle if oracle is not None else PerfectOracle(ground_truth)
    accounting = AccountingOracle(backend)
    strategy = make_strategy(strategy_name)
    rng = random.Random(seed)

    upper = deletion_upper_bound(query, dirty, errors.wrong_answers)

    for answer in sorted(Evaluator(query, dirty).answers(), key=repr):
        if not Evaluator(query, dirty).is_satisfiable(answer_to_partial(query, answer)):
            continue  # collateral removal by an earlier deletion
        if accounting.verify_answer(query, answer):
            continue
        crowd_remove_wrong_answer(
            query, dirty, answer, accounting, strategy=strategy, rng=rng
        )

    log = accounting.log
    return BarMeasurement(
        figure="deletion",
        group=query.name,
        algorithm=strategy_name,
        lower=log.cost_of([QuestionKind.VERIFY_ANSWER]),
        questions=log.cost_of([QuestionKind.VERIFY_FACT]),
        naive_upper=upper,
    )


# ---------------------------------------------------------------------------
# insertion experiments
# ---------------------------------------------------------------------------


def insertion_upper_bound(
    query: Query, missing_answers: Iterable[Answer]
) -> int:
    """Unique variables of ``Q|t`` summed over the missing answers —
    what the naive whole-witness task would make the crowd fill."""
    return sum(
        len(unique_variables(embed_answer(query, answer)))
        for answer in missing_answers
    )


def run_insertion(
    ground_truth: Database,
    query: Query,
    errors: ResultErrors,
    split_name: str,
    seed: int = 0,
    oracle: Oracle | None = None,
    insertion: InsertionConfig | None = None,
) -> BarMeasurement:
    """Identify missing answers via COMPL(Q(D)) and insert witnesses."""
    dirty = errors.dirty.copy()
    backend = oracle if oracle is not None else PerfectOracle(ground_truth)
    accounting = AccountingOracle(backend)
    split = make_split(split_name)
    rng = random.Random(seed)

    identified: list[Answer] = []
    while True:
        current = Evaluator(query, dirty).answers()
        missing = accounting.complete_result(query, current)
        if missing is None:
            break
        if missing in current:
            continue
        identified.append(missing)
        crowd_add_missing_answer(
            query,
            dirty,
            missing,
            accounting,
            split=split,
            rng=rng,
            config=insertion,
        )

    # Upper bound over the answers the crowd actually had to supply
    # witnesses for (one insertion can restore several missing answers
    # when they shared a deleted fact, so this can be < the planted
    # count — all algorithms see the same identified set under the
    # perfect oracle, keeping bars comparable).
    upper = insertion_upper_bound(query, identified)

    log = accounting.log
    questions = log.total_cost - log.cost_of([QuestionKind.COMPLETE_RESULT])
    return BarMeasurement(
        figure="insertion",
        group=query.name,
        algorithm=split_name,
        lower=len(identified),
        questions=questions,
        naive_upper=upper,
    )


# ---------------------------------------------------------------------------
# mixed experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixedMeasurement:
    """A Figure 3c/3f data point: bar segments plus category stack."""

    bar: BarMeasurement
    categories: dict[str, int] = field(default_factory=dict)


def run_mixed(
    ground_truth: Database,
    query: Query,
    errors: ResultErrors,
    strategy_name: str = "QOCO",
    split_name: str = "Provenance",
    seed: int = 0,
    oracle: Oracle | None = None,
) -> MixedMeasurement:
    """Algorithm 3 over a database with both wrong and missing answers."""
    from ..core.qoco import QOCO, QOCOConfig

    dirty = errors.dirty.copy()
    backend = oracle if oracle is not None else PerfectOracle(ground_truth)
    accounting = AccountingOracle(backend)
    config = QOCOConfig(
        deletion=make_strategy(strategy_name),
        split=make_split(split_name),
        seed=seed,
    )
    system = QOCO(dirty, accounting, config)
    report = system.clean(query)

    upper = deletion_upper_bound(
        query, errors.dirty, errors.wrong_answers
    ) + insertion_upper_bound(query, errors.missing_answers)

    log = accounting.log
    lower = log.count_of([QuestionKind.VERIFY_ANSWER]) + len(
        report.missing_answers_added
    )
    questions = (
        log.cost_of([QuestionKind.VERIFY_FACT])
        + log.cost_of([QuestionKind.VERIFY_CANDIDATE])
        + log.cost_of([QuestionKind.COMPLETE_ASSIGNMENT])
    )
    bar = BarMeasurement(
        figure="mixed",
        group=query.name,
        algorithm=strategy_name,
        lower=lower,
        questions=questions,
        naive_upper=upper,
    )
    return MixedMeasurement(bar=bar, categories=log.category_costs())


# ---------------------------------------------------------------------------
# noise helpers
# ---------------------------------------------------------------------------


def plant_errors(
    ground_truth: Database,
    query: Query,
    n_wrong: int,
    n_missing: int,
    seed: int,
) -> ResultErrors:
    """Deterministically plant result errors for one experiment cell."""
    return inject_result_errors(
        ground_truth, query, n_wrong, n_missing, rng=random.Random(seed)
    )
