"""COUNT aggregate views (a tractable slice of the §9 future work).

"We plan to extend QOCO by supporting richer view languages, such as
queries with aggregates...  Aggregates introduce significant
complications as there are potentially numerous ways to achieve the
same aggregate (e.g., to SUM to 100)."

COUNT is the aggregate where that obstacle vanishes: a group's count is
wrong exactly when the group has wrong or missing *base answers*, and
each of those is one of the paper's two target actions.  So a COUNT
view cleans by driving Algorithms 1/2 on the base query restricted to
the group — no new question types, no search over ways-to-sum.

SUM/AVG/MIN/MAX remain out of scope here, as in the paper.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

from ..core.deletion import DeletionError, DeletionStrategy, QOCODeletion, crowd_remove_wrong_answer
from ..core.insertion import InsertionError, crowd_add_missing_answer
from ..core.registry import REGISTRY
from ..core.report import Report
from ..core.split import ProvenanceSplit, SplitStrategy
from ..db.database import Database
from ..db.tuples import Constant
from ..oracle.base import AccountingOracle
from ..query.ast import Query, QueryError, Var
from ..query.evaluator import Answer, Evaluator

#: A group key (the values of the group-by columns).
Group = tuple[Constant, ...]


@dataclass(frozen=True)
class CountView:
    """``SELECT g..., COUNT(DISTINCT rest...) FROM base GROUP BY g...``

    The base query's head is split at *group_arity*: the prefix is the
    group key, the suffix the counted tuple.  With ``group_arity == 0``
    the view is a single global count.
    """

    base: Query
    group_arity: int

    def __post_init__(self) -> None:
        if not 0 <= self.group_arity <= len(self.base.head):
            raise QueryError(
                f"group arity {self.group_arity} out of range for head of "
                f"arity {len(self.base.head)}"
            )
        if self.group_arity == len(self.base.head):
            raise QueryError("no counted columns: the view would be the base query")

    @property
    def name(self) -> str:
        return f"count:{self.base.name}"

    def evaluate(self, database: Database) -> dict[Group, int]:
        """Counts of distinct counted-suffixes per group (groups with
        count 0 are absent, matching SQL's GROUP BY)."""
        counts: Counter = Counter()
        seen: set[Answer] = set()
        for answer in Evaluator(self.base, database).answers():
            if answer in seen:
                continue
            seen.add(answer)
            counts[answer[: self.group_arity]] += 1
        return dict(counts)

    def restricted_base(self, group: Group) -> Query:
        """The base query with the group key substituted in.

        Head keeps only the counted columns, so its answers are the
        group's counted tuples.
        """
        if len(group) != self.group_arity:
            raise QueryError(f"group {group!r} has wrong arity")
        binding = {}
        for term, value in zip(self.base.head[: self.group_arity], group):
            if isinstance(term, Var):
                if binding.get(term, value) != value:
                    raise QueryError(f"group {group!r} conflicts on {term}")
                binding[term] = value
            elif term != value:
                raise QueryError(f"group {group!r} conflicts with head constant")
        substituted = self.base.substitute(binding)
        head = substituted.head[self.group_arity :]
        return Query(
            head=head,
            atoms=substituted.atoms,
            inequalities=substituted.inequalities,
            name=f"{self.base.name}|{','.join(map(str, group))}",
        )


class AggregateQOCO:
    """Cleans a COUNT view by cleaning its base answers group by group."""

    def __init__(
        self,
        database: Database,
        oracle: AccountingOracle,
        deletion: Optional[Union[str, DeletionStrategy]] = None,
        split: Optional[Union[str, SplitStrategy]] = None,
        seed: Optional[int] = None,
        max_rounds: int = 10,
    ) -> None:
        self.database = database
        self.oracle = (
            oracle if isinstance(oracle, AccountingOracle) else AccountingOracle(oracle)
        )
        self.deletion_strategy = (
            REGISTRY.resolve("deletion", deletion) if deletion is not None
            else QOCODeletion()
        )
        self.split_strategy = (
            REGISTRY.resolve("split", split) if split is not None
            else ProvenanceSplit()
        )
        self.rng = random.Random(seed)
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    def clean_group(self, view: CountView, group: Group) -> Report:
        """Fix one group's count (the user's target action: "this count
        looks wrong")."""
        restricted = view.restricted_base(group)
        report = Report(query_name=f"{view.name}{group}", log=self.oracle.log)
        for _ in range(self.max_rounds):
            changed = False
            # wrong counted tuples inflate the count
            for answer in sorted(
                Evaluator(restricted, self.database).answers(), key=repr
            ):
                if self.oracle.verify_answer(restricted, answer):
                    continue
                try:
                    edits = crowd_remove_wrong_answer(
                        restricted, self.database, answer, self.oracle,
                        strategy=self.deletion_strategy, rng=self.rng,
                    )
                except DeletionError:
                    report.converged = False
                    continue
                report.edits += edits
                report.wrong_answers_removed.append(group + answer)
                changed = True
            # missing counted tuples deflate it
            while True:
                current = Evaluator(restricted, self.database).answers()
                missing = self.oracle.complete_result(restricted, current)
                if missing is None:
                    break
                if missing in current:
                    continue
                try:
                    edits = crowd_add_missing_answer(
                        restricted, self.database, missing, self.oracle,
                        split=self.split_strategy, rng=self.rng,
                    )
                except InsertionError:
                    report.converged = False
                    break
                report.edits += edits
                report.missing_answers_added.append(group + missing)
                changed = True
            report.iterations += 1
            if not changed:
                break
        return report

    def clean(self, view: CountView) -> Report:
        """Fix every group, including groups absent from the dirty view.

        Groups visible in the dirty view are cleaned directly; groups
        that exist only in the ground truth are discovered through
        ``COMPL`` on the base query (a missing group is just a missing
        base answer with a new prefix) until the probe comes back empty.
        """
        total = Report(query_name=view.name, log=self.oracle.log)

        def merge(report: Report) -> None:
            total.edits += report.edits
            total.iterations += report.iterations
            total.wrong_answers_removed += report.wrong_answers_removed
            total.missing_answers_added += report.missing_answers_added
            total.converged = total.converged and report.converged

        cleaned: set[Group] = set()
        for group in sorted(view.evaluate(self.database), key=repr):
            merge(self.clean_group(view, group))
            cleaned.add(group)

        probes = 0
        while probes < self.max_rounds * 10:
            current = Evaluator(view.base, self.database).answers()
            missing = self.oracle.complete_result(view.base, current)
            probes += 1
            if missing is None:
                break
            group = missing[: view.group_arity]
            if group in cleaned:
                # the group was cleaned yet an answer is still missing —
                # treat defensively and re-clean once
                cleaned.discard(group)
            merge(self.clean_group(view, group))
            cleaned.add(group)
        return total
