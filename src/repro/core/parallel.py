"""The parallelized main loop (Section 6.2 and the paper's Appendix B).

"We would like to be able to maximize the use of all available crowd
members at any point, to speed up the computation.  Thus, we run the
deletion and insertion parts in parallel ...  We further use parallel
foreach loops, in both deletion and insertion components.  We verify the
correctness of all tuples in Q(D) at the same time, or post together
multiple completion questions."

Appendix B only reschedules Algorithms 1-3, so this module defines
neither algorithm: it runs the same question tasks as the sequential
loop (:func:`repro.core.deletion.removal_task` and
:func:`repro.core.insertion.insertion_task`, see
:mod:`repro.core.tasks`) in *rounds*: every active task (one per
wrong/missing answer) contributes its next question to the round, the
whole round is posted to the crowd together, and the answers advance
every task at once.  The number of rounds is the wall-clock proxy (each
round costs one crowd latency regardless of how many questions it
carries) — the quantity the crowd simulator prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..db.edits import Edit
from ..oracle.base import AccountingOracle
from ..query.ast import Query
from ..query.evaluator import Answer
from ..telemetry import TELEMETRY as _TELEMETRY
from .deletion import DeletionError, removal_task
from .insertion import InsertionError, insertion_task
from .qoco import QOCO
from .report import Report
from .tasks import Request, Task, ask


def _metered_task(task: Task, callback: Callable[[int, int], None]) -> Task:
    """Forward *task* transparently, reporting its question count on exit.

    Counts every non-free yield (``remember`` requests cost no crowd
    slot) and invokes ``callback(questions, questions)`` once the task
    finishes — normally or with a deletion/insertion error.  The wrapper
    forwards the generator protocol unchanged, so scheduling and answers
    are bit-identical to running the bare task.
    """
    questions = 0
    try:
        answer = None
        request = next(task)
        while True:
            if request[0] != "remember":
                questions += 1
            answer = yield request
            request = task.send(answer)
    except StopIteration as stop:
        callback(questions, questions)
        return stop.value
    except (DeletionError, InsertionError):
        callback(questions, questions)
        raise


# ---------------------------------------------------------------------------
# the round scheduler
# ---------------------------------------------------------------------------


@dataclass
class _Running:
    task: Task
    pending: Optional[Request] = None
    result: Optional[list[Edit]] = None
    failed: bool = False


class RoundScheduler:
    """Advances every active task one question per round."""

    def __init__(self, oracle: AccountingOracle) -> None:
        self.oracle = oracle
        self.rounds = 0
        self.peak_width = 0

    def tick(self, width: int) -> None:
        """Account one crowd round carrying *width* questions."""
        self.rounds += 1
        self.peak_width = max(self.peak_width, width)
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("parallel.rounds")
            tel.observe("parallel.round_width", width)

    def run(self, tasks: list[Task]) -> list[Optional[list[Edit]]]:
        """Run tasks to completion; results align with *tasks* (``None``
        marks a task that failed with :class:`DeletionError`)."""
        running = [_Running(task) for task in tasks]
        _TELEMETRY.count("parallel.tasks", len(tasks))
        for item in running:
            self._advance(item, None)
        while any(item.pending is not None for item in running):
            batch = [item for item in running if item.pending is not None]
            self.tick(len(batch))
            # "post together": collect the whole round before advancing
            answers = self.answer_batch([item.pending for item in batch])
            for item, answer in zip(batch, answers):
                self._advance(item, answer)
        return [None if item.failed else (item.result or []) for item in running]

    def answer_batch(self, requests: list[Request]) -> list:
        """Answer one round's worth of requests, in order.

        The synchronous default consults the accounting oracle one
        request at a time; :class:`repro.dispatch.DispatchRoundScheduler`
        overrides this to route the whole round through the live
        dispatch engine (workers, latency, faults, dedup, budgets).
        """
        return [ask(self.oracle, request) for request in requests]

    def _advance(self, item: _Running, answer) -> None:
        """Send *answer* to the task and run it to its next crowd question
        (``remember`` requests are answered on the spot: no slot)."""
        try:
            request = item.task.send(answer)
            while request[0] == "remember":
                request = item.task.send(ask(self.oracle, request))
            item.pending = request
        except StopIteration as stop:
            item.pending = None
            item.result = stop.value if stop.value is not None else []
        except (DeletionError, InsertionError):
            item.pending = None
            item.failed = True


# ---------------------------------------------------------------------------
# the parallel main loop
# ---------------------------------------------------------------------------


class ParallelQOCO(QOCO):
    """Algorithm 3 with the Appendix-B parallel modifications.

    A :class:`~repro.core.qoco.QOCO` whose loop posts its questions in
    rounds: it shares the sequential loop's configuration, ``Q(D)``
    reads, maintained-answer engine and query minimization, and runs the
    same deletion and insertion tasks.
    """

    _span = "parallel.clean"

    @property
    def completion_width(self) -> int:
        """``COMPL(Q(D))`` questions posted together per wave."""
        return self.config.completion_width

    def _clean_loop(self, query: Query, report: Report) -> None:
        # the config's scheduler factory is the seam where repro.dispatch
        # plugs in its live engine (workers/faults/budgets)
        scheduler = (self.config.scheduler_factory or RoundScheduler)(self.oracle)
        verified: set[Answer] = set()
        max_iterations = self.config.max_iterations
        first = True
        while first or (self._answers(query) - verified):
            if report.iterations >= max_iterations:
                report.converged = False
                break
            first = False
            report.iterations += 1
            _TELEMETRY.count("parallel.iterations")

            # Wave 1: verify all unverified answers at the same time.
            answers = sorted(self._answers(query) - verified, key=repr)
            wrong: list[Answer] = []
            if answers:
                scheduler.tick(len(answers))
                replies = scheduler.answer_batch(
                    [("verify_answer", query, answer) for answer in answers]
                )
                for answer, truthful in zip(answers, replies):
                    if truthful:
                        verified.add(answer)
                    else:
                        wrong.append(answer)

            # Wave 2: all removals in parallel.
            if wrong:
                evaluator = self._make_evaluator(query, self.database)
                tasks = []
                for answer in wrong:
                    witnesses = self._witnesses(query, answer)
                    if witnesses is None:
                        witnesses = [frozenset(w) for w in evaluator.witnesses(answer)]
                    tasks.append(removal_task(
                        query, answer, witnesses, self.deletion_strategy, self.rng
                    ))
                for answer, edits in zip(wrong, scheduler.run(tasks)):
                    if edits is None:
                        report.converged = False
                        continue
                    if edits:
                        self.database.apply(edits)
                        report.edits += edits
                        report.wrong_answers_removed.append(answer)

            # Waves 3+4, repeated: post `completion_width` completion
            # questions together, insert the found answers in parallel,
            # until a wave comes back empty.
            for _ in range(max_iterations * 4):
                missing: list[Answer] = []
                known = set(self._answers(query))
                posted = 0
                for _ in range(self.completion_width):
                    (found,) = scheduler.answer_batch(
                        [("complete_result", query, frozenset(known))]
                    )
                    posted += 1
                    if found is None:
                        break
                    known.add(found)
                    if not self._answer_alive(query, found):
                        missing.append(found)
                scheduler.tick(posted)
                if not missing:
                    break
                tasks = []
                for answer in missing:
                    split, choice = self._choose_split(query)
                    task = insertion_task(
                        query, self.database, answer, split, self.rng,
                        self.config.insertion, self._present(query, answer),
                    )
                    if choice is not None:
                        # The parallel scheduler batches oracle calls, so
                        # per-task cost is metered by question count.
                        task = _metered_task(
                            task,
                            lambda cost, questions, p=self.planner, c=choice: p.observe(
                                c, cost=cost, questions=questions
                            ),
                        )
                    tasks.append(task)
                for answer, edits in zip(missing, scheduler.run(tasks)):
                    if edits is None:
                        report.converged = False
                        continue
                    report.edits += edits
                    report.missing_answers_added.append(answer)
                    verified.add(answer)

        report.rounds = scheduler.rounds
        report.peak_width = scheduler.peak_width
        # dispatched schedulers carry the simulated wall-clock and may
        # have degraded (budget exhausted / questions lost to faults)
        report.wall_clock = getattr(scheduler, "wall_clock", 0.0)
        if getattr(scheduler, "degraded", False):
            report.converged = False
