"""Question tasks: the form every cleaning loop runs Algorithms 1 and 2 in.

Algorithm 1 (:func:`repro.core.deletion.removal_task`) and Algorithm 2
(:func:`repro.core.insertion.insertion_task`) are written once, as
generators that yield one request per crowd question and receive its
answer:

* ``("verify_fact", fact)``                → bool
* ``("verify_candidate", query, partial)`` → bool
* ``("complete", query, partial)``         → assignment or None
* ``("remember", fact, value)``            → None (free inference, no slot)

and return their edits.  The round loop also posts
``("verify_answer", query, answer)`` and ``("complete_result", query,
known)`` requests of its own.  :func:`drive` runs one task against an
oracle (the sequential loop); :class:`~repro.core.parallel.RoundScheduler`
runs many in rounds (Appendix B).  Both answer through :func:`ask`.
"""

from __future__ import annotations

from typing import Generator

from ..db.edits import Edit
from ..oracle.base import AccountingOracle

Request = tuple
Task = Generator[Request, object, list[Edit]]


def ask(oracle: AccountingOracle, request: Request):
    """Answer one request with the matching oracle call."""
    kind = request[0]
    if kind == "verify_fact":
        return oracle.verify_fact(request[1])
    if kind == "remember":
        return oracle.remember_fact(request[1], request[2])
    if kind == "verify_candidate":
        return oracle.verify_candidate(request[1], request[2])
    if kind == "complete":
        return oracle.complete_assignment(request[1], request[2])
    if kind == "verify_answer":
        return oracle.verify_answer(request[1], request[2])
    if kind == "complete_result":
        return oracle.complete_result(request[1], request[2])
    raise ValueError(f"unknown request {request!r}")


def drive(task: Task, oracle: AccountingOracle) -> list[Edit]:
    """Run *task* to completion, one question at a time; return its edits."""
    answer = None
    try:
        while True:
            answer = ask(oracle, task.send(answer))
    except StopIteration as stop:
        return stop.value
