"""Oracles, crowds, aggregation, and interaction accounting."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".aggregator": ("Aggregator", "FirstAnswer", "MajorityVote"),
        ".base": ("AccountingOracle", "Oracle", "open_question_cost", "result_question_cost"),
        ".crowd": ("Crowd", "CrowdStats"),
        ".enumeration": ("Chao92Estimator", "CompletionEstimator", "ExactCompletion"),
        ".imperfect": ("ImperfectOracle",),
        ".interactive": ("InteractiveOracle",),
        ".perfect": ("PerfectOracle",),
        ".questions": (
            "CATEGORY_FILL_MISSING", "CATEGORY_VERIFY_ANSWERS", "CATEGORY_VERIFY_TUPLES",
            "CLOSED_KINDS", "OPEN_KINDS", "Interaction", "InteractionLog", "LogSnapshot",
            "QuestionKind", "category_of",
        ),
    },
)
