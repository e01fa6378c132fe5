"""QOCO's cleaning algorithms (Algorithms 1-3) and split strategies."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".deletion": (
            "DeletionError", "DeletionStrategy", "QOCODeletion", "QOCOMinusDeletion",
            "RandomDeletion", "crowd_remove_wrong_answer",
        ),
        ".insertion": ("InsertionConfig", "InsertionError", "crowd_add_missing_answer"),
        ".composite": ("crowd_remove_wrong_answer_composite",),
        ".constraints": ("ConstraintCleaner", "ConstraintRepairError", "RepairReport"),
        ".heuristics": ("ResponsibilityDeletion", "TrustScoreDeletion", "frequency_trust"),
        ".negation": ("add_missing_answer_with_negation", "remove_wrong_answer_with_negation"),
        ".parallel": ("ParallelQOCO", "RoundScheduler"),
        ".qoco": ("QOCO", "QOCOConfig", "resolve_config", "resolve_planner"),
        ".registry": ("REGISTRY", "RegistryError", "StrategyRegistry", "resolve_strategy"),
        ".report": ("Report", "ReportLike"),
        ".ucq": ("UCQCleaner", "add_missing_answer_union", "remove_wrong_answer_union"),
        ".split": ("MinCutSplit", "NaiveSplit", "ProvenanceSplit", "RandomSplit", "SplitStrategy"),
    },
)
