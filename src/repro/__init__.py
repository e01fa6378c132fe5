"""QOCO — query-oriented data cleaning with oracles.

A full reproduction of Bergman, Milo, Novgorodov and Tan,
"Query-Oriented Data Cleaning with Oracles", SIGMOD 2015.

Quickstart — the stable facade is :mod:`repro.api`::

    import repro.api as qoco
    from repro import Database, PerfectOracle, worldcup_database

    ground_truth = worldcup_database()
    dirty = ...                       # your scraped/dirty instance
    report = qoco.clean(
        dirty,
        'q(x) :- games(d, x, y, "Final", u), teams(x, "EU").',
        PerfectOracle(ground_truth),
    )
    print(report.summary())
"""

import importlib as _importlib
import sys as _sys
import typing as _typing

__version__ = "1.1.0"


def _lazy_exports(
    package: str, table: _typing.Mapping[str, _typing.Sequence[str]]
) -> tuple[list[str], _typing.Callable[[str], _typing.Any], _typing.Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*: lazy exports (PEP 562).

    *table* maps each submodule, relative as in ``from .x import``, to
    the names the package re-exports from it; ``"."`` lists submodules
    exported as modules.  ``__all__`` is every name in the table.

    A name's submodule is imported the first time the name is read, and
    the value is cached in the package namespace.  Importing a package
    therefore runs none of its submodules (but see the shadowing names
    below), so ``import repro.shard.worker`` in a spawned shard worker
    loads the modules the worker runs, not the whole of ``repro``.
    """
    home = {name: submodule for submodule, names in table.items() for name in names}
    namespace = _sys.modules[package].__dict__

    def load(name: str) -> _typing.Any:
        submodule = home[name]
        if submodule == ".":
            return _importlib.import_module(f".{name}", package)
        return getattr(_importlib.import_module(submodule, package), name)

    def __getattr__(name: str) -> _typing.Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = load(name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    # The first import of a submodule sets the package attribute of the
    # same name to that submodule, so a name that shadows its own
    # submodule (``repro.query.minimize``) is bound now, not on first read.
    for name, submodule in home.items():
        if submodule == f".{name}":
            namespace[name] = load(name)
    return list(home), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".": ("api",),
        ".core": (
            "QOCO", "REGISTRY", "DeletionError", "InsertionError", "MinCutSplit", "NaiveSplit",
            "ParallelQOCO", "ProvenanceSplit", "QOCOConfig", "QOCODeletion", "QOCOMinusDeletion",
            "RandomDeletion", "RandomSplit", "RegistryError", "Report", "ReportLike",
            "StrategyRegistry", "UCQCleaner", "crowd_add_missing_answer",
            "crowd_remove_wrong_answer", "resolve_strategy",
        ),
        ".plan": (
            "BanditPlanner", "CapacityScheduler", "CostModel", "QuestionPlanner", "query_signature",
        ),
        ".db": (
            "Database", "DatabaseFork", "Edit", "Fact", "ForkError", "RelationSchema", "Schema",
            "delete", "fact", "insert",
        ),
        ".constraints": (
            "FD", "DenialConstraint", "OracleRepairer", "RepairBudget", "RepairReport", "Violation",
            "find_violations", "parse_fd",
        ),
        ".ingest": (
            "DuplicateRows", "MixedFormats", "NoisePipeline", "Outliers", "TypePollution",
            "standard_noise",
        ),
        ".server": (
            "AnswerBoard", "CleaningSession", "RepairSession", "ServerReport", "SessionManager",
            "SessionState", "TenantPolicy",
        ),
        ".oracle": (
            "AccountingOracle", "Chao92Estimator", "Crowd", "ExactCompletion", "ImperfectOracle",
            "InteractionLog", "MajorityVote", "Oracle", "PerfectOracle", "QuestionKind",
        ),
        ".query": (
            "Atom", "Inequality", "Query", "Var", "evaluate", "parse_query", "witnesses_for",
        ),
        ".shard": ("KeySpec", "PartitionSpec", "ShardedQOCO"),
        ".telemetry": ("TELEMETRY", "InMemorySink", "JSONLSink", "Telemetry", "telemetry_session"),
        ".datasets": (
            "NoiseSpec", "dbgroup_database", "inject_result_errors", "make_dirty",
            "worldcup_database",
        ),
    },
)
