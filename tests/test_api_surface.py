"""The public API surface: snapshot, retired shims, facade parity.

The snapshot lists are the contract: changing ``repro.api.__all__`` or
``repro.__all__`` without updating them here is a CI failure
(the ``api-surface`` check), which is the point — public-surface drift
should be a reviewed decision, not an accident.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.api
from repro.core import QOCO, QOCOConfig, UCQCleaner
from repro.core.parallel import ParallelQOCO
from repro.core.report import Report, ReportLike
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.evaluator import evaluate

API_SURFACE = [
    "clean",
    "clean_parallel",
    "clean_sharded",
    "clean_union",
    "dispatch_clean",
    "evaluate",
    "load_csv",
    "open_session",
    "recover",
    "recover_server",
    "repair",
    "serve",
    "serve_http",
]

PACKAGE_SURFACE = [
    "REGISTRY",
    "TELEMETRY",
    "AccountingOracle",
    "AnswerBoard",
    "Atom",
    "BanditPlanner",
    "CapacityScheduler",
    "Chao92Estimator",
    "CostModel",
    "CleaningSession",
    "Crowd",
    "Database",
    "DatabaseFork",
    "DeletionError",
    "DenialConstraint",
    "DuplicateRows",
    "Edit",
    "ExactCompletion",
    "FD",
    "Fact",
    "ForkError",
    "ImperfectOracle",
    "InMemorySink",
    "Inequality",
    "InsertionError",
    "InteractionLog",
    "JSONLSink",
    "KeySpec",
    "MajorityVote",
    "MinCutSplit",
    "MixedFormats",
    "NaiveSplit",
    "NoisePipeline",
    "NoiseSpec",
    "Oracle",
    "OracleRepairer",
    "Outliers",
    "ParallelQOCO",
    "PartitionSpec",
    "PerfectOracle",
    "ProvenanceSplit",
    "QOCO",
    "QOCOConfig",
    "QOCODeletion",
    "QOCOMinusDeletion",
    "Query",
    "QuestionKind",
    "QuestionPlanner",
    "RandomDeletion",
    "RandomSplit",
    "RegistryError",
    "RelationSchema",
    "RepairBudget",
    "RepairReport",
    "RepairSession",
    "Report",
    "ReportLike",
    "Schema",
    "ServerReport",
    "SessionManager",
    "SessionState",
    "ShardedQOCO",
    "StrategyRegistry",
    "Telemetry",
    "TenantPolicy",
    "TypePollution",
    "UCQCleaner",
    "Var",
    "Violation",
    "api",
    "crowd_add_missing_answer",
    "crowd_remove_wrong_answer",
    "dbgroup_database",
    "delete",
    "evaluate",
    "fact",
    "find_violations",
    "inject_result_errors",
    "insert",
    "make_dirty",
    "parse_fd",
    "parse_query",
    "query_signature",
    "resolve_strategy",
    "standard_noise",
    "telemetry_session",
    "witnesses_for",
    "worldcup_database",
]


class TestSurfaceSnapshot:
    def test_api_all_matches_snapshot(self):
        assert sorted(repro.api.__all__) == API_SURFACE

    def test_package_all_matches_snapshot(self):
        assert sorted(repro.__all__) == sorted(PACKAGE_SURFACE)

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None


def _fresh_import(statement: str) -> list[str]:
    """The modules loaded, or the names bound, after *statement* runs in
    a fresh interpreter that prints them as ``RESULT``."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{statement}\nprint(json.dumps(RESULT))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportFootprint:
    """The package exports are lazy: an import loads what it uses."""

    #: subsystems a shard worker never runs
    NOT_IN_A_WORKER = [
        "repro.api", "repro.server", "repro.service", "repro.dispatch", "repro.datasets",
        "repro.ingest", "repro.constraints", "repro.plan", "repro.crowdsim",
        "repro.experiments", "numpy",
    ]

    def test_import_repro_loads_no_submodule(self):
        loaded = _fresh_import("import repro\nRESULT = sorted(sys.modules)")
        assert [name for name in loaded if name.split(".")[0] == "repro"] == ["repro"]

    def test_shard_worker_loads_only_what_it_runs(self):
        loaded = _fresh_import("import repro.shard.worker\nRESULT = sorted(sys.modules)")
        assert "repro.shard.worker" in loaded
        unexpected = [
            name for name in loaded
            if any(name == top or name.startswith(top + ".") for top in self.NOT_IN_A_WORKER)
        ]
        assert unexpected == []

    def test_names_that_shadow_their_submodule_stay_functions(self):
        # the cleaning core imports repro.query.subquery; that import must
        # not rebind the package's subquery() function to the module
        kinds = _fresh_import(
            "import repro.core.insertion, repro.core.qoco\n"
            "from repro.query import minimize, subquery\n"
            "RESULT = [type(minimize).__name__, type(subquery).__name__]"
        )
        assert kinds == ["function", "function"]

    def test_star_import_binds_the_surface(self):
        bound = _fresh_import("from repro import *\nRESULT = sorted(globals())")
        assert set(PACKAGE_SURFACE) <= set(bound)


class TestDeprecationShims:
    """The shims are retired: each old spelling fails loudly, none warns."""

    def test_union_qoco_name_is_gone(self):
        with pytest.raises(AttributeError):
            repro.UnionQOCO

    def test_parallel_report_name_is_gone(self):
        with pytest.raises(AttributeError):
            repro.ParallelReport

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_positional_split_strategy_is_a_type_error(self, fig1_dirty, fig1_oracle):
        from repro.core.split import NaiveSplit

        with pytest.raises(TypeError, match="QOCOConfig"):
            ParallelQOCO(fig1_dirty, fig1_oracle, NaiveSplit())

    def test_positional_deletion_strategy_is_a_type_error(self, fig1_dirty, fig1_oracle):
        from repro.core.deletion import RandomDeletion

        with pytest.raises(TypeError, match="QOCOConfig"):
            UCQCleaner(fig1_dirty, fig1_oracle, RandomDeletion())

    def test_old_report_names_are_gone(self):
        with pytest.raises(AttributeError):
            repro.CleaningReport
        with pytest.raises(ImportError):
            from repro.core.parallel import ParallelReport  # noqa: F401
        with pytest.raises(ImportError):
            from repro.core.session import CleaningReport  # noqa: F401


class TestUnifiedConfig:
    def test_all_three_loops_accept_the_same_config(self, fig1_dirty, fig1_oracle):
        config = QOCOConfig(seed=7, max_iterations=3)
        assert QOCO(fig1_dirty, fig1_oracle, config).config is config
        assert ParallelQOCO(fig1_dirty, fig1_oracle, config).config is config
        assert UCQCleaner(fig1_dirty, fig1_oracle, config).config is config

    def test_keyword_shims_override_config_fields(self, fig1_dirty, fig1_oracle):
        config = QOCOConfig(seed=7, max_iterations=3)
        qoco = QOCO(fig1_dirty, fig1_oracle, config, max_iterations=9)
        assert qoco.config.max_iterations == 9
        assert qoco.config.seed == 7  # untouched fields pass through
        assert config.max_iterations == 3  # the caller's config is not mutated

    def test_parallel_keywords_map_to_config(self, fig1_dirty, fig1_oracle):
        qoco = ParallelQOCO(
            fig1_dirty, fig1_oracle, completion_width=2, seed=5
        )
        assert qoco.config.completion_width == 2
        assert qoco.completion_width == 2
        assert qoco.config.seed == 5

    def test_reports_satisfy_the_protocol(self):
        report = Report(query_name="q")
        assert isinstance(report, ReportLike)
        assert report.total_cost == 0
        assert "q" in report.summary()


class TestStrategyRegistry:
    """One registry, string names accepted uniformly (the PR 9 redesign)."""

    def test_string_names_resolve_everywhere(self, fig1_dirty, fig1_oracle):
        from repro.core.deletion import QOCOMinusDeletion
        from repro.core.heuristics import ResponsibilityDeletion
        from repro.core.split import MinCutSplit
        from repro.plan import BanditPlanner

        config = QOCOConfig(
            split="mincut", deletion="responsibility", planner="bandit", seed=3
        )
        qoco = QOCO(fig1_dirty, fig1_oracle, config)
        assert isinstance(qoco.split_strategy, MinCutSplit)
        assert isinstance(qoco.deletion_strategy, ResponsibilityDeletion)
        assert isinstance(qoco.planner, BanditPlanner)

        minus = QOCO(fig1_dirty, fig1_oracle, deletion="qoco-")
        assert isinstance(minus.deletion_strategy, QOCOMinusDeletion)

    def test_names_are_case_insensitive_legacy_spelling(self, fig1_dirty, fig1_oracle):
        from repro.core.split import MinCutSplit

        qoco = QOCO(fig1_dirty, fig1_oracle, split="MinCut")
        assert isinstance(qoco.split_strategy, MinCutSplit)

    def test_instances_still_work(self, fig1_dirty, fig1_oracle):
        from repro.core.split import NaiveSplit

        strategy = NaiveSplit()
        qoco = QOCO(fig1_dirty, fig1_oracle, split=strategy)
        assert qoco.split_strategy is strategy

    def test_unknown_name_lists_alternatives(self, fig1_dirty, fig1_oracle):
        from repro.core import REGISTRY, RegistryError

        with pytest.raises(RegistryError, match="mincut"):
            REGISTRY.resolve("split", "does-not-exist")
        with pytest.raises(RegistryError):
            QOCO(fig1_dirty, fig1_oracle, QOCOConfig(split="does-not-exist"))

    def test_registry_enumerates_kinds_and_names(self):
        from repro.core import REGISTRY

        assert {"split", "deletion", "planner"} <= set(REGISTRY.kinds())
        assert "provenance" in REGISTRY.names("split")
        assert "responsibility" in REGISTRY.names("deletion")
        assert "bandit" in REGISTRY.names("planner")

    def test_legacy_config_kwargs_are_type_errors(self, fig1_dirty, fig1_oracle):
        from repro.aggregates import AggregateQOCO
        from repro.core.split import NaiveSplit

        with pytest.raises(TypeError, match="split_strategy"):
            QOCOConfig(split_strategy=NaiveSplit())
        with pytest.raises(TypeError, match="deletion_strategy"):
            QOCOConfig(deletion_strategy="random")
        with pytest.raises(TypeError, match="deletion_strategy"):
            QOCO(fig1_dirty, fig1_oracle, deletion_strategy="random")
        with pytest.raises(TypeError, match="insertion_config"):
            ParallelQOCO(fig1_dirty, fig1_oracle, insertion_config=None)
        with pytest.raises(TypeError, match="split_strategy"):
            AggregateQOCO(fig1_dirty, fig1_oracle, split_strategy="naive")

    def test_unknown_config_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            QOCOConfig(not_a_field=1)

    def test_parallel_and_ucq_accept_string_names(self, fig1_dirty, fig1_oracle):
        from repro.core.split import RandomSplit

        parallel = ParallelQOCO(fig1_dirty, fig1_oracle, split="random")
        assert isinstance(parallel.split_strategy, RandomSplit)
        ucq = UCQCleaner(fig1_dirty, fig1_oracle, deletion="qoco")
        assert type(ucq.deletion_strategy).__name__ == "QOCODeletion"


class TestFacadeParity:
    def test_api_clean_equals_direct_qoco(self, fig1_gt):
        from repro.datasets.figure1 import figure1_dirty
        from repro.workloads import EX1

        direct_db = figure1_dirty()
        direct = QOCO(
            direct_db,
            AccountingOracle(PerfectOracle(fig1_gt)),
            QOCOConfig(seed=0),
        ).clean(EX1)

        facade_db = figure1_dirty()
        facade = repro.api.clean(
            facade_db, EX1, PerfectOracle(fig1_gt), seed=0
        )

        assert facade_db == direct_db
        assert evaluate(EX1, facade_db) == evaluate(EX1, direct_db)
        assert [(e.kind.value, e.fact) for e in facade.edits] == [
            (e.kind.value, e.fact) for e in direct.edits
        ]
        assert facade.log.to_dicts() == direct.log.to_dicts()
        assert facade.summary() == direct.summary()

    def test_api_clean_parses_query_strings(self, fig1_gt):
        from repro.datasets.figure1 import figure1_dirty

        db = figure1_dirty()
        source = 'q(x) :- games(d, x, y, "Final", u), teams(x, "EU").'
        report = repro.api.clean(db, source, PerfectOracle(fig1_gt), seed=0)
        assert report.converged
        assert report.query_name == "q"

    def test_open_session_on_a_bare_database(self, fig1_dirty, fig1_gt):
        from repro.workloads import EX1

        session = repro.api.open_session(
            fig1_dirty, EX1, PerfectOracle(fig1_gt)
        )
        session.manager.run_all()
        assert session.report is not None
        assert session.state.value == "committed"

    def test_serve_returns_a_manager(self, fig1_dirty):
        manager = repro.api.serve(fig1_dirty, max_concurrent=2)
        assert manager.database is fig1_dirty
        assert manager.max_concurrent == 2
