"""Spawn-safety of everything that crosses the shard process boundary.

Process mode uses the ``spawn`` start method (fresh interpreter, no
inherited state), so every payload must survive pickling *and* decode
identically on the far side.  These tests round-trip the wire objects
through an actual spawned echo process — the strictest check short of a
full cleaning run (which `test_shard_driver.py` covers).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.insertion import InsertionConfig
from repro.core.qoco import QOCOConfig
from repro.core.registry import REGISTRY
from repro.datasets.worldcup import worldcup_partition_spec
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.durability import codec
from repro.durability.codec import CodecError
from repro.query.parser import parse_query
from repro.shard import PartitionSpec, ShardingError, payload_to_database
from repro.shard import wire
from repro.shard.worker import _echo_main

SCHEMA = Schema(
    [
        RelationSchema("m", ("k", "x")),
        RelationSchema("lab", ("x", "y")),
    ]
)

QUERIES = [
    "q(x) :- m(x, y).",
    "q(x, y) :- m(x, y), lab(y, z), y != z.",
    'q(x) :- m(x, y), not lab(y, "w").',
    'q(x) :- m(x, y), lab(y, z), not m(z, "a"), x != "b", y != z.',
]


def _spawn_echo(obj):
    """Round-trip *obj* through a spawned echo process."""
    context = mp.get_context("spawn")
    parent, child = context.Pipe()
    process = context.Process(target=_echo_main, args=(child,), daemon=True)
    process.start()
    child.close()
    try:
        parent.send(obj)
        echoed = parent.recv()
        parent.send("stop")
    finally:
        process.join(timeout=30)
        if process.is_alive():  # pragma: no cover - hang guard
            process.terminate()
            pytest.fail("echo process hung")
    return echoed


#: "trust" is registered through a lambda binding an empty trust table,
#: so its name cannot carry an instance's scores across the wire.
WIRE_DELETIONS = [name for name in REGISTRY.names("deletion") if name != "trust"]


class TestConfigWire:
    @pytest.mark.parametrize("deletion", WIRE_DELETIONS)
    @pytest.mark.parametrize("split", REGISTRY.names("split"))
    def test_roundtrip_all_registered_strategies(self, deletion, split):
        config = QOCOConfig(
            deletion=REGISTRY.resolve("deletion", deletion),
            split=REGISTRY.resolve("split", split),
            insertion=InsertionConfig(max_candidates_per_subquery=5, max_subqueries=9),
            max_iterations=17,
            seed=13,
            backend="columnar",
        )
        obj = wire.config_to_obj(config)
        assert obj["deletion_strategy"] == deletion
        assert obj["split_strategy"] == split
        decoded = wire.config_from_obj(pickle.loads(pickle.dumps(obj)))
        assert wire.config_to_obj(decoded) == obj
        assert type(decoded.deletion) is type(config.deletion)
        assert type(decoded.split) is type(config.split)
        assert decoded.max_iterations == 17 and decoded.seed == 13

    def test_trust_instance_rejected(self):
        from repro.core.heuristics import TrustScoreDeletion

        with pytest.raises(ShardingError, match="deletion"):
            wire.config_to_obj(QOCOConfig(deletion=TrustScoreDeletion({})))

    def test_roundtrip_string_names_and_planner(self):
        config = QOCOConfig(
            deletion="responsibility", split="mincut", planner="bandit", seed=3
        )
        obj = wire.config_to_obj(config)
        assert obj["deletion_strategy"] == "responsibility"
        assert obj["split_strategy"] == "mincut"
        assert obj["planner"] == "bandit"
        decoded = wire.config_from_obj(pickle.loads(pickle.dumps(obj)))
        assert type(decoded.deletion).__name__ == "ResponsibilityDeletion"
        assert type(decoded.split).__name__ == "MinCutSplit"
        assert decoded.planner == "bandit"

    def test_unknown_strategy_name_rejected(self):
        with pytest.raises(ShardingError, match="split"):
            wire.config_to_obj(QOCOConfig(split="no-such-split"))

    def test_planner_instance_rejected(self):
        from repro.plan import BanditPlanner

        with pytest.raises(ShardingError, match="planner"):
            wire.config_to_obj(
                QOCOConfig(planner=BanditPlanner(arms=("mincut",)))
            )

    def test_scheduler_factory_rejected(self):
        with pytest.raises(ShardingError, match="scheduler_factory"):
            wire.config_to_obj(QOCOConfig(scheduler_factory=lambda: None))

    def test_backend_instance_rejected(self):
        from repro.query.backend import resolve_backend

        with pytest.raises(ShardingError, match="backend"):
            wire.config_to_obj(QOCOConfig(backend=resolve_backend("naive")))

    def test_config_obj_survives_spawn(self):
        obj = wire.config_to_obj(QOCOConfig())
        assert _spawn_echo(obj) == obj


class TestQueryWire:
    @pytest.mark.parametrize("text", QUERIES)
    def test_queries_with_negation_and_inequalities_survive_spawn(self, text):
        query = parse_query(text)
        obj = codec.query_to_obj(query)
        echoed = _spawn_echo(obj)
        assert codec.query_from_obj(echoed) == query


class TestPayloadWire:
    def test_shard_payload_survives_spawn(self):
        db = Database(
            SCHEMA,
            [Fact("m", (k, f"x{k}")) for k in range(10)]
            + [Fact("lab", (f"x{k}", "y")) for k in range(10)],
        )
        spec = PartitionSpec.from_obj([{"relation": "m", "position": 0}])
        payloads = spec.partition_payloads(db, 3)
        shards = [payload_to_database(_spawn_echo(p)) for p in payloads]
        union = db.copy()
        # decoded shards cover the database exactly
        m_union = set()
        for shard_db in shards:
            m_union |= shard_db.facts("m")
            assert shard_db.facts("lab") == union.facts("lab")
        assert m_union == union.facts("m")

    def test_question_and_reply_objects_survive_pickle(self):
        query = parse_query(QUERIES[3])
        question = wire.question_to_obj(
            "complete_result", query=query, known=[("a",), ("b",)]
        )
        assert pickle.loads(pickle.dumps(question)) == question
        reply = wire.reply_to_obj("complete_result", ("c",))
        assert wire.reply_from_obj(
            "complete_result", pickle.loads(pickle.dumps(reply))
        ) == ("c",)

    def test_worldcup_spec_obj_survives_spawn(self):
        spec = worldcup_partition_spec()
        assert PartitionSpec.from_obj(_spawn_echo(spec.to_obj())) == spec


class TestSpawnSafeMain:
    STDIN_SCRIPT = """
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.oracle.perfect import PerfectOracle
from repro.query.parser import parse_query
from repro.shard import KeySpec, PartitionSpec, ShardedQOCO

schema = Schema([RelationSchema("m", ("k", "x"))])
db = Database(schema, [Fact("m", (k, f"x{k}")) for k in range(4)])
driver = ShardedQOCO(
    db, PerfectOracle(db.copy()), spec=PartitionSpec((KeySpec("m", 0),)),
    shards=2, mode="process",
)
driver.clean(parse_query("q(k, x) :- m(k, x)."))
"""

    def test_stdin_hosted_parent_fails_fast(self):
        # spawn re-runs __main__ in every worker; a stdin script has no
        # file to re-run, so workers would crash pre-payload and the
        # parent would deadlock in Process.start().  The driver must
        # refuse up front instead (and well inside this test's timeout).
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-"],
            input=self.STDIN_SCRIPT,
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode != 0
        assert "ShardingError" in proc.stderr
        assert "re-importable __main__" in proc.stderr

    def test_file_hosted_parent_passes_the_check(self):
        from repro.shard.driver import _check_spawn_safe_main

        # pytest's __main__ has a real file (or a module spec): no error
        _check_spawn_safe_main()


class TestSessionQueryElision:
    def test_session_query_wires_as_marker(self):
        query = parse_query(QUERIES[0])
        obj = wire.question_to_obj(
            "verify_answer", session_query=query, query=query, answer=("a",)
        )
        assert obj["query"] == wire.SESSION_QUERY
        decoded = wire.question_from_obj(_spawn_echo(obj), session_query=query)
        assert decoded["query"] is query

    def test_other_queries_wire_whole(self):
        session = parse_query(QUERIES[0])
        subquery = parse_query(QUERIES[1])
        obj = wire.question_to_obj(
            "verify_candidate", session_query=session, query=subquery, partial={}
        )
        assert obj["query"] != wire.SESSION_QUERY
        decoded = wire.question_from_obj(obj, session_query=session)
        assert decoded["query"] == subquery

    def test_marker_without_session_query_is_rejected(self):
        query = parse_query(QUERIES[0])
        obj = wire.question_to_obj(
            "verify_answer", session_query=query, query=query, answer=("a",)
        )
        with pytest.raises(CodecError, match="session query"):
            wire.question_from_obj(obj)
