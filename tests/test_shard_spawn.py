"""Spawn-safety of everything that crosses the shard process boundary,
and the driver's choice between forked and spawned workers.

Off Linux, or with a second thread running, process mode uses the
``spawn`` start method (fresh interpreter, no inherited state), so every
payload must survive pickling *and* decode identically on the far side.
These tests round-trip the wire objects through an actual spawned echo
process — the strictest check short of a full cleaning run (which
`test_shard_driver.py` covers).  A forked worker reads the same wire
objects from the same pipe.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import time

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

    def test_non_default_constructor_arguments_rejected(self):
        from repro.core.split import MinCutSplit, ProvenanceSplit, RandomSplit

        # the name "provenance" would rebuild a RandomSplit fallback
        with pytest.raises(ShardingError, match="split"):
            wire.config_to_obj(
                QOCOConfig(split=ProvenanceSplit(fallback=MinCutSplit()))
            )
        for default in (ProvenanceSplit(), ProvenanceSplit(fallback=RandomSplit())):
            obj = wire.config_to_obj(QOCOConfig(split=default))
            assert obj["split_strategy"] == "provenance"

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


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _processes_with(marker: str) -> list[int]:
    """Live processes whose environment carries *marker* (Linux /proc)."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc to find leftover workers")
    found = []
    needle = marker.encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read():
                    found.append(int(entry))
        except OSError:  # exited meanwhile, or not ours to read
            continue
    return found


#: a process-mode clean of a 4-fact database, as a script without a
#: ``__main__`` guard
CLEAN_SCRIPT = """
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

#: an idle thread makes the driver spawn its workers, not fork them
IDLE_THREAD = """
import threading
threading.Thread(target=threading.Event().wait, daemon=True).start()
"""


class TestSpawnSafeMain:
    STDIN_SCRIPT = IDLE_THREAD + CLEAN_SCRIPT

    def test_stdin_hosted_parent_fails_fast(self):
        # spawn re-runs __main__ in every worker; a stdin script has no
        # file to re-run, so workers would crash before reading their
        # payloads.  The driver must refuse up front, naming the cause
        # (and well inside this test's timeout).
        env = _env_with_src()
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

    def test_unguarded_file_script_names_the_guard(self, tmp_path):
        # spawn re-runs a file __main__ in every worker; without an
        # `if __name__ == "__main__":` guard each worker starts the clean
        # again while it imports, fails and exits.  The parent must end
        # in a ShardingError that names the guard and leave no worker.
        script = tmp_path / "unguarded.py"
        script.write_text(self.STDIN_SCRIPT, encoding="utf-8")
        marker = f"unguarded-{os.getpid()}-{time.time_ns()}"
        env = _env_with_src()
        env["REPRO_SPAWN_TEST_MARKER"] = marker
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode != 0
        final = proc.stderr.strip().splitlines()[-1]
        assert final.startswith("repro.shard.partition.ShardingError: shard ")
        assert "exit code 1" in final
        assert 'if __name__ == "__main__":' in final
        deadline = time.monotonic() + 30
        while _processes_with(marker) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _processes_with(marker) == []

    def test_guard_hint_only_for_exit_code_one(self, tmp_path, monkeypatch):
        # an unguarded script's workers exit with code 1; a worker killed
        # by a signal (negative code) gets no guess about the guard
        from repro.shard import driver

        script = tmp_path / "guarded.py"
        script.write_text("", encoding="utf-8")
        monkeypatch.setattr(driver, "_main_path", lambda: str(script))

        class Exited:
            def __init__(self, exitcode):
                self.exitcode = exitcode

            def join(self, timeout=None):
                pass

        for exitcode, hinted in ((1, True), (-9, False), (2, False)):
            error = driver._worker_exited(0, Exited(exitcode), "without a result", "spawn")
            assert f"(exit code {exitcode})" in str(error)
            assert ('if __name__ == "__main__":' in str(error)) is hinted
        # a forked worker re-runs no script
        error = driver._worker_exited(0, Exited(1), "without a result", "fork")
        assert 'if __name__ == "__main__":' not in str(error)
        # a worker that closed its pipe but outlived the wait has not exited
        error = driver._worker_exited(0, Exited(None), "without a result", "spawn")
        assert "exited" not in str(error) and "still running" in str(error)

    def test_file_hosted_parent_passes_the_check(self):
        from repro.shard.driver import _check_spawn_safe_main

        # pytest's __main__ has a real file (or a module spec): no error
        _check_spawn_safe_main()


RULE_SCRIPT = """
import threading
from repro.shard.driver import _start_method

print(_start_method())
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
print(_start_method())
stop.set()
thread.join()
print(_start_method())
"""

#: a process-mode clean whose parent stalls on its workers' first
#: question; ``spawn`` as the first argument starts an idle thread first
STALLED_PARENT_SCRIPT = """
import sys
import threading
import time

from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.oracle.perfect import PerfectOracle
from repro.query.parser import parse_query
from repro.shard import KeySpec, PartitionSpec, ShardedQOCO
from repro.shard.router import QuestionRouter


def stall(self, shard, question):
    print("asked", flush=True)
    time.sleep(600)


if __name__ == "__main__":
    if sys.argv[1] == "spawn":
        threading.Thread(target=threading.Event().wait, daemon=True).start()
    QuestionRouter.answer = stall
    schema = Schema([RelationSchema("m", ("k", "x"))])
    truth = Database(schema, [Fact("m", (k, f"x{k}")) for k in range(4)])
    dirty = Database(schema, [Fact("m", (k, f"x{k}")) for k in range(24)])
    ShardedQOCO(
        dirty, PerfectOracle(truth), spec=PartitionSpec((KeySpec("m", 0),)),
        shards=2, mode="process",
    ).clean(parse_query("q(k, x) :- m(k, x)."))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork is Linux-only here")
class TestStartMethod:
    def test_fork_unless_another_thread_runs(self):
        proc = subprocess.run(
            [sys.executable, "-c", RULE_SCRIPT], capture_output=True, text=True,
            timeout=60, env=_env_with_src(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["fork", "spawn", "fork"]

    def test_stdin_hosted_parent_cleans_under_fork(self):
        # a forked worker re-runs no __main__, so neither a stdin script
        # nor a missing guard stops the clean
        proc = subprocess.run(
            [sys.executable, "-"], input=CLEAN_SCRIPT, capture_output=True,
            text=True, timeout=60, env=_env_with_src(),
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path, method):
        # with the parent SIGKILLed while its workers wait on a question,
        # each worker's recv() must see EOF: no forked worker may hold a
        # copy of a parent end of any worker's pipe
        script = tmp_path / "stalled.py"
        script.write_text(STALLED_PARENT_SCRIPT, encoding="utf-8")
        marker = f"stalled-{method}-{os.getpid()}-{time.time_ns()}"
        env = _env_with_src()
        env["REPRO_SPAWN_TEST_MARKER"] = marker
        proc = subprocess.Popen(
            [sys.executable, str(script), method], stdout=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "asked"
            assert len(set(_processes_with(marker)) - {proc.pid}) >= 2
        finally:
            proc.kill()
            proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while _processes_with(marker) and time.monotonic() < deadline:
            time.sleep(0.1)
        proc.stdout.close()
        assert _processes_with(marker) == []


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
