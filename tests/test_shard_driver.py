"""End-to-end tests for `ShardedQOCO` (inline and process modes, process
mode with forked and with spawned workers).

The load-bearing property throughout: on a shardable query, the merged
sharded clean is **bit-identical** (``state_digest``) to a
single-process QOCO clean of the same dirty database, for any shard
count, because every witness is confined to one shard and all oracle
completions are answered by the parent.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.core.qoco import QOCO, QOCOConfig
from repro.datasets.worldcup import (
    WorldCupConfig,
    inject_fake_champions,
    worldcup_database,
    worldcup_partition_spec,
    worldcup_years,
)
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.dispatch.dedup import AnswerBoard
from repro.oracle.perfect import PerfectOracle
from repro.query.parser import parse_query
from repro.shard import (
    KeySpec,
    PartitionSpec,
    ShardedQOCO,
    ShardingError,
    payload_to_database,
)
from repro.shard import driver, worker
from repro.telemetry import telemetry_session
from repro.telemetry.sinks import Sink

Q3 = parse_query(
    'q3(x) :- games(d1, x, y, s1, u1), stages(s1, "KO"), teams(x, c), c != "AS".'
)

SCHEMA = Schema(
    [
        RelationSchema("m", ("k", "x")),
        RelationSchema("lab", ("x", "y")),
    ]
)
SPEC = PartitionSpec((KeySpec("m", 0),))
QP = parse_query("qp(k, x) :- m(k, x), lab(x, y).")


def _db(m_rows, lab_rows):
    return Database(
        SCHEMA,
        [Fact("m", tuple(row)) for row in m_rows]
        + [Fact("lab", tuple(row)) for row in lab_rows],
    )


def _reference_clean(dirty, truth, query, **overrides):
    """Single-process QOCO applied back onto a copy of *dirty*."""
    merged = dirty.copy()
    fork = merged.fork()
    report = QOCO(fork, PerfectOracle(truth), **overrides).clean(query)
    merged.apply_exported(fork.export_edit_log())
    return merged, report


@pytest.fixture(scope="module")
def worldcup_pair():
    config = WorldCupConfig()
    truth = worldcup_database(config)
    dirty = truth.copy()
    inject_fake_champions(dirty, worldcup_years(config)[:6])
    return truth, dirty


class TestInlineMode:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_digest_matches_unsharded(self, worldcup_pair, shards):
        truth, dirty = worldcup_pair
        reference, ref_report = _reference_clean(dirty, truth, Q3)
        merged = dirty.copy()
        sharded = ShardedQOCO(
            merged,
            PerfectOracle(truth),
            spec=worldcup_partition_spec(),
            shards=shards,
            mode="inline",
            verify_merge=True,
        )
        report = sharded.clean(Q3)
        assert merged.state_digest() == reference.state_digest()
        assert report.converged
        assert report.edits_applied == len(ref_report.edits)
        wrong = sum(o.wrong_answers_removed for o in report.outcomes)
        assert wrong == len(ref_report.wrong_answers_removed)

    def test_insertion_across_shards(self):
        # ground truth answers missing from two different shards — each
        # must be repaired in its home shard and survive the merge
        truth = _db([(k, f"x{k}") for k in range(8)], [(f"x{k}", "y") for k in range(8)])
        dirty = _db(
            [(k, f"x{k}") for k in range(8) if k not in (2, 5)],
            [(f"x{k}", "y") for k in range(8)],
        )
        merged = dirty.copy()
        report = ShardedQOCO(
            merged,
            PerfectOracle(truth),
            spec=SPEC,
            shards=4,
            mode="inline",
            verify_merge=True,
        ).clean(QP)
        assert merged.state_digest() == truth.state_digest()
        assert sum(o.missing_answers_added for o in report.outcomes) == 2

    def test_mixed_wrong_and_missing(self):
        truth = _db([(k, f"x{k}") for k in range(6)], [(f"x{k}", "y") for k in range(6)])
        dirty = _db(
            [(k, f"x{k}") for k in range(6) if k != 3] + [(7, "x0"), (9, "x1")],
            [(f"x{k}", "y") for k in range(6)],
        )
        reference, _ = _reference_clean(dirty, truth, QP)
        merged = dirty.copy()
        ShardedQOCO(
            merged, PerfectOracle(truth), spec=SPEC, shards=3, mode="inline"
        ).clean(QP)
        assert merged.state_digest() == reference.state_digest()
        assert merged.state_digest() == truth.state_digest()

    def test_replicated_only_query_runs_on_one_shard(self):
        truth = _db([(1, "x1")], [("x1", "y"), ("x2", "y")])
        dirty = _db([(1, "x1")], [("x1", "y"), ("x2", "y"), ("bad", "y")])
        q = parse_query("q(x) :- lab(x, y).")
        merged = dirty.copy()
        report = ShardedQOCO(
            merged, PerfectOracle(truth), spec=SPEC, shards=4, mode="inline"
        ).clean(q)
        assert merged.state_digest() == truth.state_digest()
        # only shard 0 ran
        assert {o.shard for o in report.outcomes} == {0}

    def test_clean_database_is_a_noop(self, worldcup_pair):
        truth, _ = worldcup_pair
        merged = truth.copy()
        report = ShardedQOCO(
            merged, PerfectOracle(truth), spec=worldcup_partition_spec(),
            shards=2, mode="inline",
        ).clean(Q3)
        assert report.edits_applied == 0
        assert merged.state_digest() == truth.state_digest()

    def test_unshardable_query_rejected(self):
        spec = PartitionSpec((KeySpec("m", 0), KeySpec("lab", 0)))
        with pytest.raises(ShardingError, match="not shardable"):
            ShardedQOCO(
                _db([], []), PerfectOracle(_db([], [])), spec=spec,
                shards=2, mode="inline",
            ).clean(QP)

    def test_invalid_construction(self):
        db = _db([], [])
        with pytest.raises(ShardingError, match="at least one shard"):
            ShardedQOCO(db, PerfectOracle(db), spec=SPEC, shards=0)
        with pytest.raises(ShardingError, match="mode"):
            ShardedQOCO(db, PerfectOracle(db), spec=SPEC, mode="thread")
        with pytest.raises(ShardingError, match="oracle_latency"):
            ShardedQOCO(db, PerfectOracle(db), spec=SPEC, oracle_latency=-1.0)

    def test_oracle_latency_is_digest_neutral(self):
        # the simulated crowd delay slows the clean but must not change
        # a single question, edit, or the merged digest
        truth = _db([(k, f"x{k}") for k in range(6)], [(f"x{k}", "y") for k in range(6)])
        dirty = _db(
            [(k, f"x{k}") for k in range(6) if k != 3] + [(7, "x0")],
            [(f"x{k}", "y") for k in range(6)],
        )
        results = []
        for latency in (0.0, 0.001):
            merged = dirty.copy()
            report = ShardedQOCO(
                merged, PerfectOracle(truth), spec=SPEC, shards=3,
                mode="inline", oracle_latency=latency,
            ).clean(QP)
            results.append((merged.state_digest(), report.total_cost))
        assert results[0] == results[1]
        assert results[0][0] == truth.state_digest()

    def test_answer_board_dedups_across_drivers(self):
        truth = _db([(k, f"x{k}") for k in range(6)], [(f"x{k}", "y") for k in range(6)])
        dirty = _db(
            [(k, f"x{k}") for k in range(6)] + [(8, "x0")],
            [(f"x{k}", "y") for k in range(6)],
        )
        board = AnswerBoard()
        first = dirty.copy()
        r1 = ShardedQOCO(
            first, PerfectOracle(truth), spec=SPEC, shards=2, mode="inline",
            board=board,
        ).clean(QP)
        assert r1.total_cost > 0
        second = dirty.copy()
        r2 = ShardedQOCO(
            second, PerfectOracle(truth), spec=SPEC, shards=2, mode="inline",
            board=board,
        ).clean(QP)
        assert second.state_digest() == first.state_digest()
        # everything the second run asks is already on the board
        assert r2.total_cost < r1.total_cost

    def test_report_summary_mentions_shards(self, worldcup_pair):
        truth, dirty = worldcup_pair
        merged = dirty.copy()
        report = ShardedQOCO(
            merged, PerfectOracle(truth), spec=worldcup_partition_spec(),
            shards=2, mode="inline",
        ).clean(Q3)
        text = report.summary()
        assert "2 shard(s)" in text and "inline" in text


def _record_starts(monkeypatch, method: str, after=None) -> list:
    """Record every worker process *method*'s context starts, in order,
    calling ``after(process)`` once each has started."""
    process_class = mp.get_context(method).Process
    start = process_class.start
    started = []

    def recording(process):
        start(process)
        started.append(process)
        if after is not None:
            after(process)

    monkeypatch.setattr(process_class, "start", recording)
    return started


class _PidSink(Sink):
    """Appends its process's pid to a file on every event, unbuffered,
    including its flush, its close and its finalizer."""

    def __init__(self, path) -> None:
        self.path = path

    def _mark(self, *_) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")

    on_span = on_counter = on_observation = flush = close = __del__ = _mark


class TestProcessMode:
    """Process mode with spawned workers; :class:`TestForkedProcessMode`
    runs the same tests with forked ones."""

    START_METHOD = "spawn"

    @pytest.fixture(autouse=True)
    def start_method(self, monkeypatch):
        if self.START_METHOD == "fork" and not sys.platform.startswith("linux"):
            pytest.skip("the driver forks workers only on Linux")
        monkeypatch.setattr(driver, "_start_method", lambda: self.START_METHOD)

    def test_digest_matches_inline(self):
        truth = _db([(k, f"x{k}") for k in range(8)], [(f"x{k}", "y") for k in range(8)])
        dirty = _db(
            [(k, f"x{k}") for k in range(8) if k != 2] + [(11, "x0")],
            [(f"x{k}", "y") for k in range(8)],
        )
        inline = dirty.copy()
        inline_report = ShardedQOCO(
            inline, PerfectOracle(truth), spec=SPEC, shards=2, mode="inline"
        ).clean(QP)
        procs = dirty.copy()
        proc_report = ShardedQOCO(
            procs, PerfectOracle(truth), spec=SPEC, shards=2, mode="process",
            verify_merge=True,
        ).clean(QP)
        assert procs.state_digest() == inline.state_digest()
        assert proc_report.edits_applied == inline_report.edits_applied

    def test_worldcup_end_to_end(self, worldcup_pair):
        truth, dirty = worldcup_pair
        reference, _ = _reference_clean(dirty, truth, Q3)
        merged = dirty.copy()
        report = ShardedQOCO(
            merged, PerfectOracle(truth), spec=worldcup_partition_spec(),
            shards=2, mode="process",
        ).clean(Q3)
        assert merged.state_digest() == reference.state_digest()
        assert report.mode == "process"
        assert report.rounds == 1
        # workers report their own wall-clock for the parallel-fraction
        # accounting in benchmarks/bench_shard.py
        assert all(o.seconds > 0 for o in report.outcomes)

    def test_worker_failure_surfaces(self):
        # an unshardable backend config is rejected before any worker starts
        db = _db([(1, "x1")], [("x1", "y")])
        with pytest.raises(ShardingError, match="scheduler_factory"):
            ShardedQOCO(
                db, PerfectOracle(db), spec=SPEC, shards=2, mode="process",
                config=QOCOConfig(scheduler_factory=lambda: None),
            ).clean(QP)

    @pytest.mark.parametrize("keys", [2, 20_000])
    def test_worker_dead_before_its_payload_raises(self, monkeypatch, keys):
        # 4 and 40,000 facts: a payload that fits in the pipe buffer and
        # one that does not; neither may surface as a raw BrokenPipeError
        db = _db([(k, f"x{k}") for k in range(keys)], [(f"x{k}", "y") for k in range(keys)])

        def kill_the_second(process):
            if len(started) == 2:
                process.kill()
                process.join(timeout=30)

        started = _record_starts(monkeypatch, self.START_METHOD, kill_the_second)
        with pytest.raises(ShardingError, match="shard 1 worker exited"):
            ShardedQOCO(
                db, PerfectOracle(db.copy()), spec=SPEC, shards=2, mode="process"
            ).clean(QP)
        assert len(started) == 2
        assert mp.active_children() == []

    def test_worker_ready_seconds_recorded_per_started_worker(self):
        truth = _db([(k, f"x{k}") for k in range(8)], [(f"x{k}", "y") for k in range(8)])
        dirty = _db(
            [(k, f"x{k}") for k in range(8) if k != 2] + [(11, "x0")],
            [(f"x{k}", "y") for k in range(8)],
        )

        def clean():
            return ShardedQOCO(
                dirty.copy(), PerfectOracle(truth), spec=SPEC, shards=2, mode="process"
            ).clean(QP)

        with telemetry_session() as (hub, _):
            report = clean()
            ready = hub.histogram("shard.worker_ready_s")
            assert ready.count == len(report.outcomes) == 2
            assert ready.minimum > 0
            hub.reset()
            hub.disable()
            clean()
            assert hub.histogram("shard.worker_ready_s").count == 0

    def test_telemetry_merges_each_worker_once(self, worldcup_pair):
        # a forked worker starts from a copy of the parent's hub; shipped
        # back whole, the second clean's snapshots would carry the first
        # clean's 6 builds twice over (24)
        truth, dirty = worldcup_pair
        with telemetry_session() as (hub, _):
            for _ in range(2):
                ShardedQOCO(
                    dirty.copy(), PerfectOracle(truth), spec=worldcup_partition_spec(),
                    shards=2, mode="process", backend="columnar",
                ).clean(Q3)
            assert hub.counter("backend.columnar.builds") == 2 * 2 * 3

    def test_a_worker_writes_to_no_sink_of_the_parents(self, tmp_path):
        path = tmp_path / "pids"
        truth = _db([(k, f"x{k}") for k in range(8)], [(f"x{k}", "y") for k in range(8)])
        dirty = _db(
            [(k, f"x{k}") for k in range(8) if k != 2] + [(11, "x0")],
            [(f"x{k}", "y") for k in range(8)],
        )
        with telemetry_session() as (hub, _):
            # the hub holds the sink's only reference: a worker that let
            # go of it would also run its finalizer
            hub.add_sink(_PidSink(path))
            ShardedQOCO(
                dirty, PerfectOracle(truth), spec=SPEC, shards=2, mode="process"
            ).clean(QP)
        assert set(path.read_text(encoding="utf-8").split()) == {str(os.getpid())}

    def test_workers_under_their_own_hash_seeds_match_inline(self, tmp_path):
        # each worker spawns under its own PYTHONHASHSEED and the parent
        # under another: set iteration order differs in every process,
        # yet the clean must equal the inline run bit for bit
        script = tmp_path / "hash_seeds.py"
        script.write_text(HASH_SEED_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "5"
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        runs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [run["worker_seeds"] for run in runs] == [[0, 1], [2, 3], [7, 11]]
        for run in runs:
            inline, process = run["inline"], run["process"]
            assert process["digest"] == inline["digest"] == run["unsharded_digest"]
            assert process["total_cost"] == inline["total_cost"]
            assert process["edit_logs"] == inline["edit_logs"]
            # the order follows how the workers' questions interleave
            assert sorted(process["questions"]) == sorted(inline["questions"])


class TestForkedProcessMode(TestProcessMode):
    """:class:`TestProcessMode` with forked workers, plus what only a
    forked worker inherits from its parent."""

    START_METHOD = "fork"
    # its script starts an idle thread, so the driver spawns whatever
    # this class asks for
    test_workers_under_their_own_hash_seeds_match_inline = None

    def test_no_worker_outlives_clean(self, monkeypatch):
        # workers that ignore SIGTERM and never answer are killed once the
        # grace period ends; clean() raises and leaves no process behind
        def stubborn(conn, shard, inherited=()):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            conn.close()
            time.sleep(60)

        monkeypatch.setattr(driver, "shard_worker_main", stubborn)
        started = _record_starts(monkeypatch, "fork")
        db = _db([(k, f"x{k}") for k in range(4)], [(f"x{k}", "y") for k in range(4)])
        with pytest.raises(ShardingError, match="closed its pipe .* still running"):
            ShardedQOCO(
                db, PerfectOracle(db.copy()), spec=SPEC, shards=2, mode="process"
            ).clean(QP)
        assert [p.exitcode for p in started] == [-signal.SIGKILL, -signal.SIGKILL]
        assert mp.active_children() == []

    def test_a_parent_sigterm_handler_does_not_shield_a_worker(self, monkeypatch):
        # shard 0's worker fails; shard 1's is busy and must stop at the
        # driver's SIGTERM, although it inherited a handler that ignores it
        role = ["fail"]

        def run_shard(payload, ask, on_ready=None, **_):
            if role[0] == "fail":
                raise RuntimeError("shard failed on purpose")
            time.sleep(60)

        monkeypatch.setattr(worker, "run_shard", run_shard)
        started = _record_starts(
            monkeypatch, "fork", lambda process: role.__setitem__(0, "busy")
        )
        db = _db([(k, f"x{k}") for k in range(4)], [(f"x{k}", "y") for k in range(4)])
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with pytest.raises(ShardingError, match="on purpose"):
                ShardedQOCO(
                    db, PerfectOracle(db.copy()), spec=SPEC, shards=2, mode="process"
                ).clean(QP)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert started[1].exitcode == -signal.SIGTERM


NOTED = Schema(
    [
        RelationSchema("m", ("k", "x")),
        RelationSchema("lab", ("x", "y")),
        RelationSchema("note", ("x", "text")),
    ]
)


def _noted_db(m_rows, lab_rows, note_rows):
    return Database(
        NOTED,
        [Fact("m", tuple(row)) for row in m_rows]
        + [Fact("lab", tuple(row)) for row in lab_rows]
        + [Fact("note", tuple(row)) for row in note_rows],
    )


def _record_shipped(monkeypatch) -> list[dict]:
    """Record the database part of every payload the driver hands a shard."""
    shipped: list[dict] = []
    run_shard = driver.run_shard

    def recording(payload, *args, **kwargs):
        shipped.append(payload["database"])
        return run_shard(payload, *args, **kwargs)

    monkeypatch.setattr(driver, "run_shard", recording)
    return shipped


def _loaded(payload: dict) -> set[str]:
    """The relations a shard payload carries rows for."""
    return {relation for relation, rows in payload["facts"].items() if rows}


class TestShippedRelations:
    """A shard payload carries rows only for the relations its query
    names, positively or under ``not``; every schema travels."""

    def test_q3_ships_games_stages_and_teams(self, worldcup_pair, monkeypatch):
        truth, dirty = worldcup_pair
        shipped = _record_shipped(monkeypatch)
        ShardedQOCO(
            dirty.copy(), PerfectOracle(truth), spec=worldcup_partition_spec(),
            shards=2, mode="inline",
        ).clean(Q3)
        assert len(shipped) == 2
        for payload in shipped:
            assert _loaded(payload) == {"games", "stages", "teams"}
            shard_db = payload_to_database(payload)
            assert shard_db.schema == dirty.schema
            for relation in ("goals", "players", "clubs"):
                assert dirty.facts(relation) and not shard_db.facts(relation)

    def test_a_relation_read_only_under_not_is_shipped(self, monkeypatch):
        rows = [(k, f"x{k}") for k in range(6)]
        truth = _noted_db(rows, [("x1", "z")], [("x0", "hi")])
        dirty = _noted_db(rows + [(9, "x9")], [("x1", "z")], [("x0", "hi")])
        query = parse_query('qn(k, x) :- m(k, x), not lab(x, "z").')
        shipped = _record_shipped(monkeypatch)
        merged = dirty.copy()
        ShardedQOCO(
            merged, PerfectOracle(truth), spec=SPEC, shards=2, mode="inline"
        ).clean(query)
        assert shipped and all(_loaded(p) == {"m", "lab"} for p in shipped)
        # without its lab rows a shard would call k=1 an answer and the
        # oracle's "wrong" would delete the true m(1, x1)
        assert merged.state_digest() == truth.state_digest()

    def test_a_replicated_only_query_ships_shard_0_its_relations(self, monkeypatch):
        truth = _noted_db([(1, "x1")], [("x1", "y")], [("x1", "hi")])
        dirty = _noted_db([(1, "x1")], [("x1", "y"), ("bad", "y")], [("x1", "hi")])
        shipped = _record_shipped(monkeypatch)
        report = ShardedQOCO(
            dirty, PerfectOracle(truth), spec=SPEC, shards=4, mode="inline"
        ).clean(parse_query("q(x) :- lab(x, y)."))
        assert {o.shard for o in report.outcomes} == {0}
        assert len(shipped) == 1 and _loaded(shipped[0]) == {"lab"}
        assert dirty.state_digest() == truth.state_digest()


class TestColumnarBuilds:
    """``backend.columnar.builds`` counts one relation encoded into one
    columnar store; Q3 reads three relations."""

    def _builds(self, worldcup_pair, mode: str) -> float:
        truth, dirty = worldcup_pair
        with telemetry_session() as (hub, _):
            ShardedQOCO(
                dirty.copy(), PerfectOracle(truth), spec=worldcup_partition_spec(),
                shards=2, mode=mode, backend="columnar",
            ).clean(Q3)
            return hub.counter("backend.columnar.builds")

    def test_a_worker_encodes_each_query_relation_once(self, worldcup_pair):
        # registration, the clean and the final answers share one store
        assert self._builds(worldcup_pair, "process") == 2 * 3

    def test_inline_encodes_each_query_relation_once_per_shard(self, worldcup_pair):
        # every shard registers through the fork and backend its clean uses
        assert self._builds(worldcup_pair, "inline") == 2 * 3


HASH_SEED_SCRIPT = textwrap.dedent(
    """
    import json
    import os
    import threading
    from multiprocessing.context import SpawnProcess

    from repro.core.qoco import QOCO
    from repro.datasets.worldcup import (
        WorldCupConfig,
        inject_fake_champions,
        worldcup_database,
        worldcup_partition_spec,
        worldcup_years,
    )
    from repro.oracle.perfect import PerfectOracle
    from repro.shard import ShardedQOCO
    from repro.workloads import Q3

    START = SpawnProcess.start


    def start_under(seeds):
        pending = iter(seeds)

        def start(process):
            saved = os.environ.get("PYTHONHASHSEED")
            os.environ["PYTHONHASHSEED"] = str(next(pending))
            try:
                START(process)
            finally:
                if saved is None:
                    del os.environ["PYTHONHASHSEED"]
                else:
                    os.environ["PYTHONHASHSEED"] = saved

        return start


    def clean(truth, dirty, mode):
        merged = dirty.copy()
        report = ShardedQOCO(
            merged, PerfectOracle(truth), spec=worldcup_partition_spec(),
            shards=2, mode=mode,
        ).clean(Q3)
        return {
            "digest": merged.state_digest(),
            "total_cost": report.total_cost,
            "edit_logs": {str(shard): log for shard, log in report.edit_logs.items()},
            "questions": [json.dumps(row, sort_keys=True) for row in report.log.to_dicts()],
        }


    if __name__ == "__main__":
        # a second thread makes the driver spawn its workers
        threading.Thread(target=threading.Event().wait, daemon=True).start()
        for seed, worker_seeds in ((1, (0, 1)), (2, (2, 3)), (3, (7, 11))):
            config = WorldCupConfig(seed=seed, replicas=2)
            truth = worldcup_database(config)
            dirty = truth.copy()
            inject_fake_champions(dirty, worldcup_years(config)[seed % 2::2])
            unsharded = dirty.copy()
            QOCO(unsharded, PerfectOracle(truth)).clean(Q3)
            inline = clean(truth, dirty, "inline")
            SpawnProcess.start = start_under(worker_seeds)
            try:
                process = clean(truth, dirty, "process")
            finally:
                SpawnProcess.start = START
            print(json.dumps({
                "worker_seeds": list(worker_seeds),
                "unsharded_digest": unsharded.state_digest(),
                "inline": inline,
                "process": process,
            }))
    """
)
