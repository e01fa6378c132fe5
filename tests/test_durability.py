"""Durability layer: codec round-trips, WAL framing, crash recovery.

The ISSUE 5 acceptance gate lives here: for every byte-level truncation
point of a recorded WAL, ``recover()`` must yield a consistent prefix
state, and full replay must reproduce the live server's final database
and ledgers bit-identically.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api
from repro.core.qoco import QOCOConfig
from repro.datasets.figure1 import figure1_dirty, figure1_ground_truth
from repro.db.database import Database
from repro.db.edits import Edit, EditKind
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact, fact
from repro.durability import (
    DurabilityError,
    DurabilityStore,
    WalWriter,
    codec,
    read_wal,
    recover,
    recover_manager,
    run_crash_matrix,
)
from repro.durability.wal import decode_records, encode_record
from repro.oracle.base import Oracle
from repro.oracle.perfect import PerfectOracle
from repro.query.ast import Atom, Inequality, Query, Var
from repro.query.parser import parse_query
from repro.server import SessionManager
from repro.workloads import EX1

from qoco_strategies import databases, facts, queries

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
constants = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(min_size=0, max_size=12),
)

edit_sequences = st.lists(
    st.tuples(st.sampled_from([EditKind.INSERT, EditKind.DELETE]), facts()),
    max_size=25,
)


def wild_fact(values) -> Fact:
    return Fact("w", tuple(values))


WILD_SCHEMA = Schema([RelationSchema("w", ("a", "b"))])


# ----------------------------------------------------------------------
# codec round-trips
# ----------------------------------------------------------------------
class TestCodec:
    @given(st.lists(constants, min_size=2, max_size=2))
    def test_fact_round_trip_survives_negatives_and_floats(self, values):
        original = wild_fact(values)
        decoded = codec.fact_from_obj(
            json.loads(json.dumps(codec.fact_to_obj(original)))
        )
        assert decoded == original

    @given(queries(negation=True))
    def test_query_round_trip_with_negation_and_inequalities(self, query):
        decoded = codec.query_from_obj(
            json.loads(json.dumps(codec.query_to_obj(query)))
        )
        assert decoded == query

    def test_inequality_bearing_query_round_trip_explicit(self):
        query = parse_query(
            'q(x, y) :- r(x, y), s(y), x != y, x != "a".'
        )
        assert codec.query_from_obj(codec.query_to_obj(query)) == query

    def test_board_keys_round_trip_all_kinds(self):
        query = Query(
            head=(Var("x"),),
            atoms=(Atom("r", (Var("x"), Var("y"))),),
            inequalities=(Inequality(Var("x"), Var("y")),),
            negated_atoms=(Atom("s", (Var("y"),)),),
        )
        keys = [
            ("verify_fact", fact("r", "a", -3)),
            ("verify_answer", query, ("a",)),
            ("verify_candidate", query, frozenset({(Var("x"), "a"), (Var("y"), 2)})),
        ]
        for key in keys:
            encoded = json.loads(json.dumps(codec.board_key_to_obj(key)))
            assert codec.board_key_from_obj(encoded) == key

    def test_var_constant_never_confused(self):
        # a constant string that *looks* like a variable stays a constant
        atom_const = Atom("s", ("x",))
        atom_var = Atom("s", (Var("x"),))
        assert codec._atom_from_obj(codec._atom_to_obj(atom_const)) == atom_const
        assert codec._atom_from_obj(codec._atom_to_obj(atom_var)) == atom_var
        assert codec._atom_to_obj(atom_const) != codec._atom_to_obj(atom_var)

    @given(databases())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_database_round_trip_and_digest_stability(self, database):
        obj = json.loads(json.dumps(codec.database_to_obj(database)))
        rebuilt = codec.database_from_obj(obj)
        assert rebuilt == database
        assert rebuilt.state_digest() == database.state_digest()

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=20,
        )
    )
    def test_canonical_json_is_the_sorted_compact_dump(self, obj):
        # the shared encoder renders exactly what json.dumps renders
        expected = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)
        assert codec.canonical_json(obj) == expected

    def test_checkpoint_digest_hashes_the_encoded_rows(self, tmp_path):
        manager = repro.api.serve(figure1_dirty(), durable_path=tmp_path / "wal")
        state = manager._serialize_state()
        manager.close()
        assert state["digest"] == codec.database_digest(manager.database)
        assert state["digest"] == codec.obj_digest(state["database"])
        assert codec.database_from_obj(state["database"]) == manager.database


class TestForkEditLogRoundTrip:
    @given(databases(), edit_sequences)
    @settings(
        max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    def test_exported_log_replays_to_fork_state(self, database, edits):
        fork = database.fork()
        for kind, f in edits:
            Edit(kind, f).apply(fork)
        exported = json.loads(json.dumps(fork.export_edit_log()))
        replica = database.copy()
        replica.apply_exported(exported)
        assert replica == fork
        assert replica.state_digest() == codec.database_digest(fork)

    def test_negative_and_float_values_round_trip(self):
        base = Database(WILD_SCHEMA, [wild_fact((-1, -2.5))])
        fork = base.fork()
        fork.delete(wild_fact((-1, -2.5)))
        fork.insert(wild_fact((-10**12, 0.1)))
        fork.insert(wild_fact(("x != y", -0.0)))
        replica = base.copy()
        replica.apply_exported(json.loads(json.dumps(fork.export_edit_log())))
        assert replica == fork


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
class TestWalFraming:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        records = [{"seq": i, "type": "commit", "edits": [], "n": -i} for i in range(5)]
        with WalWriter(path, sync="always") as writer:
            for record in records:
                writer.append(record)
        result = read_wal(path)
        assert result.records == records
        assert result.torn_bytes == 0

    def test_every_truncation_yields_a_valid_prefix(self, tmp_path):
        frames = [encode_record({"seq": i, "payload": "x" * i}) for i in range(4)]
        data = b"".join(frames)
        boundaries = [0]
        for frame in frames:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(len(data) + 1):
            result = decode_records(data[:cut])
            expected = sum(1 for b in boundaries[1:] if b <= cut)
            assert len(result.records) == expected
            assert result.valid_bytes == boundaries[expected]
            assert result.torn_bytes == cut - boundaries[expected]

    def test_corrupt_byte_discards_the_tail_not_the_prefix(self, tmp_path):
        frames = [encode_record({"seq": i}) for i in range(3)]
        data = bytearray(b"".join(frames))
        flip = len(frames[0]) + len(frames[1]) // 2  # inside record #1
        data[flip] ^= 0xFF
        result = decode_records(bytes(data))
        assert [r["seq"] for r in result.records] == [0]

    def test_unknown_sync_policy_is_rejected(self, tmp_path):
        with pytest.raises(Exception, match="sync policy"):
            WalWriter(tmp_path / "wal.log", sync="sometimes")


# ----------------------------------------------------------------------
# the durable server: commit, recover, resume
# ----------------------------------------------------------------------
def durable_run(tmp_path, n_sessions=2, **manager_kwargs):
    ground_truth = figure1_ground_truth()
    dirty = figure1_dirty()
    manager = SessionManager(
        dirty,
        config=QOCOConfig(seed=0),
        durable_path=tmp_path / "state",
        **manager_kwargs,
    )
    for tenant in range(n_sessions):
        manager.open_session(EX1, PerfectOracle(ground_truth), tenant=f"t{tenant}")
    report = manager.run_all()
    return manager, dirty, report


class TestDurableServer:
    def test_commit_is_on_disk_before_close(self, tmp_path):
        manager, dirty, report = durable_run(tmp_path)
        assert report.committed == 2
        log = read_wal(tmp_path / "state" / "wal.log")
        commits = [r for r in log.records if r["type"] == "commit"]
        assert len(commits) == 2  # ack-after-fsync: durable pre-close
        assert all(r["seq"] > 0 for r in log.records)
        manager.close()

    def test_recover_rebuilds_database_ledger_board(self, tmp_path):
        manager, dirty, _ = durable_run(tmp_path)
        state = recover(tmp_path / "state")
        assert state.digest == dirty.state_digest()
        assert state.ledger == manager.ledger.snapshot()
        assert len(state.board) == len(manager.board.entries())
        assert state.torn_bytes == 0
        manager.close()

    def test_attaching_to_dirty_directory_is_refused(self, tmp_path):
        manager, _, _ = durable_run(tmp_path)
        manager.close()
        with pytest.raises(DurabilityError, match="recover"):
            SessionManager(figure1_dirty(), durable_path=tmp_path / "state")

    def test_recovered_manager_resumes_the_same_log(self, tmp_path):
        manager, dirty, _ = durable_run(tmp_path)
        manager.close()
        resumed = recover_manager(tmp_path / "state")
        assert resumed.database == dirty
        resumed.open_session(
            EX1, PerfectOracle(figure1_ground_truth()), tenant="late"
        )
        resumed.run_all()
        final = recover(tmp_path / "state")
        assert final.digest == resumed.database.state_digest()
        assert final.ledger == resumed.ledger.snapshot()
        resumed.close()

    def test_checkpoint_truncates_and_preserves_state(self, tmp_path):
        manager, dirty, _ = durable_run(tmp_path)
        wal_path = tmp_path / "state" / "wal.log"
        assert wal_path.stat().st_size > 0
        manager.checkpoint()
        assert wal_path.stat().st_size == 0
        state = recover(tmp_path / "state")
        assert state.records_replayed == 0
        assert state.digest == dirty.state_digest()
        assert state.ledger == manager.ledger.snapshot()
        manager.close()

    def test_stale_records_after_checkpoint_are_skipped(self, tmp_path):
        # simulate a crash between checkpoint-rename and WAL-truncate:
        # the old records (seq <= checkpoint.seq) reappear in the log
        manager, dirty, _ = durable_run(tmp_path)
        wal_path = tmp_path / "state" / "wal.log"
        stale = wal_path.read_bytes()
        manager.checkpoint()
        wal_path.write_bytes(stale)
        state = recover(tmp_path / "state")
        assert state.records_replayed == 0  # subsumed by the snapshot
        assert state.digest == dirty.state_digest()
        manager.close()

    def test_checkpoint_every_takes_snapshots_inline(self, tmp_path):
        manager, dirty, _ = durable_run(tmp_path, checkpoint_every=1)
        # every commit checkpointed: nothing left to replay
        state = recover(tmp_path / "state")
        assert state.records_replayed == 0
        assert state.digest == dirty.state_digest()
        manager.close()

    def test_background_checkpointer_snapshots_grown_log(self, tmp_path):
        import time

        manager, dirty, _ = durable_run(tmp_path, checkpoint_interval=0.05)
        wal_path = tmp_path / "state" / "wal.log"
        deadline = time.time() + 5.0
        while wal_path.stat().st_size > 0 and time.time() < deadline:
            time.sleep(0.02)
        assert wal_path.stat().st_size == 0, "checkpointer never ran"
        state = recover(tmp_path / "state")
        assert state.digest == dirty.state_digest()
        manager.close()

    def test_failed_session_charge_is_durable(self, tmp_path):
        class ExplodingOracle(Oracle):
            def __init__(self, inner, fuse):
                self.inner, self.fuse = inner, fuse

            def _tick(self):
                self.fuse -= 1
                if self.fuse <= 0:
                    raise RuntimeError("crowd walked out")

            def verify_fact(self, f):
                self._tick()
                return self.inner.verify_fact(f)

            def verify_answer(self, q, a):
                self._tick()
                return self.inner.verify_answer(q, a)

            def verify_candidate(self, q, p):
                self._tick()
                return self.inner.verify_candidate(q, p)

            def complete_assignment(self, q, p):
                self._tick()
                return self.inner.complete_assignment(q, p)

            def complete_result(self, q, k):
                self._tick()
                return self.inner.complete_result(q, k)

        ground_truth = figure1_ground_truth()
        manager = SessionManager(
            figure1_dirty(),
            config=QOCOConfig(seed=0),
            durable_path=tmp_path / "state",
        )
        manager.open_session(
            EX1, ExplodingOracle(PerfectOracle(ground_truth), fuse=3), tenant="doomed"
        )
        report = manager.run_all()
        assert report.failed == 1
        spent = manager.ledger.spent("doomed")
        assert spent > 0
        state = recover(tmp_path / "state")
        assert state.ledger.get("doomed") == spent
        manager.close()

    def test_recovered_board_spares_the_crowd(self, tmp_path):
        answered = {"n": 0}

        class CountingOracle(PerfectOracle):
            def verify_fact(self, f):
                answered["n"] += 1
                return super().verify_fact(f)

            def verify_answer(self, q, a):
                answered["n"] += 1
                return super().verify_answer(q, a)

            def verify_candidate(self, q, p):
                answered["n"] += 1
                return super().verify_candidate(q, p)

        ground_truth = figure1_ground_truth()
        manager, dirty, _ = durable_run(tmp_path, n_sessions=1)
        manager.close()

        # baseline: the same re-run against the cleaned state with a
        # *fresh* board pays for its closed questions again
        fresh = SessionManager(dirty.copy(), config=QOCOConfig(seed=0))
        fresh.open_session(EX1, CountingOracle(ground_truth), tenant="again")
        fresh.run_all()
        fresh_cost = answered["n"]
        assert fresh_cost > 0

        answered["n"] = 0
        resumed = recover_manager(tmp_path / "state")
        assert len(resumed.board.entries()) > 0  # verdicts survived the restart
        resumed.open_session(EX1, CountingOracle(ground_truth), tenant="again")
        resumed.run_all()
        # the recovered board already holds the verdicts the first tenant
        # paid for, so the re-run buys strictly fewer closed answers
        assert answered["n"] < fresh_cost
        resumed.close()

    def test_api_facade_round_trip(self, tmp_path):
        ground_truth = figure1_ground_truth()
        dirty = figure1_dirty()
        manager = repro.api.serve(
            dirty, config=QOCOConfig(seed=0), durable_path=tmp_path / "state"
        )
        repro.api.open_session(manager, EX1, PerfectOracle(ground_truth))
        manager.run_all()
        manager.close()
        state = repro.api.recover(tmp_path / "state")
        assert state.digest == dirty.state_digest()
        resumed = repro.api.recover_server(tmp_path / "state")
        assert resumed.database == dirty
        resumed.close()


# ----------------------------------------------------------------------
# the crash matrix (the ISSUE 5 acceptance gate)
# ----------------------------------------------------------------------
class TestCrashMatrix:
    def test_server_run_survives_every_byte_boundary(self, tmp_path):
        manager, dirty, report = durable_run(tmp_path, n_sessions=3)
        assert report.committed == 3
        matrix = run_crash_matrix(
            tmp_path / "state",
            live_database=dirty,
            live_ledger=manager.ledger.snapshot(),
            stride=1,
        )
        assert matrix.wal_bytes > 0
        assert matrix.ok, matrix.failures[:5]
        # sanity: the matrix spans tears inside records, not only edges
        partial = [
            p
            for p in matrix.points
            if 0 < p.offset < matrix.wal_bytes and p.recovered_records >= 0
        ]
        assert partial
        manager.close()

    @given(databases(max_size=10), st.lists(edit_sequences, min_size=1, max_size=3))
    @settings(
        max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_synthetic_commit_logs_recover_at_every_boundary(
        self, tmp_path_factory, database, sessions
    ):
        # property form: arbitrary edit logs through the real store, the
        # full byte-matrix against the independently-applied live state
        tmp_path = tmp_path_factory.mktemp("crash")
        store = DurabilityStore(tmp_path, sync="batch")
        live = codec.database_from_obj(codec.database_to_obj(database))
        store.write_checkpoint(
            {
                "database": codec.database_to_obj(database),
                "digest": codec.database_digest(database),
                "ledger": {},
                "board": [],
            }
        )
        ledger: dict[str, int] = {}
        for index, edits in enumerate(sessions):
            fork = live.fork()
            for kind, f in edits:
                Edit(kind, f).apply(fork)
            record = {
                "type": "commit",
                "session": index,
                "tenant": f"t{index % 2}",
                "cost": len(edits),
                "edits": fork.export_edit_log(),
                "board": [],
            }
            store.append(record)
            live.apply(fork.pending_edits)
            if edits:
                tenant = f"t{index % 2}"
                ledger[tenant] = ledger.get(tenant, 0) + len(edits)
        store.close()
        matrix = run_crash_matrix(
            tmp_path, live_database=live, live_ledger=ledger, stride=1
        )
        assert matrix.ok, matrix.failures[:5]
