"""Which entry points of which ``repro`` layer the traced run wraps, and
how the recorded spans become the per-layer metrics.

A layer is a module (or a small group of modules) of ``src/repro``.
``*.busy_s`` metrics are self time: the layer's span durations minus the
part covered by spans of the calls they make into other layers.  Every
other ``*_s`` / ``*_ms`` metric is the inclusive duration of the named
call.  Counts and times are per traced operation (one clean, one repair
session, one burst), so runs of different lengths compare.
"""

from __future__ import annotations

import pickle
import statistics
from collections import defaultdict

from spans import END, ID, LAYER, NAME, PARENT, START, Recorder, self_times

QUESTION_KINDS = (
    "verify_fact",
    "verify_facts",
    "verify_answer",
    "verify_candidate",
    "complete_assignment",
    "complete_result",
)

#: (metric, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("columnar.calls", "count", "lower"),
    ("columnar.busy_s", "s", "lower"),
    ("columnar.builds", "count", "lower"),
    ("columnar.rows_encoded_per_edit", "count", "lower"),
    ("incremental.deltas", "count", "lower"),
    ("incremental.busy_s", "s", "lower"),
    ("evaluator.busy_s", "s", "lower"),
    ("evaluator.backtrack_steps", "count", "lower"),
    ("db.edits", "count", "lower"),
    ("db.edit_busy_s", "s", "lower"),
    ("db.fork_s", "s", "lower"),
    ("core.busy_s", "s", "lower"),
    *[(f"oracle.questions.{kind}", "count", "lower") for kind in QUESTION_KINDS],
    ("oracle.asked", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("oracle.cache_hit_ratio", "ratio", "higher"),
    ("shard.partition_s", "s", "lower"),
    ("shard.payload_bytes", "bytes", "lower"),
    ("shard.worker_s_sum", "s", "lower"),
    ("shard.worker_s_max", "s", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    ("shard.router_questions", "count", "lower"),
    ("shard.merge_s", "s", "lower"),
    ("ingest.load_s", "s", "lower"),
    ("ingest.rows", "count", "lower"),
    ("constraints.detect_calls", "count", "lower"),
    ("constraints.detect_s", "s", "lower"),
    ("constraints.repairer_self_s", "s", "lower"),
    ("constraints.questions_per_violation", "ratio", "lower"),
    ("server.drive_s", "s", "lower"),
    ("server.commit_s", "s", "lower"),
    ("server.conflicts", "count", "lower"),
    ("server.replays", "count", "lower"),
    ("durability.appends", "count", "lower"),
    ("durability.fsyncs", "count", "lower"),
    ("durability.fsync_s", "s", "lower"),
    ("durability.wal_bytes_per_edit", "bytes", "lower"),
    ("durability.checkpoint_s", "s", "lower"),
    ("durability.checkpoint_bytes", "bytes", "lower"),
    ("service.open_ms", "ms", "lower"),
    ("service.wait_ms", "ms", "lower"),
    ("service.feed_ms", "ms", "lower"),
    ("service.answer_ms", "ms", "lower"),
    ("service.requests_per_session", "count", "lower"),
    ("service.feed_idle_s", "s", "lower"),
    ("service.broker.leases", "count", "lower"),
    ("service.broker.expired_leases", "count", "lower"),
    ("service.admission_rejections", "count", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.traced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


#: per layer: the end-to-end metrics (on which workload) its metrics
#: should move, and where they should not move.  Later changes cite
#: these names when they claim a gain on one layer.
PREDICTIONS = {
    "columnar": {
        "moves": "run_s, cpu_s on clean-wc; shard.worker_s_* on clean-wc-sharded",
        "flat": "near zero on repair-csv; absent on serve-burst",
    },
    "incremental": {"moves": "run_s on clean-wc", "flat": "absent on repair-csv"},
    "evaluator": {"moves": "session_p50_ms on serve-burst", "flat": "nil on clean-wc"},
    "db": {
        "moves": "run_s on clean-wc; session_p50_ms on serve-burst",
        "flat": "oracle_cost everywhere",
    },
    "core": {"moves": "run_s on clean-wc, clean-wc-sharded", "flat": "absent on repair-csv"},
    "oracle": {
        "moves": "oracle_cost on every workload; run_s on clean-wc",
        "flat": "run_s on serve-burst, where answers wait on the worker instead",
    },
    "shard": {
        "moves": "run_s, cpu_s on clean-wc-sharded",
        "flat": "absent on clean-wc, repair-csv, serve-burst",
    },
    "ingest": {"moves": "run_s on repair-csv", "flat": "absent elsewhere"},
    "constraints": {"moves": "run_s on repair-csv", "flat": "absent elsewhere"},
    "server": {
        "moves": "session_p50_ms on serve-burst; run_s on repair-csv",
        "flat": "absent on clean-wc, clean-wc-sharded",
    },
    "durability": {
        "moves": "session_p50_ms, session_tail_ms on serve-burst; run_s on repair-csv",
        "flat": "absent on clean-wc, clean-wc-sharded",
    },
    "service": {
        "moves": "session_p50_ms, session_tail_ms on serve-burst",
        "flat": "absent on every other workload",
    },
}


def _wrap_methods(recorder: Recorder, cls, methods, prefix: str, layer: str, **kw) -> None:
    for method in methods:
        if method in cls.__dict__:
            recorder.wrap(cls, method, f"{prefix}.{method}", layer, **kw)


def _on_payloads(rec, args, kwargs, result, error, seconds):
    if result is not None:
        rec.count("shard.payload_bytes", len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))


def _on_shard_report(rec, args, kwargs, result, error, seconds):
    if result is None:
        return
    worker = [o.seconds for o in result.outcomes]
    if worker:
        rec.count("shard.worker_s_sum", sum(worker))
        rec.count("shard.worker_s_max", max(worker))
        rec.count("shard.imbalance", max(worker) / (sum(worker) / len(worker) or 1.0))


def _on_worker_telemetry(rec, args, kwargs, result, error, seconds):
    # Telemetry.merge(snapshot): a shard worker's aggregates arriving in
    # the parent.  Worker processes run no wrappers, so the columnar time
    # the workers' own telemetry spans record is their share of the layer
    spans = args[1].get("spans", {}) if len(args) > 1 else {}
    for name in ("backend.evaluate", "backend.run"):
        stat = spans.get(name)
        if stat:
            rec.count("columnar.worker_calls", stat["calls"])
            rec.count("columnar.worker_busy_s", stat["total_s"])


def _on_load_table(rec, args, kwargs, result, error, seconds):
    rows = args[2] if len(args) > 2 else kwargs.get("rows", ())
    rec.count("ingest.rows", len(rows))


def _on_repair(rec, args, kwargs, result, error, seconds):
    if result is not None:
        rec.count("constraints.questions", result.questions_asked)
        rec.count("constraints.violations", result.violations_found)


def _on_record(rec, args, kwargs, result, error, seconds):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    rec.count(f"oracle.questions.{getattr(kind, 'value', kind)}")


def _on_commit(rec, args, kwargs, result, error, seconds):
    if result is False:
        rec.count("server.conflicts")


def _on_drive(rec, args, kwargs, result, error, seconds):
    if result is not None:
        rec.count("server.replays", result.replays)


def _on_append(rec, args, kwargs, result, error, seconds):
    record = args[1] if len(args) > 1 else kwargs["record"]
    if result is not None and record.get("type") == "commit":
        rec.count("durability.commit_bytes", result)
        rec.count("durability.commit_edits", len(record.get("edits", ())))


def _on_checkpoint(rec, args, kwargs, result, error, seconds):
    if result is not None:
        rec.count("durability.checkpoint_bytes", result)


def _on_lease(rec, args, kwargs, result, error, seconds):
    if result is not None:
        rec.count("service.broker.leases")


def _on_expire(rec, args, kwargs, result, error, seconds):
    if result:
        rec.count("service.broker.expired_leases", result)


def _on_open(rec, args, kwargs, result, error, seconds):
    if getattr(error, "status", None) == 429:
        rec.count("service.admission_rejections")


def _on_http(rec, args, kwargs, result, error, seconds):
    rec.count("service.requests")
    path = args[2] if len(args) > 2 else kwargs.get("path", "")
    if path.startswith("/v1/worker/feed") and result is not None and result.get("question") is None:
        rec.count("service.feed_idle_s", seconds)


def _endpoint(method: str, path: str) -> str:
    if path.startswith("/v1/worker/feed"):
        return "feed"
    if path.startswith("/v1/worker/answer"):
        return "answer"
    if path.startswith("/v1/sessions"):
        if "/wait" in path:
            return "wait"
        if method == "POST":
            return "open"
    return "other"


def instrument(recorder: Recorder) -> None:
    """Install the wrappers on every layer's public entry points."""
    from repro.constraints import repairer as repairer_mod
    from repro.constraints import violations as violations_mod
    from repro.core.qoco import QOCO
    from repro.db.database import Database
    from repro.db.fork import DatabaseFork
    from repro.durability.store import DurabilityStore
    from repro.durability.wal import WalWriter
    from repro.ingest import loader
    from repro.oracle.base import AccountingOracle
    from repro.oracle.questions import InteractionLog
    from repro.query.columnar import ColumnarBackend
    from repro.query.evaluator import Evaluator
    from repro.query.incremental import IncrementalAnswers
    from repro.server.manager import SessionManager
    from repro.server.sharing import SharedOracle
    from repro.service import client as client_mod
    from repro.service.broker import QuestionBroker
    from repro.shard.driver import ShardedQOCO
    from repro.shard.partition import PartitionSpec
    from repro.shard.router import QuestionRouter
    from repro.telemetry.core import Telemetry

    wrap = recorder.wrap
    _wrap_methods(recorder, ColumnarBackend, ("run", "assignments", "evaluate", "is_satisfiable"),
                  "columnar", "columnar")
    _wrap_methods(recorder, IncrementalAnswers, ("before_change", "after_change"),
                  "incremental", "incremental")
    _wrap_methods(recorder, Evaluator, ("answers", "is_satisfiable", "witnesses"),
                  "evaluator", "evaluator")
    wrap(Evaluator, "_search", "evaluator.backtrack_steps", "evaluator", span=False)
    for cls in (Database, DatabaseFork):
        _wrap_methods(recorder, cls, ("insert", "delete", "fork"), "db", "db")
    wrap(QOCO, "clean", "core.clean", "core")
    oracle_methods = ("verify_fact", "verify_facts", "verify_answer", "verify_candidate",
                      "complete_assignment", "complete_result")
    for cls in (AccountingOracle, SharedOracle):
        _wrap_methods(recorder, cls, oracle_methods, "oracle", "oracle")
    wrap(InteractionLog, "record", "oracle.record", "oracle", _on_record)
    wrap(PartitionSpec, "partition_payloads", "shard.partition", "shard", _on_payloads)
    wrap(ShardedQOCO, "clean", "shard.clean", "shard", _on_shard_report)
    wrap(QuestionRouter, "answer", "shard.router", "shard")
    wrap(Database, "apply_exported", "shard.merge", "shard")
    wrap(Telemetry, "merge", "shard.telemetry_merge", "shard", _on_worker_telemetry)
    wrap(loader, "load_csv", "ingest.load_csv", "ingest")
    wrap(loader, "load_table", "ingest.load_table", "ingest", _on_load_table)
    for module in (violations_mod, repairer_mod):
        wrap(module, "find_violations", "constraints.detect", "constraints")
    wrap(repairer_mod.OracleRepairer, "run", "constraints.repair", "constraints", _on_repair)
    wrap(SessionManager, "drive", "server.drive", "server", _on_drive)
    wrap(SessionManager, "_try_commit", "server.commit", "server", _on_commit)
    wrap(DurabilityStore, "append", "durability.append", "durability", _on_append)
    wrap(DurabilityStore, "write_checkpoint", "durability.checkpoint", "durability",
         _on_checkpoint)
    wrap(WalWriter, "sync", "durability.fsync", "durability")
    wrap(QuestionBroker, "lease", "service.broker.lease", "service", _on_lease)
    wrap(QuestionBroker, "expire", "service.broker.expire", "service", _on_expire)
    wrap(client_mod.ServiceClient, "open", "service.client_open", "service", _on_open)

    # one span per HTTP round trip, named after its endpoint
    wrap(client_mod._Http, "request",
         lambda args, kwargs: f"service.{_endpoint(args[1], args[2])}", "service", _on_http)


def layer_metrics(recorder: Recorder, ops: int, hub_counters: dict, sessions: int) -> dict:
    """Per-layer metrics (per traced operation) from spans and counters."""
    spans = recorder.spans
    counts = recorder.counts
    own = self_times(spans)
    layer_of = {s[ID]: s[LAYER] for s in spans}
    name_of = {s[ID]: s[NAME] for s in spans}
    per = float(max(ops, 1))
    busy: dict[str, float] = defaultdict(float)
    #: calls into a layer from outside it, and calls of an entry point
    #: not made by the same entry point (recursion and super() chains)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        name, layer = s[NAME], s[LAYER]
        busy[layer] += own[s[ID]]
        if layer_of.get(s[PARENT]) != layer:
            calls[layer] += 1
        if name_of.get(s[PARENT]) != name:
            calls[name] += 1
            inclusive[name] += s[END] - s[START]
            durations[name].append(s[END] - s[START])
    edit_busy = sum(own[s[ID]] for s in spans if s[NAME] in ("db.insert", "db.delete"))
    db_edits = calls["db.insert"] + calls["db.delete"]
    oracle_questions = sum(counts.get(f"oracle.questions.{k}", 0) for k in QUESTION_KINDS)
    oracle_asked = calls["oracle"]
    rows_encoded = hub_counters.get("backend.columnar.rows_encoded", 0)

    def p50_ms(name: str) -> float:
        values = durations.get(name)
        return 1000.0 * statistics.median(values) if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "columnar.calls": (calls["columnar"] + counts.get("columnar.worker_calls", 0)) / per,
        "columnar.busy_s": (busy["columnar"] + counts.get("columnar.worker_busy_s", 0)) / per,
        "columnar.builds": hub_counters.get("backend.columnar.builds", 0) / per,
        "columnar.rows_encoded_per_edit": ratio(rows_encoded, db_edits),
        "incremental.deltas": calls["incremental.after_change"] / per,
        "incremental.busy_s": busy["incremental"] / per,
        "evaluator.busy_s": busy["evaluator"] / per,
        "evaluator.backtrack_steps": counts.get("evaluator.backtrack_steps", 0) / per,
        "db.edits": db_edits / per,
        "db.edit_busy_s": edit_busy / per,
        "db.fork_s": inclusive["db.fork"] / per,
        "core.busy_s": busy["core"] / per,
        **{
            f"oracle.questions.{k}": counts.get(f"oracle.questions.{k}", 0) / per
            for k in QUESTION_KINDS
        },
        "oracle.asked": oracle_asked / per,
        "oracle.busy_s": busy["oracle"] / per,
        "oracle.cache_hit_ratio": ratio(max(oracle_asked - oracle_questions, 0), oracle_asked),
        "shard.partition_s": inclusive["shard.partition"] / per,
        "shard.payload_bytes": counts.get("shard.payload_bytes", 0) / per,
        "shard.worker_s_sum": counts.get("shard.worker_s_sum", 0) / per,
        "shard.worker_s_max": counts.get("shard.worker_s_max", 0) / per,
        "shard.imbalance": counts.get("shard.imbalance", 0) / per,
        "shard.router_questions": calls["shard.router"] / per,
        "shard.merge_s": inclusive["shard.merge"] / per,
        "ingest.load_s": inclusive["ingest.load_csv"] / per,
        "ingest.rows": counts.get("ingest.rows", 0) / per,
        "constraints.detect_calls": calls["constraints.detect"] / per,
        "constraints.detect_s": inclusive["constraints.detect"] / per,
        "constraints.repairer_self_s": sum(
            own[s[ID]] for s in spans if s[NAME] == "constraints.repair"
        ) / per,
        "constraints.questions_per_violation": ratio(
            counts.get("constraints.questions", 0), counts.get("constraints.violations", 0)
        ),
        "server.drive_s": inclusive["server.drive"] / per,
        "server.commit_s": inclusive["server.commit"] / per,
        "server.conflicts": counts.get("server.conflicts", 0) / per,
        "server.replays": counts.get("server.replays", 0) / per,
        "durability.appends": calls["durability.append"] / per,
        "durability.fsyncs": calls["durability.fsync"] / per,
        "durability.fsync_s": inclusive["durability.fsync"] / per,
        "durability.wal_bytes_per_edit": ratio(
            counts.get("durability.commit_bytes", 0), counts.get("durability.commit_edits", 0)
        ),
        "durability.checkpoint_s": inclusive["durability.checkpoint"] / per,
        "durability.checkpoint_bytes": counts.get("durability.checkpoint_bytes", 0) / per,
        "service.open_ms": p50_ms("service.open"),
        "service.wait_ms": p50_ms("service.wait"),
        "service.feed_ms": p50_ms("service.feed"),
        "service.answer_ms": p50_ms("service.answer"),
        "service.requests_per_session": ratio(counts.get("service.requests", 0), sessions),
        "service.feed_idle_s": counts.get("service.feed_idle_s", 0) / per,
        "service.broker.leases": counts.get("service.broker.leases", 0) / per,
        "service.broker.expired_leases": counts.get("service.broker.expired_leases", 0) / per,
        "service.admission_rejections": counts.get("service.admission_rejections", 0) / per,
        "trace.spans": len(spans) / per,
    }
    return metrics
