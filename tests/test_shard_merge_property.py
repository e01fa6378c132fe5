"""Property test (hypothesis): deterministic merge of shard edit logs.

For randomized dirty instances of a partitioned schema and a
partition-respecting query, a 2-shard inline `ShardedQOCO` clean must

* produce per-shard edit logs that survive a JSON codec round-trip, and
* replay — in **either** shard order — onto a fresh copy of the dirty
  database to the exact ``state_digest`` of a single-process QOCO clean
  (which in turn reaches the ground truth, since witnesses are unique).

The schema keeps witnesses unique (exactly one ``lab`` tuple per
``x``-value, every ``m`` tuple carrying a distinct ``x``), so the repair
is canonical and digest equality is the full correctness statement, not
a lucky tie-break.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qoco import QOCO
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.oracle.perfect import PerfectOracle
from repro.query.parser import parse_query
from repro.shard import KeySpec, PartitionSpec, ShardedQOCO

SCHEMA = Schema(
    [
        RelationSchema("m", ("k", "x")),
        RelationSchema("lab", ("x", "y")),
    ]
)
SPEC = PartitionSpec((KeySpec("m", 0),))
QP = parse_query("qp(k, x) :- m(k, x), lab(x, y).")

KEYS = list(range(12))


@st.composite
def instances(draw):
    """A ground truth plus a dirty version with wrong/missing m-tuples."""
    true_keys = draw(
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=8, unique=True)
    )
    # one lab tuple per x-value → unique witnesses → canonical repairs
    lab = [(f"x{k}", "y") for k in KEYS]
    truth = Database(
        SCHEMA,
        [Fact("m", (k, f"x{k}")) for k in true_keys]
        + [Fact("lab", tuple(row)) for row in lab],
    )
    missing = draw(st.lists(st.sampled_from(true_keys), unique=True, max_size=4))
    wrong_pool = [k for k in KEYS if k not in true_keys]
    wrong = draw(st.lists(st.sampled_from(wrong_pool or KEYS), unique=True, max_size=4))
    dirty_keys = [k for k in true_keys if k not in missing]
    dirty = Database(
        SCHEMA,
        [Fact("m", (k, f"x{k}")) for k in dirty_keys]
        + [Fact("m", (k, f"x{k}")) for k in wrong if k in wrong_pool]
        + [Fact("lab", tuple(row)) for row in lab],
    )
    return truth, dirty


@given(instances())
@settings(max_examples=40, deadline=None)
def test_either_order_replay_matches_unsharded_clean(pair):
    truth, dirty = pair

    # single-process reference
    reference = dirty.copy()
    fork = reference.fork()
    QOCO(fork, PerfectOracle(truth)).clean(QP)
    reference.apply_exported(fork.export_edit_log())

    # 2-shard inline clean
    merged = dirty.copy()
    report = ShardedQOCO(
        merged, PerfectOracle(truth), spec=SPEC, shards=2, mode="inline",
        verify_merge=True,
    ).clean(QP)
    assert merged.state_digest() == reference.state_digest()
    assert merged.state_digest() == truth.state_digest()

    # the exported logs replay in either shard order, through a JSON
    # round-trip, to the same digest
    logs = {
        shard: json.loads(json.dumps(edits))
        for shard, edits in report.edit_logs.items()
    }
    for order in (sorted(logs), sorted(logs, reverse=True)):
        replayed = dirty.copy()
        for shard in order:
            replayed.apply_exported(logs[shard])
        assert replayed.state_digest() == merged.state_digest()


@given(instances())
@settings(max_examples=25, deadline=None)
def test_shard_edit_logs_touch_disjoint_facts(pair):
    truth, dirty = pair
    merged = dirty.copy()
    report = ShardedQOCO(
        merged, PerfectOracle(truth), spec=SPEC, shards=2, mode="inline"
    ).clean(QP)
    touched: list[set[str]] = []
    for shard in sorted(report.edit_logs):
        touched.append(
            {json.dumps(e["fact"], sort_keys=True) for e in report.edit_logs[shard]}
        )
    for i, a in enumerate(touched):
        for b in touched[i + 1 :]:
            assert not (a & b)


NOTED = Schema(
    [
        RelationSchema("m", ("k", "x")),
        RelationSchema("lab", ("x", "y")),
        RelationSchema("block", ("x",)),
        RelationSchema("note", ("x", "text")),
    ]
)
#: reads the replicated ``block`` only under ``not``, and ``note`` not at all
QN = parse_query("qn(k, x) :- m(k, x), lab(x, y), not block(x).")


@st.composite
def noted_instances(draw):
    """:func:`instances` plus blocked x-values (the same in both
    databases) and notes the query never reads, some of them noise."""
    truth, dirty = draw(instances())
    blocked = draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=4))
    block = [Fact("block", (f"x{k}",)) for k in blocked]
    noted = draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=4))
    notes = [Fact("note", (f"x{k}", "kept")) for k in noted]
    noise = [Fact("note", (f"x{k}", "noise")) for k in KEYS if k not in noted]
    return (
        Database(NOTED, list(truth) + block + notes),
        Database(NOTED, list(dirty) + block + notes + noise),
    )


@given(noted_instances())
@settings(max_examples=25, deadline=None)
def test_unread_and_negated_relations_keep_the_unsharded_clean(pair):
    truth, dirty = pair

    reference = dirty.copy()
    fork = reference.fork()
    QOCO(fork, PerfectOracle(truth)).clean(QN)
    reference.apply_exported(fork.export_edit_log())

    merged = dirty.copy()
    ShardedQOCO(
        merged, PerfectOracle(truth), spec=SPEC, shards=2, mode="inline",
        verify_merge=True,
    ).clean(QN)
    assert merged.state_digest() == reference.state_digest()
    # the clean never reads note, so its noise survives untouched
    assert merged.facts("note") == dirty.facts("note")
    assert merged.facts("block") == truth.facts("block")
