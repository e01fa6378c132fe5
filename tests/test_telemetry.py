"""Unit tests for the telemetry subsystem itself (spans, counters,
histograms, sinks, and the pipeline instrumentation points)."""

from __future__ import annotations

import io
import json

import pytest

from repro.core.parallel import ParallelQOCO
from repro.core.qoco import QOCO, QOCOConfig
from repro.datasets.figure1 import figure1_dirty, figure1_ground_truth
from repro.experiments.reporting import render_telemetry_summary
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.evaluator import Evaluator, evaluate
from repro.telemetry import (
    TELEMETRY,
    HistogramStat,
    InMemorySink,
    JSONLSink,
    Telemetry,
    get_telemetry,
    summary_table,
    telemetry_session,
)
from repro.workloads import EX1


class TestTelemetryCore:
    def test_disabled_by_default_records_nothing(self):
        hub = Telemetry()
        hub.count("x")
        hub.observe("h", 3)
        with hub.span("s"):
            pass
        assert hub.counters() == {}
        assert hub.histograms() == {}
        assert hub.span_stats() == {}

    def test_counters_aggregate_and_stream(self):
        hub = Telemetry()
        sink = InMemorySink()
        hub.enable(sink)
        hub.count("a")
        hub.count("a", 4)
        hub.count("b", 2)
        assert hub.counter("a") == 5
        assert hub.counter("b") == 2
        assert hub.counter("missing") == 0
        assert sink.counter_events == [("a", 1, 1), ("a", 4, 5), ("b", 2, 2)]
        assert sink.counter_stream("a") == [1, 4]

    def test_counter_prefix_filter(self):
        hub = Telemetry(enabled=True)
        hub.count("oracle.questions.verify_fact")
        hub.count("evaluator.index_probes")
        assert set(hub.counters("oracle.")) == {"oracle.questions.verify_fact"}

    def test_histograms(self):
        hub = Telemetry(enabled=True)
        for value in (1, 5, 3):
            hub.observe("sizes", value)
        stat = hub.histogram("sizes")
        assert stat.count == 3
        assert stat.total == 9
        assert stat.minimum == 1
        assert stat.maximum == 5
        assert stat.mean == 3
        # an unobserved histogram reads as empty, not KeyError
        assert hub.histogram("nope").count == 0
        assert HistogramStat().mean == 0.0

    def test_spans_nest_and_time(self):
        hub = Telemetry(enabled=True)
        sink = InMemorySink()
        hub.add_sink(sink)
        with hub.span("outer", label="x") as outer:
            assert hub.current_span() is outer
            with hub.span("inner"):
                pass
        assert hub.current_span() is None
        assert sink.span_paths() == ["outer/inner", "outer"]
        inner, outer_span = sink.spans
        assert inner.depth == 1 and outer_span.depth == 0
        assert outer_span.attributes == {"label": "x"}
        assert outer_span.duration >= inner.duration >= 0
        stats = hub.span_stats()
        assert stats["outer"].calls == 1 and stats["inner"].calls == 1

    def test_span_records_error_attribute(self):
        hub = Telemetry(enabled=True)
        sink = InMemorySink()
        hub.add_sink(sink)
        with pytest.raises(ValueError):
            with hub.span("boom"):
                raise ValueError("nope")
        assert sink.spans[0].attributes["error"] == "ValueError"
        assert hub.current_span() is None  # stack unwound

    def test_set_attribute_inside_span(self):
        hub = Telemetry(enabled=True)
        sink = InMemorySink()
        hub.add_sink(sink)
        with hub.span("s") as span:
            span.set_attribute("k", 7)
        assert sink.spans[0].attributes == {"k": 7}
        # and the no-op span accepts the same surface
        hub.disable()
        with hub.span("s") as noop:
            noop.set_attribute("k", 7)

    def test_reset_and_snapshot(self):
        hub = Telemetry(enabled=True)
        hub.count("c", 2)
        hub.observe("h", 1)
        with hub.span("s"):
            pass
        snap = hub.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["spans"]["s"]["calls"] == 1
        hub.reset()
        assert hub.snapshot() == {"counters": {}, "histograms": {}, "spans": {}}

    def test_merge_folds_child_snapshot(self):
        child = Telemetry(enabled=True)
        child.count("c", 3)
        child.observe("h", 1.0)
        child.observe("h", 5.0)
        with child.span("s"):
            pass
        parent = Telemetry(enabled=True)
        parent.count("c", 2)
        parent.observe("h", 3.0)
        with parent.span("s"):
            pass
        parent.merge(child.snapshot())
        assert parent.counter("c") == 5
        merged = parent.histograms()["h"]
        assert merged.count == 3
        assert merged.total == 9.0
        assert merged.minimum == 1.0
        assert merged.maximum == 5.0
        assert parent.span_stats()["s"].calls == 2

    def test_merge_creates_missing_aggregates(self):
        child = Telemetry(enabled=True)
        child.count("only.child", 4)
        child.observe("h", 2.0)
        with child.span("s"):
            pass
        parent = Telemetry(enabled=True)
        parent.merge(child.snapshot())
        assert parent.counter("only.child") == 4
        assert parent.histograms()["h"].count == 1
        assert parent.histograms()["h"].minimum == 2.0
        assert parent.span_stats()["s"].calls == 1
        # merging twice accumulates
        parent.merge(child.snapshot())
        assert parent.counter("only.child") == 8
        assert parent.span_stats()["s"].calls == 2

    def test_merge_noop_when_disabled_or_empty(self):
        parent = Telemetry()
        parent.merge({"counters": {"c": 1}, "histograms": {}, "spans": {}})
        assert parent.counters() == {}
        parent = Telemetry(enabled=True)
        parent.merge({"counters": {}, "histograms": {"h": {"count": 0, "total": 0, "min": None, "max": None, "mean": None}}, "spans": {}})
        assert parent.histograms() == {}

    def test_global_hub_and_session_restores_state(self):
        assert get_telemetry() is TELEMETRY
        assert not TELEMETRY.enabled
        TELEMETRY.enabled = True
        TELEMETRY._counters["pre"] = 7
        try:
            with telemetry_session() as (hub, sink):
                assert hub is TELEMETRY
                assert isinstance(sink, InMemorySink)
                assert hub.counter("pre") == 0  # fresh aggregates inside
                hub.count("inside")
            assert TELEMETRY.enabled  # prior state restored
            assert TELEMETRY.counter("pre") == 7
            assert TELEMETRY.counter("inside") == 0
        finally:
            TELEMETRY.enabled = False
            TELEMETRY.reset()


class TestSinks:
    def test_jsonl_sink_records(self):
        buffer = io.StringIO()
        hub = Telemetry()
        sink = JSONLSink(buffer)
        hub.enable(sink)
        with hub.span("phase", query="q"):
            hub.count("questions", 3)
        hub.flush()
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines[0]["type"] == "span"
        assert lines[0]["name"] == "phase"
        assert lines[0]["attributes"] == {"query": "q"}
        assert lines[0]["duration_s"] >= 0
        summary = lines[-1]
        assert summary["type"] == "summary"
        assert summary["counters"] == {"questions": 3}

    def test_jsonl_sink_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        hub = Telemetry()
        sink = JSONLSink(str(path))
        hub.enable(sink)
        with hub.span("s"):
            pass
        hub.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in records] == ["span", "summary"]

    def test_summary_table_renders_all_sections(self):
        hub = Telemetry(enabled=True)
        hub.count("oracle.cost.total", 12)
        hub.observe("view.delta_size", 2.5)
        with hub.span("qoco.clean"):
            pass
        text = summary_table(hub)
        for needle in (
            "counters", "histograms", "spans",
            "oracle.cost.total", "view.delta_size", "qoco.clean", "12",
        ):
            assert needle in text

    def test_summary_table_empty(self):
        assert "(no telemetry recorded)" in summary_table(Telemetry())

    def test_render_telemetry_summary_uses_global_hub(self):
        with telemetry_session():
            TELEMETRY.count("c", 1)
            text = render_telemetry_summary(title="t")
        assert "c" in text and text.startswith("t\n")


class TestPipelineInstrumentation:
    def test_evaluator_counters(self, worldcup_gt):
        with telemetry_session() as (hub, _):
            answers = evaluate(EX1, worldcup_gt)
            assert answers
            assert hub.counter("evaluator.evaluations") == 1
            assert hub.counter("evaluator.index_probes") > 0
            assert hub.counter("evaluator.backtrack_steps") >= hub.counter(
                "evaluator.assignments"
            )
            assert hub.counter("evaluator.assignments") >= len(answers)

    def test_witness_counters(self, worldcup_gt):
        with telemetry_session() as (hub, _):
            evaluator = Evaluator(EX1, worldcup_gt)
            answer = sorted(evaluator.answers())[0]
            witnesses = evaluator.witnesses(answer)
            assert hub.counter("evaluator.witness_enumerations") == 1
            stat = hub.histogram("evaluator.witnesses_per_answer")
            assert stat.count == 1
            assert stat.total == len(witnesses)

    def test_cleaning_run_covers_the_whole_taxonomy(self):
        dirty = figure1_dirty()
        oracle = AccountingOracle(PerfectOracle(figure1_ground_truth()))
        with telemetry_session() as (hub, sink):
            report = QOCO(dirty, oracle, QOCOConfig(seed=7)).clean(EX1)
            assert report.converged
            assert hub.counter("qoco.iterations") == report.iterations
            assert hub.counter("deletion.invocations") == len(
                report.wrong_answers_removed
            )
            assert hub.counter("insertion.invocations") == len(
                report.missing_answers_added
            )
            assert hub.counter("oracle.cost.total") == report.log.total_cost
            # span hierarchy: phases nested under the clean span
            assert "qoco.clean" in sink.span_names()
            assert any(
                path.startswith("qoco.clean/qoco.deletion_phase")
                for path in sink.span_paths()
            )
            assert any(
                path == "qoco.clean/qoco.insertion_phase/insertion.add_answer"
                for path in sink.span_paths()
            )

    def test_parallel_round_accounting(self):
        dirty = figure1_dirty()
        oracle = AccountingOracle(PerfectOracle(figure1_ground_truth()))
        with telemetry_session() as (hub, _):
            report = ParallelQOCO(dirty, oracle, seed=7).clean(EX1)
            assert hub.counter("parallel.rounds") == report.rounds
            stat = hub.histogram("parallel.round_width")
            assert stat.count == report.rounds
            assert stat.maximum <= report.peak_width
            assert hub.counter("parallel.iterations") == report.iterations

    def test_view_maintenance_counters(self, worldcup_gt):
        from repro.views.materialized import ViewManager

        db = worldcup_gt.copy()
        with telemetry_session() as (hub, _), ViewManager(db) as manager:
            manager.register(EX1)
            assert hub.counter("incremental.full_recompute") == 1
            # a no-op edit never reaches the view
            existing = next(iter(db.facts("teams")))
            manager.insert(existing)
            assert hub.counter("incremental.delta_applied") == 0
            manager.delete(existing)
            assert hub.counter("incremental.delta_applied") == 1
            assert hub.counter("incremental.full_recompute") == 1

    def test_disabled_telemetry_counts_nothing(self, worldcup_gt):
        assert not TELEMETRY.enabled
        evaluate(EX1, worldcup_gt)
        assert TELEMETRY.counters() == {}
