"""Tests of the benchmark itself: ``python -m pytest perfbench``.

Span arithmetic and tail selection are unit-tested; every workload gets
a reduced-scale smoke run (untraced and traced) that must pass its
output checks and report every metric.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from layers import PER_LAYER
from spans import ID, PARENT, TRACE, Recorder, covered_length, self_times, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("clean-wc", "clean-wc-sharded", "repair-csv", "serve-burst")
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def span(span_id, parent, start, end, name="x", layer="x"):
    return (span_id, parent, 0, name, layer, start, end)


class TestSelfTime:
    def test_nested(self):
        spans = [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 2, 2.0, 3.0),
            span(4, 1, 5.0, 7.0),
        ]
        assert self_times(spans) == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0})

    def test_overlapping_children_count_once(self):
        # two children of one parent recorded on different threads
        spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 6.0), span(3, 1, 4.0, 8.0)]
        assert self_times(spans)[1] == pytest.approx(3.0)

    def test_child_outliving_parent_is_clipped(self):
        spans = [span(1, None, 0.0, 10.0), span(2, 1, 8.0, 12.0)]
        assert self_times(spans) == pytest.approx({1: 8.0, 2: 4.0})

    def test_covered_length(self):
        assert covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)], 0, 10) == pytest.approx(4.0)
        assert covered_length([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
        assert covered_length([], 0, 10) == 0.0


class TestTailPercentile:
    def test_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        percentile, value = tail_percentile(samples)
        assert (percentile, value) == (99.0, 990)
        assert sum(1 for x in samples if x > value) == 10

    def test_unsorted_input(self):
        samples = [float(x) for x in range(100, 0, -1)]
        percentile, value = tail_percentile(samples)
        assert (percentile, value) == (90.0, 90.0)

    def test_smallest_sample_with_a_tail(self):
        percentile, value = tail_percentile(list(range(21)))
        assert value == 10 and sum(1 for x in range(21) if x > value) == 10
        assert percentile > 50.0

    def test_too_few_samples_give_the_maximum(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
        assert tail_percentile(list(range(20))) == (100.0, 19)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class TestRecorder:
    def test_threads_keep_their_own_stacks(self):
        recorder = Recorder()

        class Layer:
            def outer(self, inner_calls):
                for _ in range(inner_calls):
                    self.inner()

            def inner(self):
                return None

        recorder.wrap(Layer, "outer", "layer.outer", "layer")
        recorder.wrap(Layer, "inner", "layer.inner", "inner")
        recorder.enabled = True
        barrier = threading.Barrier(4)

        def work():
            barrier.wait()
            for _ in range(50):
                Layer().outer(3)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        recorder.unwrap_all()
        outer = {s[ID]: s for s in recorder.spans if s[3] == "layer.outer"}
        inner = [s for s in recorder.spans if s[3] == "layer.inner"]
        assert len(outer) == 200 and len(inner) == 600
        for s in inner:
            assert s[PARENT] in outer
            assert s[TRACE] == outer[s[PARENT]][TRACE] == s[PARENT]
        assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")

    def test_disabled_records_nothing(self):
        recorder = Recorder()

        class Layer:
            def call(self):
                return 7

        recorder.wrap(Layer, "call", "layer.call", "layer")
        assert Layer().call() == 7
        assert recorder.spans == []


def run_benchmark(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
        "--scale", "small",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = END_TO_END if trace == "0" else [
        {"name": name, "unit": unit} for name, unit, _ in PER_LAYER
    ]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if trace == "0":
            assert reported["value"] > 0, metric["name"]


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_benchmark(
            "--workload", "clean-wc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
