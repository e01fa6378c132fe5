"""Span recording for the traced benchmark run, plus the statistics helpers.

The recorder wraps public entry points of the ``repro`` layers at
runtime (:func:`Recorder.wrap`), so the program itself carries no
benchmark code.  It is thread-safe: every thread keeps its own stack of
open spans, and finished spans and counters land in shared storage under
one lock.  A span is a tuple ``(id, parent, trace, name, layer, start,
end)``; the root span of a thread's call tree names the trace, so every
span of one session shares the same trace id.

A wrapper only records while :attr:`Recorder.enabled` is set, which the
benchmark turns on around the measured operations and off for input
generation and output checks.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional, Sequence, Union

ID, PARENT, TRACE, NAME, LAYER, START, END = range(7)
_KEYS = ("id", "parent", "trace", "name", "layer", "start", "end")


class Recorder:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        # ids stay unique when spans from several processes are pooled
        self._ids = itertools.count(random.SystemRandom().getrandbits(40) << 20)
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def call(self, name, layer, fn, args, kwargs, on_result=None):
        """Run ``fn(*args, **kwargs)`` inside a span (when enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        trace = parent[1] if parent is not None else span_id
        stack.append((span_id, trace))
        error = result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            record = (
                span_id, parent[0] if parent is not None else None, trace,
                name, layer, start, end,
            )
            with self._lock:
                self.spans.append(record)
            if on_result is not None:
                on_result(self, args, kwargs, result, error, end - start)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Union[str, Callable],
        layer: str,
        on_result: Optional[Callable] = None,
        *,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        *name* is the span name, or a function of the call's
        ``(args, kwargs)`` that returns it.  ``on_result(recorder, args, kwargs, result, error, seconds)`` runs
        after every recorded call.  With ``span=False`` the wrapper only
        counts calls under *name* (for hot recursive helpers).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        if not span:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                if recorder.enabled:
                    recorder.count(name)
                return original(*args, **kwargs)

            setattr(owner, attr, counted)
            self._undo.append((owner, attr, original))
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return recorder.call(span_name, layer, original, args, kwargs, on_result)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def extend(self, spans: Iterable[Sequence], counts: dict[str, float]) -> None:
        """Pool spans and counters recorded by another process."""
        with self._lock:
            self.spans.extend(tuple(s) for s in spans)
            for name, value in counts.items():
                self.counts[name] += value

    def dump(self, path) -> None:
        """Write every span (JSON lines) and a final counters record."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(_KEYS, record))) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Sequence]) -> dict[Any, float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap each other (spans of one parent recorded on
    several threads) are counted once, and a child that outlives its
    parent only covers the parent's own interval.
    """
    children: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered_length(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least
    *beyond* samples above it.

    When that percentile would not lie above the median (fewer than
    ``2 * beyond + 1`` samples), no tail can be told apart from the body
    and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    n = len(ordered)
    index = n - beyond - 1
    if index < n // 2:
        return 100.0, ordered[-1]
    return 100.0 * (index + 1) / n, ordered[index]


def load_dump(path) -> tuple[list[tuple], dict[str, float]]:
    """Read a :meth:`Recorder.dump` file back as ``(spans, counts)``."""
    spans, counts = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "counts" in record:
                counts = record["counts"]
            else:
                spans.append(tuple(record[k] for k in _KEYS))
    return spans, counts
