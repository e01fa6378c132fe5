"""The telemetry engine: spans, counters, histograms, and the global hub.

One process-wide :data:`TELEMETRY` instance is shared by every
instrumented module (imported at module load, so the hot paths pay a
single attribute lookup — ``tel.enabled`` — per event when disabled).
Tests use :func:`telemetry_session` to enable it with an in-memory sink
and restore the prior state afterwards.

Spans nest: entering a span pushes it on the hub's stack, so a span's
``path`` is the slash-joined chain of its ancestors
(``qoco.clean/qoco.deletion_phase/deletion.remove_answer``).  Span
timing uses ``time.perf_counter``.  The hub also aggregates per-name
span statistics (call count, total seconds) so the summary table does
not need a sink.

The engine is not thread-safe; QOCO's "parallel" mode is cooperative
round-scheduling in one thread, which is exactly what this supports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional


@dataclass
class HistogramStat:
    """Running summary of an observed distribution (no sample storage)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
        }


@dataclass
class SpanStat:
    """Aggregate over all completed spans sharing one name."""

    calls: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Span:
    """One timed, attributed region.  Context manager; nests via the hub."""

    __slots__ = ("name", "attributes", "path", "depth", "start_time", "end_time", "_hub")

    def __init__(self, hub: "Telemetry", name: str, attributes: dict[str, Any]) -> None:
        self._hub = hub
        self.name = name
        self.attributes = attributes
        self.path = name
        self.depth = 0
        self.start_time = 0.0
        self.end_time = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit."""
        return self.end_time - self.start_time

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
        }

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Span":
        stack = self._hub._stack
        if stack:
            parent = stack[-1]
            self.path = f"{parent.path}/{self.name}"
            self.depth = parent.depth + 1
        stack.append(self)
        self.start_time = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_time = time.perf_counter()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        stack = self._hub._stack
        if stack and stack[-1] is self:
            stack.pop()
        self._hub._finish_span(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.path!r}, {self.duration:.6f}s, {self.attributes!r})"


class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Telemetry:
    """The hub: owns the enabled flag, aggregates, sinks, and span stack.

    Every public mutator early-returns when disabled, so instrumented
    code may call unconditionally; hot loops should still guard with
    ``if tel.enabled:`` to skip argument construction.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._sinks: list = []
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, HistogramStat] = {}
        self._span_stats: dict[str, SpanStat] = {}
        self._stack: list[Span] = []
        #: sinks set aside by :meth:`detach`, kept referenced, never used
        self._detached_sinks: list = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self, *sinks) -> "Telemetry":
        """Turn collection on, optionally attaching *sinks*."""
        for sink in sinks:
            self.add_sink(sink)
        self.enabled = True
        return self

    def disable(self) -> "Telemetry":
        """Turn collection off (aggregates and sinks are kept)."""
        self.enabled = False
        return self

    def add_sink(self, sink) -> None:
        if sink not in self._sinks:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    def reset(self) -> None:
        """Drop all aggregates and any dangling span stack."""
        self._counters.clear()
        self._histograms.clear()
        self._span_stats.clear()
        self._stack.clear()

    def detach(self) -> None:
        """Return to a new hub's state: disabled, with no aggregates and
        no sinks.

        A process forked from the hub's owner calls this first, since
        everything the hub holds is the owner's.  The sinks are set aside
        without :meth:`flush` or :meth:`close` (flushing a copied JSONL
        buffer would write the owner's records a second time) and stay
        referenced, so that no finalizer flushes them either.
        """
        self.enabled = False
        self._detached_sinks.extend(self._sinks)
        self._sinks = []
        self.reset()

    def flush(self) -> None:
        for sink in self._sinks:
            sink.flush(self)

    def close(self) -> None:
        self.flush()
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """A context manager timing one region (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attributes)

    def count(self, name: str, value: float = 1) -> None:
        """Increment counter *name* by *value*."""
        if not self.enabled:
            return
        total = self._counters.get(name, 0) + value
        self._counters[name] = total
        for sink in self._sinks:
            sink.on_counter(name, value, total)

    def observe(self, name: str, value: float) -> None:
        """Record one sample of histogram *name*."""
        if not self.enabled:
            return
        stat = self._histograms.get(name)
        if stat is None:
            stat = self._histograms[name] = HistogramStat()
        stat.observe(value)
        for sink in self._sinks:
            sink.on_observation(name, value)

    def _finish_span(self, span: Span) -> None:
        stat = self._span_stats.get(span.name)
        if stat is None:
            stat = self._span_stats[span.name] = SpanStat()
        stat.calls += 1
        stat.total_seconds += span.duration
        for sink in self._sinks:
            sink.on_span(span)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """A copy of all counters, optionally filtered by name prefix."""
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def histogram(self, name: str) -> HistogramStat:
        return self._histograms.get(name, HistogramStat())

    def histograms(self, prefix: str = "") -> dict[str, HistogramStat]:
        return {
            name: stat
            for name, stat in self._histograms.items()
            if name.startswith(prefix)
        }

    def span_stats(self, prefix: str = "") -> dict[str, SpanStat]:
        return {
            name: stat
            for name, stat in self._span_stats.items()
            if name.startswith(prefix)
        }

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # merging (cross-process aggregation)
    # ------------------------------------------------------------------
    def merge(self, snapshot: dict) -> None:
        """Fold another hub's :meth:`snapshot` into this hub's aggregates.

        The sharded driver collects each worker process's snapshot with
        its result and merges it here, so child-process counters,
        histogram summaries, and span statistics show up in the parent
        instead of dying with the worker.  Counters add; histograms fold
        count/total/min/max; span stats fold calls/total seconds.  Sinks
        are *not* replayed (the events already happened in the child);
        only the aggregates move.  No-op while the hub is disabled, like
        every other mutator.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, data in snapshot.get("histograms", {}).items():
            if not data.get("count"):
                continue
            stat = self._histograms.get(name)
            if stat is None:
                stat = self._histograms[name] = HistogramStat()
            stat.count += data["count"]
            stat.total += data["total"]
            if data["min"] is not None and data["min"] < stat.minimum:
                stat.minimum = data["min"]
            if data["max"] is not None and data["max"] > stat.maximum:
                stat.maximum = data["max"]
        for name, data in snapshot.get("spans", {}).items():
            stat = self._span_stats.get(name)
            if stat is None:
                stat = self._span_stats[name] = SpanStat()
            stat.calls += data["calls"]
            stat.total_seconds += data["total_s"]

    def snapshot(self) -> dict:
        """JSON-serializable view of every aggregate (for export/sinks)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                name: stat.to_dict()
                for name, stat in sorted(self._histograms.items())
            },
            "spans": {
                name: {
                    "calls": stat.calls,
                    "total_s": stat.total_seconds,
                    "mean_s": stat.mean_seconds,
                }
                for name, stat in sorted(self._span_stats.items())
            },
        }


#: The process-wide hub every instrumented module imports.
TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The global hub (one per process; modules bind it at import)."""
    return TELEMETRY


@contextmanager
def telemetry_session(*sinks, hub: Optional[Telemetry] = None) -> Iterator[tuple]:
    """Enable the (global) hub with *sinks* for one scoped block.

    Resets aggregates on entry, yields ``(hub, first_sink)`` — creating
    an :class:`~repro.telemetry.sinks.InMemorySink` when none is given —
    and restores the hub's previous enabled/sink/aggregate state on
    exit, so tests cannot leak telemetry into each other.
    """
    from .sinks import InMemorySink

    hub = hub if hub is not None else TELEMETRY
    saved_enabled = hub.enabled
    saved_sinks = list(hub._sinks)
    saved = (
        dict(hub._counters),
        dict(hub._histograms),
        dict(hub._span_stats),
    )
    if not sinks:
        sinks = (InMemorySink(),)
    hub.reset()
    hub._sinks = list(sinks)
    hub.enabled = True
    try:
        yield hub, sinks[0]
    finally:
        hub.enabled = saved_enabled
        hub._sinks = saved_sinks
        hub._counters, hub._histograms, hub._span_stats = (
            dict(saved[0]),
            dict(saved[1]),
            dict(saved[2]),
        )
        hub._stack.clear()
