"""The repository benchmark: four end-to-end workloads through ``repro.api``.

    python3 perfbench/run.py --workload clean-wc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it imports ``repro`` from ``src/`` and
refuses to run (exit 2, no result) when the sources are not there.  One
run repeats the workload's operation — set up inputs from ``--seed``,
run the user-visible path, check its outputs — for ``--seconds``
seconds; the first operation warms the process and is checked but not
measured.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the first half of
the time runs untraced and the second half with the span wrappers of
``layers.py`` installed, and the metrics are the per-layer ones plus the
tracing overhead.  The line before it records the machine, the
durability and oracle policy, the workload's scale, and the sample
counts behind each percentile.  A traced run writes its spans to
``.perfbench_work/spans/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "oracle_cost": "count",
    "session_p50_ms": "ms",
    "session_tail_ms": "ms",
}

#: never stop before this many measured operations, whatever --seconds says
MIN_OPS = 3
#: hard stop for a run whose operations keep failing
GRACE_S = 60.0


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)
    cost: list = field(default_factory=list)
    #: per measured operation, the open→commit latency of each session
    sessions_ms: list = field(default_factory=list)


def cpu_seconds() -> float:
    """user + sys CPU of this process and of every child it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_phase(workload, seed: int, seconds: float, workdir: Path, *, warmup: bool,
              traced=None, hub=None, start_index: int = 0) -> Phase:
    phase = Phase()
    deadline = time.monotonic() + seconds
    index = start_index
    measured = 0
    while True:
        warming = warmup and index == start_index
        phase.attempted += 1
        state = None
        try:
            # every timed window starts from an empty collector, so a
            # full collection never lands in one operation by accident
            gc.collect()
            t0 = time.perf_counter()
            state = workload.prepare(seed, workdir, index)
            setup = time.perf_counter() - t0
            gc.collect()
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            if traced is not None:
                traced.enabled = True
            if hub is not None:
                hub.enable()
            try:
                outcome = workload.execute(state)
            finally:
                if traced is not None:
                    traced.enabled = False
                if hub is not None:
                    hub.disable()
            elapsed = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0 + outcome.extra_cpu_s
            problems = workload.finish(state, outcome, seed, workdir)
        except Exception:
            problems = [traceback.format_exc()]
            if state is not None:
                workload.close(state)
        if problems:
            phase.failed += 1
            for problem in problems:
                print(f"FAILED {workload.name} op {index}: {problem}", file=sys.stderr)
        elif not warming:
            measured += 1
            phase.setup_s.append(setup)
            phase.run_s.append(elapsed)
            phase.cpu_s.append(cpu)
            phase.cost.append(outcome.cost)
            phase.sessions_ms.append(
                outcome.sessions_ms if outcome.sessions_ms is not None else [1000.0 * elapsed]
            )
        index += 1
        now = time.monotonic()
        if now >= deadline and (measured >= MIN_OPS or phase.failed >= MIN_OPS):
            break
        if now >= deadline + GRACE_S:
            break
    return phase


def peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children, getattr(workload, "server_peak_rss_mb", 0.0))


def session_stats(phase: Phase) -> list[tuple[float, float, float]]:
    """Per operation: (p50, tail percentile, tail value) of its sessions."""
    from spans import tail_percentile

    return [
        (statistics.median(samples), *tail_percentile(samples)) for samples in phase.sessions_ms
    ]


def environment_record(workload, phase: Phase) -> dict:
    import numpy

    first = phase.sessions_ms[0] if phase.sessions_ms else []
    _, percentile, tail = session_stats(phase)[0] if first else (0.0, 0.0, 0.0)
    return {
        "workload": workload.name,
        "why": workload.why,
        "scale": workload.scale(),
        "machine": {
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "policy": {"wal_sync": "always", "oracle_latency": 0, "oracle": "PerfectOracle"},
        "measured_ops": len(phase.run_s),
        "sessions_per_op": len(first),
        "session_tail_percentile": percentile,
        "session_tail_samples_beyond": sum(1 for x in first if x > tail),
    }


def end_to_end(workload, phase: Phase) -> dict:
    # Time metrics come from the fastest operation of the run: on a
    # shared host, neighbours slow whole stretches of a run, and the
    # fastest operation is the estimate they move least.  Set-up time is
    # the median of the run's set-ups.
    stats = session_stats(phase)
    values = {
        "setup_s": statistics.median(phase.setup_s),
        "run_s": min(phase.run_s),
        "cpu_s": min(phase.cpu_s),
        "peak_rss_mb": peak_rss_mb(workload),
        "oracle_cost": statistics.median(phase.cost),
        "session_p50_ms": min(p50 for p50, _, _ in stats),
        "session_tail_ms": min(tail for _, _, tail in stats),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(workload, seed: int, seconds: float, workdir: Path):
    from layers import PER_LAYER, instrument, layer_metrics
    from spans import Recorder

    from repro.telemetry import TELEMETRY

    plain = run_phase(workload, seed, seconds / 2, workdir, warmup=True)
    recorder = Recorder()
    instrument(recorder)
    workload.recorder = recorder
    workload.trace_server = True
    TELEMETRY.reset()
    traced = run_phase(
        workload, seed, seconds / 2, workdir, warmup=False, traced=recorder,
        hub=TELEMETRY if workload.uses_hub else None, start_index=plain.attempted,
    )
    recorder.unwrap_all()
    ops = traced.attempted
    sessions = sum(len(samples) for samples in traced.sessions_ms)
    metrics = layer_metrics(recorder, ops, TELEMETRY.counters(), sessions)
    # the same estimator as the end-to-end run_s: the fastest operation
    untraced_s = min(plain.run_s, default=0.0)
    traced_s = min(traced.run_s, default=0.0)
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.traced_run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    recorder.dump(spans_dir / f"{workload.name}-seed{seed}.jsonl")
    combined = Phase(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        run_s=plain.run_s,
        sessions_ms=plain.sessions_ms,
    )
    reported = {
        name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER
    }
    return combined, reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="QOCO end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' is the reduced scale of the smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.KINDS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.KINDS)}")
    workload = workloads.make(args.workload, args.scale)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            phase, metrics = traced_run(workload, args.seed, args.seconds, workdir)
        else:
            phase = run_phase(workload, args.seed, args.seconds, workdir, warmup=True)
            metrics = end_to_end(workload, phase) if phase.run_s else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # spawned shard workers leave multiprocessing's resource-tracker
        # process running until exit; stop and reap it so no child of the
        # benchmark outlives it
        from multiprocessing import resource_tracker

        stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop_tracker is not None:
            stop_tracker()
    record = environment_record(workload, phase)
    if args.trace:
        from layers import PREDICTIONS

        record["layer_predictions"] = PREDICTIONS
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": phase.failed == 0 and bool(phase.run_s),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
