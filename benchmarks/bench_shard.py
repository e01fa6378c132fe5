"""Sharded cleaning benchmark: million-tuple worldcup, 4 worker processes.

The contract (ISSUE 7): partition the scaled worldcup database
(~1M tuples via ``WorldCupConfig.replicas``) by tournament year, clean
Q3 with `ShardedQOCO` in parallel worker processes, and

* the merged database must be **bit-identical** (``state_digest``) to a
  single-process QOCO clean of the same dirty database — and to a
  1-shard sharded run, so the sharding machinery itself is
  digest-neutral;
* edit/question counters must reproduce exactly (seeded, deterministic);
* on a machine with >= 4 CPUs, 4 shard processes must finish >= 3x
  faster end-to-end than 1 shard process.  The speedup measurement is
  recorded everywhere but only *gated* where the parallelism physically
  exists (the committed baseline is CPU-count independent).

What the timed runs measure: partition + payload shipping + worker
rebuild/evaluation/cleaning + oracle round-trips + merge.  The sharded
runs simulate a 2 ms crowd response per charged question
(``oracle_latency`` — a real crowd is minutes, §7.2); shards both
compute *and* wait on the crowd concurrently, which is exactly the
parallelism Appendix B describes.  The one expensive simulation
artifact — ``PerfectOracle``'s ground-truth evaluation — is warmed once
up front and shared across runs so no timed window measures it.

The compute speedup is reported apart from that: the unsharded clean
and a ``SHARDS``-worker clean, both with an instant crowd, each timed
``COMPUTE_RUNS`` times on fresh copies of the dirty database;
``compute_speedup`` is the ratio of their medians.  It is recorded, not
gated.

Run under pytest (``pytest benchmarks/bench_shard.py``, reduced scale)
or as a script (``python benchmarks/bench_shard.py [out.json]``), which
writes ``BENCH_shard.json`` at full scale.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

from bench_common import metric, write_payload
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

#: ~1,000,000 facts (530 replicas x ~1880 games+goals + dimensions)
REPLICAS = 530
#: every 2nd tournament year gets a fake champion (deletion-only noise
#: whose witnesses stay inside that year's shard)
NOISE_STRIDE = 2
SHARDS = 4
SPEEDUP_FLOOR = 3.0
#: simulated crowd response per charged question, seconds (a live crowd
#: is ~5 orders of magnitude slower; see docs/sharding.md)
ORACLE_LATENCY = 0.002
#: timed repeats of each latency-free clean behind ``compute_speedup``
COMPUTE_RUNS = 3


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_workload(replicas: int = REPLICAS):
    """(ground truth, dirty copy, injected-fact count, warmed oracle)."""
    config = WorldCupConfig(replicas=replicas)
    truth = worldcup_database(config)
    dirty = truth.copy()
    injected = inject_fake_champions(dirty, worldcup_years(config)[::NOISE_STRIDE])
    oracle = PerfectOracle(truth)
    # materialize the simulated oracle's ground-truth answer set now:
    # it is a fixture of the simulation (a real crowd just *knows*), not
    # a cost any timed pipeline below should carry
    oracle.complete_result(Q3, ())
    return truth, dirty, injected, oracle


def run_unsharded(oracle, dirty):
    merged = dirty.copy()
    fork = merged.fork()
    start = time.perf_counter()
    report = QOCO(fork, oracle, backend="columnar").clean(Q3)
    elapsed = time.perf_counter() - start
    merged.apply_exported(fork.export_edit_log())
    return {
        "digest": merged.state_digest(),
        "edits": len(report.edits),
        "wrong_removed": len(report.wrong_answers_removed),
        "cost": report.total_cost,
        "seconds": elapsed,
    }


def run_sharded(oracle, dirty, shards: int, oracle_latency: float = ORACLE_LATENCY):
    merged = dirty.copy()
    driver = ShardedQOCO(
        merged,
        oracle,
        spec=worldcup_partition_spec(),
        shards=shards,
        mode="process",
        oracle_latency=oracle_latency,
        backend="columnar",
    )
    report = driver.clean(Q3)
    worker_seconds = [o.seconds for o in report.outcomes]
    return {
        "shards": shards,
        "digest": merged.state_digest(),
        "edits_applied": report.edits_applied,
        "wrong_removed": sum(o.wrong_answers_removed for o in report.outcomes),
        "cost": report.total_cost,
        "rounds": report.rounds,
        "converged": report.converged,
        "seconds": report.wall_clock,
        # sum/max over the workers' own clocks = the parallel fraction
        "worker_seconds_sum": sum(worker_seconds),
        "worker_seconds_max": max(worker_seconds, default=0.0),
    }


def compute_seconds(oracle, dirty) -> tuple[float, float]:
    """Median seconds of the unsharded and the ``SHARDS``-worker clean,
    both with an instant crowd."""
    unsharded = [run_unsharded(oracle, dirty)["seconds"] for _ in range(COMPUTE_RUNS)]
    sharded = [
        run_sharded(oracle, dirty, SHARDS, oracle_latency=0.0)["seconds"]
        for _ in range(COMPUTE_RUNS)
    ]
    return statistics.median(unsharded), statistics.median(sharded)


def bench_report(replicas: int = REPLICAS) -> dict:
    truth, dirty, injected, oracle = build_workload(replicas)
    unsharded = run_unsharded(oracle, dirty)
    single = run_sharded(oracle, dirty, 1)
    parallel = run_sharded(oracle, dirty, SHARDS)
    speedup = single["seconds"] / parallel["seconds"] if parallel["seconds"] else 0.0
    unsharded_compute_s, sharded_compute_s = compute_seconds(oracle, dirty)
    cpus = available_cpus()
    result = {
        "workload": {
            "dataset": "worldcup",
            "replicas": replicas,
            "facts": len(dirty),
            "noise_facts": injected,
            "query": Q3.name,
            "shards": SHARDS,
            "cpus": cpus,
            "oracle_latency": ORACLE_LATENCY,
        },
        "unsharded": unsharded,
        "sharded_1": single,
        "sharded_n": parallel,
        "speedup": speedup,
        "unsharded_compute_s": unsharded_compute_s,
        "sharded_compute_s": sharded_compute_s,
        "compute_speedup": unsharded_compute_s / sharded_compute_s,
    }
    result["metrics"] = {
        # deterministic workload shape and outcome: bit-exact across runs
        "facts": metric(len(dirty)),
        "noise_facts": metric(injected),
        "merged_digest": metric(parallel["digest"]),
        "digest_match_unsharded": metric(int(parallel["digest"] == unsharded["digest"])),
        "digest_match_single_shard": metric(int(parallel["digest"] == single["digest"])),
        "edits_applied": metric(parallel["edits_applied"]),
        "wrong_removed": metric(parallel["wrong_removed"]),
        "cost_sharded_1": metric(single["cost"]),
        "cost_sharded_n": metric(parallel["cost"]),
        "rounds": metric(parallel["rounds"]),
    }
    if cpus >= SHARDS:
        # only gate the wall-clock ratio where 4 workers can actually
        # run in parallel; the committed baseline (possibly produced on
        # a smaller box) must stay environment-independent
        result["metrics"]["speedup"] = metric(speedup, "higher", 0.25)
    return result


def check(result: dict) -> list[str]:
    """The hard gates; returns the failures (empty = pass)."""
    failures = []
    parallel, single, unsharded = (
        result["sharded_n"], result["sharded_1"], result["unsharded"]
    )
    if parallel["digest"] != unsharded["digest"]:
        failures.append("merged digest differs from the single-process clean")
    if parallel["digest"] != single["digest"]:
        failures.append("shard count changed the merged digest")
    if parallel["edits_applied"] != unsharded["edits"]:
        failures.append(
            f"sharded clean applied {parallel['edits_applied']} edits, "
            f"unsharded produced {unsharded['edits']}"
        )
    if not parallel["converged"] or not single["converged"]:
        failures.append("a sharded run did not converge")
    if result["workload"]["cpus"] >= SHARDS and result["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"only {result['speedup']:.2f}x speedup at {SHARDS} shard "
            f"processes (need >= {SPEEDUP_FLOOR}x with "
            f"{result['workload']['cpus']} CPUs)"
        )
    return failures


def test_shard_contract():
    """The digest-equality contract at reduced scale (fast enough for a
    test job; the full million-tuple gate runs in script mode)."""
    result = bench_report(replicas=40)
    assert check(result) == []


def main(argv: list[str]) -> int:
    out = argv[1] if len(argv) > 1 else "BENCH_shard.json"
    result = bench_report()
    write_payload(out, result)
    workload = result["workload"]
    print(
        f"{workload['facts']} facts, {workload['noise_facts']} noise facts, "
        f"{workload['cpus']} CPUs"
    )
    for name in ("unsharded", "sharded_1", "sharded_n"):
        row = result[name]
        print(f"{name:10s} {row['seconds']:6.1f}s  digest {row['digest'][:16]}")
    print(f"speedup {result['speedup']:.2f}x at {workload['shards']} shard processes")
    print(
        f"compute   {result['unsharded_compute_s']:6.1f}s unsharded, "
        f"{result['sharded_compute_s']:.1f}s at {workload['shards']} shard processes "
        f"(no crowd latency, median of {COMPUTE_RUNS}): "
        f"{result['compute_speedup']:.2f}x"
    )
    failures = check(result)
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
