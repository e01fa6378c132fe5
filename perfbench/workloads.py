"""The four benchmark workloads, each driven through ``repro.api``.

Every workload has three steps per operation:

* ``prepare(seed, workdir, index)`` builds the inputs from the seed
  (timed as set-up);
* ``execute(state)`` runs the user-visible path (timed as the run) and
  returns an :class:`Outcome`;
* ``finish(state, outcome, seed, workdir)`` checks the outputs, releases
  processes, and returns the list of failed checks (untimed);
* ``close(state)`` releases what an operation that raised still holds.

``repro`` only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent

#: the worldcup games table written to CSV for ``repair-csv``
GAMES_HEADER = ["date", "winner", "runner_up", "stage", "result"]
FDS = ["games: date -> winner, runner_up, stage, result"]


def _repair_noise():
    from repro.ingest import DuplicateRows, MixedFormats, TypePollution

    # the mixed stack of benchmarks/bench_constraints.py
    return (
        TypePollution(rate=0.02),
        MixedFormats(rate=0.05),
        DuplicateRows(rate=0.10, perturb_columns=(1, 4)),
    )


@dataclass
class Outcome:
    cost: int
    #: open→commit latency of each session in the operation, ms; ``None``
    #: when the operation is one session (its run time is the latency)
    sessions_ms: Optional[list[float]] = None
    #: CPU seconds spent by processes the benchmark cannot wait for
    extra_cpu_s: float = 0.0


class Workload:
    name = ""
    why = ""
    #: read the (single-threaded) telemetry hub's counters in traced runs
    uses_hub = True

    def scale(self) -> dict:
        return {}

    def close(self, state) -> None:
        """Release what an operation that failed part-way still holds."""


# ---------------------------------------------------------------------------
# worldcup cleaning
# ---------------------------------------------------------------------------
@dataclass
class _CleanState:
    truth: object
    dirty: object
    oracle: object
    years: list
    report: object = None


class CleanWC(Workload):
    name = "clean-wc"
    why = (
        "unsharded columnar clean of Q3 on scaled worldcup: every delete is answered by "
        "columnar evaluation and incremental delta maintenance; no WAL, HTTP or codec"
    )

    def __init__(self, replicas: int) -> None:
        self.replicas = replicas
        self._reference: dict[int, str] = {}

    def scale(self) -> dict:
        return {"replicas": self.replicas, "noise": "fake champion on every 2nd year"}

    def prepare(self, seed: int, workdir: Path, index: int) -> _CleanState:
        from repro.datasets.worldcup import (
            WorldCupConfig,
            inject_fake_champions,
            worldcup_database,
            worldcup_years,
        )
        from repro.oracle.perfect import PerfectOracle
        from repro.workloads import Q3

        config = WorldCupConfig(seed=seed, replicas=self.replicas)
        truth = worldcup_database(config)
        dirty = truth.copy()
        years = worldcup_years(config)[seed % 2::2]
        inject_fake_champions(dirty, years)
        oracle = PerfectOracle(truth)
        # the simulated crowd's ground-truth answer set is a fixture of
        # the simulation (a real crowd just knows it), not part of a clean
        oracle.complete_result(Q3, ())
        return _CleanState(truth, dirty, oracle, list(years))

    def execute(self, state: _CleanState) -> Outcome:
        import repro.api as api
        from repro.workloads import Q3

        state.report = api.clean(state.dirty, Q3, state.oracle, backend="columnar")
        return Outcome(cost=state.report.total_cost)

    def wrong_removed(self, state: _CleanState) -> int:
        return len(state.report.wrong_answers_removed)

    def reference_digest(self, seed: int, workdir: Path, state: _CleanState) -> str:
        return self._reference.setdefault(seed, state.dirty.state_digest())

    def finish(self, state: _CleanState, outcome: Outcome, seed: int, workdir: Path) -> list:
        import repro.api as api
        from repro.workloads import Q3

        problems = []
        if self.wrong_removed(state) != len(state.years):
            problems.append(
                f"removed {self.wrong_removed(state)} wrong answers, injected {len(state.years)}"
            )
        for relation in state.truth.schema.names:
            if not state.truth.facts(relation) <= state.dirty.facts(relation):
                problems.append(f"a true {relation} fact was deleted")
        truth_answers = api.evaluate(state.truth, Q3, backend="columnar")
        if api.evaluate(state.dirty, Q3, backend="columnar") != truth_answers:
            problems.append("Q3 over the cleaned database differs from the ground truth")
        digest = state.dirty.state_digest()
        if digest != self.reference_digest(seed, workdir, state):
            problems.append("state digest differs from the unsharded reference clean")
        return problems


class CleanWCSharded(CleanWC):
    name = "clean-wc-sharded"
    why = (
        "the same inputs through clean_sharded in 2 worker processes: the only workload "
        "that runs partition, wire codec, question router and merge"
    )

    def scale(self) -> dict:
        return {**super().scale(), "shards": 2, "mode": "process", "oracle_latency": 0}

    def execute(self, state: _CleanState) -> Outcome:
        import repro.api as api
        from repro.datasets.worldcup import worldcup_partition_spec
        from repro.workloads import Q3

        state.report = api.clean_sharded(
            state.dirty, Q3, state.oracle,
            spec=worldcup_partition_spec(), shards=2, mode="process",
            oracle_latency=0, backend="columnar",
        )
        return Outcome(cost=state.report.total_cost)

    def wrong_removed(self, state: _CleanState) -> int:
        return sum(o.wrong_answers_removed for o in state.report.outcomes)

    def reference_digest(self, seed: int, workdir: Path, state: _CleanState) -> str:
        if seed not in self._reference:
            reference = CleanWC(self.replicas)
            fresh = reference.prepare(seed, workdir, -1)
            reference.execute(fresh)
            self._reference[seed] = fresh.dirty.state_digest()
        return self._reference[seed]

    def finish(self, state: _CleanState, outcome: Outcome, seed: int, workdir: Path) -> list:
        problems = super().finish(state, outcome, seed, workdir)
        if not state.report.converged:
            problems.append("the sharded clean did not converge")
        return problems


# ---------------------------------------------------------------------------
# constraint repair over a noisy CSV
# ---------------------------------------------------------------------------
@dataclass
class _RepairState:
    truth: object
    dirty_csv: Path
    wal_dir: Path
    dirty: object = None
    session: object = None


class RepairCSV(Workload):
    name = "repair-csv"
    why = (
        "noisy worldcup games CSV loaded and repaired under an FD in one durable repair "
        "session: ingest, violation detection, repairer selection, one large WAL commit"
    )

    def __init__(self, replicas: int) -> None:
        self.replicas = replicas

    def scale(self) -> dict:
        return {
            "replicas": self.replicas,
            "noise": "TypePollution 2%, MixedFormats 5%, DuplicateRows 10%, noise seed 23",
            "fds": FDS,
            "wal_sync": "always",
        }

    def prepare(self, seed: int, workdir: Path, index: int) -> _RepairState:
        import repro.api as api
        from repro.datasets.worldcup import WorldCupConfig, worldcup_database
        from repro.ingest import NoisePipeline, make_noisy_csv, read_table, write_csv

        database = worldcup_database(WorldCupConfig(replicas=self.replicas))
        rows = [
            [str(v) for v in f.values]
            for f in sorted(database.facts("games"), key=lambda f: f.values)
        ]
        clean_csv = workdir / f"games-{index}.csv"
        dirty_csv = workdir / f"games-{index}-dirty.csv"
        write_csv(clean_csv, GAMES_HEADER, rows)
        # the noise is fixed, so every seed poses the same repair problem
        # and the oracle cost does not vary with it; the seed decides the
        # order of the dirty file's rows
        make_noisy_csv(clean_csv, dirty_csv, NoisePipeline(_repair_noise(), seed=23))
        header, dirty_rows = read_table(dirty_csv)
        random.Random(seed).shuffle(dirty_rows)
        write_csv(dirty_csv, header, dirty_rows)
        truth = api.load_csv(clean_csv, relation="games")
        return _RepairState(truth, dirty_csv, workdir / f"wal-{index}")

    def execute(self, state: _RepairState) -> Outcome:
        import repro.api as api
        from repro.oracle.perfect import PerfectOracle

        state.dirty = api.load_csv(state.dirty_csv, relation="games")
        manager = api.serve(state.dirty, durable_path=state.wal_dir, sync="always")
        start = time.perf_counter()
        state.session = manager.open_repair_session(FDS, PerfectOracle(state.truth))
        manager.drive(state.session)
        latency_ms = 1000.0 * (time.perf_counter() - start)
        manager.close()
        return Outcome(cost=state.session.total_cost, sessions_ms=[latency_ms])

    def finish(self, state: _RepairState, outcome: Outcome, seed: int, workdir: Path) -> list:
        import repro.api as api
        from repro.constraints import satisfies
        from repro.server.session import SessionState

        problems = []
        if state.session.state is not SessionState.COMMITTED:
            problems.append(f"repair session ended {state.session.state}")
        if not satisfies(state.dirty, FDS):
            problems.append("the repaired database still violates the FD")
        if api.recover(state.wal_dir).database.state_digest() != state.dirty.state_digest():
            problems.append("recovering the WAL does not give the live digest")
        return problems


# ---------------------------------------------------------------------------
# the tenant burst against a primary in its own process
# ---------------------------------------------------------------------------
def process_cpu_s(pid: int) -> float:
    """user + sys CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


@dataclass
class _BurstState:
    server: subprocess.Popen
    host: str
    port: int
    truth: object
    order: list
    wal_dir: Path
    trace_out: Optional[Path]
    worker: object = None
    worker_thread: object = None
    docs: list = field(default_factory=list)
    closed: bool = False


class ServeBurst(Workload):
    name = "serve-burst"
    why = (
        "closed-loop tenant burst over HTTP against a durable primary process: broker "
        "leases, fork/commit per session, one small fsynced WAL commit per session"
    )
    uses_hub = False  # the service is threaded; counters come from spans
    #: set by the traced run so the server installs the span wrappers
    trace_server = False

    def __init__(self, tenants: int) -> None:
        self.tenants = tenants
        self.server_peak_rss_mb = 0.0
        self.recorder = None

    def scale(self) -> dict:
        return {
            "tenants": self.tenants,
            "load": "closed loop: 1 tenant client thread, 1 long-polling worker thread",
            "wal_sync": "always",
        }

    def prepare(self, seed: int, workdir: Path, index: int) -> _BurstState:
        from repro.service.cli import build_workload

        truth = build_workload("burst", tenants=self.tenants).ground_truth
        order = list(range(self.tenants))
        random.Random(seed).shuffle(order)
        wal_dir = workdir / f"primary-{index}"
        trace_out = workdir / f"server-spans-{index}.jsonl" if self.trace_server else None
        command = [
            sys.executable, str(HERE / "server.py"),
            "--dir", str(wal_dir), "--tenants", str(self.tenants),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = server.stdout.readline().split()
        if len(line) != 3 or line[0] != "LISTENING":
            server.kill()
            server.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        return _BurstState(server, line[1], int(line[2]), truth, order, wal_dir, trace_out)

    def execute(self, state: _BurstState) -> Outcome:
        from repro.oracle.perfect import PerfectOracle
        from repro.service.cli import burst_query
        from repro.service.client import ServiceClient, WorkerClient

        cpu_before = process_cpu_s(state.server.pid)
        state.worker = WorkerClient(
            state.host, state.port, "w1", PerfectOracle(state.truth), poll_wait=1.0
        )
        state.worker_thread = state.worker.start_thread()
        latencies = []
        with ServiceClient(state.host, state.port) as client:
            for tenant in state.order:
                start = time.perf_counter()
                doc = self._session(client, tenant, burst_query(tenant))
                latencies.append(1000.0 * (time.perf_counter() - start))
                state.docs.append(doc)
        return Outcome(
            cost=sum(int(doc.get("cost", 0)) for doc in state.docs),
            sessions_ms=latencies,
            extra_cpu_s=process_cpu_s(state.server.pid) - cpu_before,
        )

    def _session(self, client, tenant: int, query) -> dict:
        def open_and_wait():
            session_id = client.open_when_admitted(query, tenant=f"t{tenant}")
            return client.wait(session_id, timeout=60.0)

        if self.recorder is not None:
            # the root span every client-side span of this session hangs off
            return self.recorder.call("bench.session", "bench", open_and_wait, (), {})
        return open_and_wait()

    def finish(self, state: _BurstState, outcome: Outcome, seed: int, workdir: Path) -> list:
        import repro.api as api
        from repro.durability import codec
        from repro.service.client import ServiceClient

        problems = []
        try:
            not_committed = [d for d in state.docs if d.get("state") != "committed"]
            if not_committed or len(state.docs) != self.tenants:
                problems.append(f"{len(not_committed)} session(s) not committed")
            with ServiceClient(state.host, state.port) as client:
                served = client.digest()["digest"]
            if served != codec.database_digest(state.truth):
                problems.append("/v1/digest differs from the ground-truth digest")
        finally:
            self.close(state)
        recovered = api.recover(state.wal_dir).database
        if any("bogus" in str(f.values) for f in recovered.facts("r")):
            problems.append("a bogus fact survived the burst")
        return problems

    def close(self, state: _BurstState) -> None:
        if state.closed:
            return
        state.closed = True
        if state.worker is not None:
            state.worker.stop()
            state.worker_thread.join(timeout=30)
            state.worker.close()
        if state.server.poll() is None:
            self.server_peak_rss_mb = max(
                self.server_peak_rss_mb, process_peak_rss_mb(state.server.pid)
            )
            state.server.send_signal(signal.SIGTERM)
            try:
                state.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                state.server.kill()
                state.server.wait()
        state.server.stdout.close()
        if state.trace_out is not None and self.recorder is not None and state.trace_out.exists():
            from spans import load_dump

            self.recorder.extend(*load_dump(state.trace_out))


SCALES = {
    # replicas / tenants per workload at the benchmark's scale and at the
    # reduced scale the smoke tests use
    "full": {"clean-wc": 20, "clean-wc-sharded": 20, "repair-csv": 3, "serve-burst": 100},
    "small": {"clean-wc": 2, "clean-wc-sharded": 2, "repair-csv": 1, "serve-burst": 12},
}

KINDS = {
    "clean-wc": CleanWC,
    "clean-wc-sharded": CleanWCSharded,
    "repair-csv": RepairCSV,
    "serve-burst": ServeBurst,
}


def make(name: str, scale: str = "full") -> Workload:
    return KINDS[name](SCALES[scale][name])
