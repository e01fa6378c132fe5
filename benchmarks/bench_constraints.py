"""Constraint-repair benchmark: oracle-guided vs exhaustive questioning.

The contract (ISSUE 10): on a seeded noisy CSV workload derived from the
worldcup generator, :class:`~repro.constraints.repairer.OracleRepairer`
must reach a consistent instance with **strictly fewer** oracle
questions than the exhaustive ask-every-involved-fact baseline, and on
the duplicate-row workload the repaired database must be byte-identical
(state digest) to the clean load.

The workload goes through the real ingestion path — the clean games
table is written to CSV, pushed through seeded
:mod:`repro.ingest.noise` pipelines with :func:`make_noisy_csv`, and
both sides are re-loaded with :func:`load_csv` — so the bench also pins
CSV round-trip determinism end to end.

Run under pytest (``pytest benchmarks/bench_constraints.py``) or as a
script (``python benchmarks/bench_constraints.py [out.json]``), which
writes ``BENCH_constraints.json``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from bench_common import metric, write_payload
from repro.constraints import find_violations, repair, satisfies
from repro.constraints.violations import query_violations
from repro.datasets.worldcup import worldcup_database
from repro.ingest import (
    DuplicateRows,
    MixedFormats,
    NoisePipeline,
    TypePollution,
    load_csv,
    make_noisy_csv,
    write_csv,
)
from repro.oracle.perfect import PerfectOracle

SEED = 23
ROWS = 150
HEADER = ["date", "winner", "runner_up", "stage", "result"]
FDS = ["games: date -> winner, runner_up, stage, result"]

#: FD-breaking noise only: perturbed duplicates keep every true row, so
#: a perfect repair restores the clean instance bit-for-bit.
DUP_NOISE = NoisePipeline(
    (DuplicateRows(rate=0.15, perturb_columns=(1, 4)),), seed=SEED
)

#: The kitchen sink: junk cells and reformatted values ride along with
#: the duplicates.  Those rows are damaged, not duplicated, so the gate
#: here is consistency + question counts, not full restoration.
MIXED_NOISE = NoisePipeline(
    (
        TypePollution(rate=0.02),
        MixedFormats(rate=0.05),
        DuplicateRows(rate=0.10, perturb_columns=(1, 4)),
    ),
    seed=SEED,
)


def games_rows() -> list[list[str]]:
    """The first ROWS worldcup finals/games, deterministic order."""
    db = worldcup_database()
    facts = sorted(db.facts("games"), key=lambda f: f.values)
    return [[str(v) for v in f.values] for f in facts[:ROWS]]


def build_workload(workdir: Path, name: str, noise: NoisePipeline):
    """clean CSV → seeded noisy CSV → (truth load, dirty load)."""
    clean_csv = workdir / "games.csv"
    dirty_csv = workdir / f"games_{name}.csv"
    write_csv(clean_csv, HEADER, games_rows())
    make_noisy_csv(clean_csv, dirty_csv, noise)
    truth = load_csv(clean_csv, relation="games")
    dirty = load_csv(dirty_csv, relation="games")
    return truth, dirty


def run_workload(workdir: Path, name: str, noise: NoisePipeline) -> dict:
    truth, dirty_for_oracle = build_workload(workdir, name, noise)
    _, dirty_for_exhaustive = build_workload(workdir, name, noise)
    assert dirty_for_oracle == dirty_for_exhaustive  # seeded determinism

    violations = len(find_violations(dirty_for_oracle, FDS))
    guided = repair(dirty_for_oracle, FDS, PerfectOracle(truth), strategy="oracle")
    exhaustive = repair(
        dirty_for_exhaustive, FDS, PerfectOracle(truth), strategy="exhaustive"
    )
    return {
        "noise": name,
        "facts_clean": len(truth),
        "facts_dirty": len(dirty_for_exhaustive) + len(guided.edits),
        "violations": violations,
        "oracle_questions": guided.questions_asked,
        "oracle_inferred": guided.inferred,
        "oracle_free_deletions": guided.free_deletions,
        "exhaustive_questions": exhaustive.questions_asked,
        "questions_saved": exhaustive.questions_asked - guided.questions_asked,
        "oracle_consistent": guided.consistent,
        "exhaustive_consistent": exhaustive.consistent,
        "same_repair": dirty_for_oracle.state_digest()
        == dirty_for_exhaustive.state_digest(),
        "restored_clean": dirty_for_oracle.state_digest() == truth.state_digest(),
        "oracle_satisfies": satisfies(dirty_for_oracle, FDS),
    }


def backend_agreement(workdir: Path) -> dict:
    """Block detection must return exactly the CQ reference's violations,
    as the naive and the columnar engine find them."""
    _, dirty = build_workload(workdir, "agree", DUP_NOISE)
    found = find_violations(dirty, FDS)
    naive = query_violations(dirty, FDS, backend="naive")
    columnar = query_violations(dirty, FDS, backend="columnar")
    return {
        "naive": len(naive),
        "columnar": len(columnar),
        "agree": found == naive == columnar,
    }


def bench_report() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        dup = run_workload(workdir, "dup", DUP_NOISE)
        mixed = run_workload(workdir, "mixed", MIXED_NOISE)
        backends = backend_agreement(workdir)
    result = {
        "workload": {
            "dataset": "worldcup-games-csv",
            "rows": ROWS,
            "fds": FDS,
            "seed": SEED,
        },
        "dup": dup,
        "mixed": mixed,
        "backends": backends,
    }
    result["metrics"] = {
        # seeded counters: bit-exact across runs
        "dup_violations": metric(dup["violations"]),
        "dup_oracle_questions": metric(dup["oracle_questions"]),
        "dup_exhaustive_questions": metric(dup["exhaustive_questions"]),
        "dup_questions_saved": metric(dup["questions_saved"], "higher", 0.0),
        "dup_restored_clean": metric(int(dup["restored_clean"])),
        "mixed_violations": metric(mixed["violations"]),
        "mixed_oracle_questions": metric(mixed["oracle_questions"]),
        "mixed_questions_saved": metric(mixed["questions_saved"], "higher", 0.0),
        "mixed_oracle_consistent": metric(int(mixed["oracle_consistent"])),
        "backends_agree": metric(int(backends["agree"])),
    }
    return result


def check(result: dict) -> list[str]:
    """The hard gates; returns the failures (empty = pass)."""
    failures = []
    for name in ("dup", "mixed"):
        row = result[name]
        if row["violations"] < 1:
            failures.append(f"{name}: the noise produced no violations to repair")
        if not row["oracle_consistent"]:
            failures.append(f"{name}: oracle-guided repair left violations")
        if not row["exhaustive_consistent"]:
            failures.append(f"{name}: exhaustive repair left violations")
        if row["questions_saved"] < 1:
            failures.append(
                f"{name}: oracle-guided repair did not strictly beat exhaustive "
                f"({row['oracle_questions']} vs {row['exhaustive_questions']})"
            )
        if not row["same_repair"]:
            failures.append(f"{name}: the two strategies repaired differently")
    if not result["dup"]["restored_clean"]:
        failures.append("dup: repair did not restore the clean instance")
    if not result["backends"]["agree"]:
        failures.append("block detection disagrees with the naive or columnar CQs")
    return failures


def test_constraints_contract():
    """The ISSUE 10 acceptance gate, end to end."""
    result = bench_report()
    assert check(result) == []


def main(argv: list[str]) -> int:
    out = argv[1] if len(argv) > 1 else "BENCH_constraints.json"
    result = bench_report()
    write_payload(out, result)
    for name in ("dup", "mixed"):
        row = result[name]
        print(
            f"{name:5s} {row['violations']:>3d} violation(s): "
            f"oracle {row['oracle_questions']:>3d} question(s) "
            f"(inferred {row['oracle_inferred']}, free {row['oracle_free_deletions']}) "
            f"vs exhaustive {row['exhaustive_questions']:>3d} "
            f"— saved {row['questions_saved']}"
        )
    failures = check(result)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
