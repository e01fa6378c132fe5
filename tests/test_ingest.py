"""Dirty-CSV ingestion: sniffing, seeded noise, and the repair round trip.

The load-bearing properties:

* **determinism** — the same table through the same seeded pipeline is
  byte-identical CSV, twice or across processes;
* **round trip** — a clean table satisfying its generating FDs, pushed
  through *any* noise model and repaired against the clean load with a
  perfect oracle, ends violation-free.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.constraints import find_violations, repair, satisfies
from repro.ingest import (
    DuplicateRows,
    IngestError,
    MixedFormats,
    NoisePipeline,
    Outliers,
    TypePollution,
    load_csv,
    load_table,
    make_noisy_csv,
    read_table,
    sniff_column,
    sniff_csv,
    standard_noise,
    table_to_csv_bytes,
    write_csv,
)
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema, SchemaError
from repro.db.tuples import Fact
from repro.ingest.sniffer import ColumnProfile, cell_kind, coerce_cell, is_null, sniff_table
from repro.oracle.perfect import PerfectOracle

HEADER = ["day", "team", "score"]


def clean_rows(n: int) -> list[list[str]]:
    """n rows with unique keys — every FD with lhs=day holds trivially."""
    return [
        [f"19{70 + i % 30:02d}-06-{10 + i % 20:02d}", f"team{i}", str(1000 + i)]
        for i in range(n)
    ]


class TestSniffer:
    def test_cell_kinds(self):
        assert cell_kind("42") == "int"
        assert cell_kind("-3.5") == "float"
        assert cell_kind("1e10") == "float"
        assert cell_kind("1998-07-12") == "date"
        assert cell_kind("12/07/1998") == "date"
        assert cell_kind("FRA") == "text"

    def test_null_tokens(self):
        for token in ("", "N/A", "null", "-", "  ?  "):
            assert is_null(token)
        assert not is_null("0")

    def test_majority_vote_survives_pollution(self):
        cells = ["1", "2", "3", "4", "5", "6", "7", "N/A", "oops"]
        profile = sniff_column("x", cells)
        assert profile.kind == "int"
        assert profile.nulls == 1

    def test_ints_vote_float_too(self):
        profile = sniff_column("x", ["3", "3.5", "4", "4.5"])
        assert profile.kind == "float"

    def test_all_null_column_is_text(self):
        assert sniff_column("x", ["", "N/A"]).kind == "text"

    def test_coerce_cell_matches_directory_loader(self):
        assert coerce_cell("42") == 42
        assert coerce_cell(" 42 ") == 42  # padded cells coerce the same
        assert coerce_cell("3.5") == 3.5
        assert coerce_cell("FRA") == "FRA"

    def test_sniff_csv_profiles(self, tmp_path):
        write_csv(tmp_path / "games.csv", HEADER, clean_rows(10))
        profiles = sniff_csv(tmp_path / "games.csv")
        assert [p.kind for p in profiles] == ["date", "text", "int"]


class TestLoader:
    def test_load_csv_sniffs_schema_and_types(self, tmp_path):
        write_csv(tmp_path / "games.csv", HEADER, clean_rows(5))
        db = load_csv(tmp_path / "games.csv")
        assert db.schema.names == ("games",)
        rel = db.schema.relation("games")
        assert rel.attributes == tuple(HEADER)
        assert rel.domains == ("games.day:date", "games.team:text", "games.score:int")
        assert len(db) == 5
        assert any(f.values[2] == 1000 for f in db.facts("games"))  # coerced int

    def test_relation_defaults_to_stem(self, tmp_path):
        write_csv(tmp_path / "matches.csv", HEADER, clean_rows(3))
        assert load_csv(tmp_path / "matches.csv").schema.names == ("matches",)

    def test_short_rows_pad_long_rows_raise(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n1\n", encoding="utf-8")
        header, rows = read_table(tmp_path / "t.csv")
        assert rows == [["1", ""]]
        (tmp_path / "bad.csv").write_text("a,b\n1,2,3\n", encoding="utf-8")
        with pytest.raises(IngestError):
            read_table(tmp_path / "bad.csv")
        (tmp_path / "empty.csv").write_text("", encoding="utf-8")
        with pytest.raises(IngestError):
            read_table(tmp_path / "empty.csv")

    def test_duplicate_rows_collapse_under_set_semantics(self, tmp_path):
        rows = clean_rows(4)
        write_csv(tmp_path / "t.csv", HEADER, rows + [rows[0]])
        assert len(load_csv(tmp_path / "t.csv")) == 4


#: cells that coerce alike, coerce to NaN, vote differently, or spell null
CELL_POOL = [
    "nan", " NaN ", "1", "1.0", " 7 ", "-0", "1_000", "N/A", "",
    "1998-07-12", "12/07/1998", "1998/07/12", "FRA", "free text", "-3.5",
]


def _reference_profile(name: str, cells: list[str]) -> ColumnProfile:
    """The vote cell by cell: one is_null and one cell_kind per cell."""
    votes: Counter[str] = Counter()
    nulls = 0
    for cell in cells:
        if is_null(cell):
            nulls += 1
            continue
        kind = cell_kind(cell)
        votes[kind] += 1
        if kind == "int":
            votes["float"] += 1
    populated = len(cells) - nulls
    chosen = next(
        (k for k in ("int", "float", "date") if populated and votes[k] > populated / 2), "text"
    )
    return ColumnProfile(name, chosen, len(cells), nulls, tuple(sorted(votes.items())))


def _reference_load(relation, header, rows):
    """``coerce_cell`` per cell and an ``insert`` loop."""
    profiles = [
        _reference_profile(name, [row[i] for row in rows]) for i, name in enumerate(header)
    ]
    assert sniff_table(header, rows) == profiles
    domains = tuple(f"{relation}.{p.name}:{p.kind}" for p in profiles)
    database = Database(Schema([RelationSchema(relation, tuple(header), domains)]))
    for row in rows:
        database.insert(Fact(relation, tuple(coerce_cell(cell) for cell in row)))
    return database, profiles


def _spellings(database):
    """The facts as a multiset of reprs: NaN facts never compare equal."""
    return Counter(repr(f) for f in database)


class TestLoadTableEquivalence:
    """``load_table`` (one scan per column, one ``bulk_load``) loads what
    a cell-by-cell load does: the same facts, spelled the same."""

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_matches_a_cell_by_cell_load(self, width, data):
        header = [f"c{i}" for i in range(width)]
        rows = data.draw(
            st.lists(st.lists(st.sampled_from(CELL_POOL), min_size=width, max_size=width),
                     max_size=12)
        )
        database, profiles = load_table("t", header, rows)
        reference, reference_profiles = _reference_load("t", header, rows)
        assert profiles == reference_profiles
        assert database.schema == reference.schema
        assert len(database) == len(reference)
        assert _spellings(database) == _spellings(reference)
        assert database.version == (1 if rows else 0)

    def test_nan_cells_stay_distinct(self):
        rows = [["a", "nan"], ["a", "nan"], ["a", " NaN "], ["b", "1"], ["b", "1"]]
        database, _ = load_table("t", ["k", "v"], rows)
        reference, _ = _reference_load("t", ["k", "v"], rows)
        assert len(database) == len(reference) == 4
        nans = [f.values[1] for f in database if f.values[0] == "a"]
        assert len({id(value) for value in nans}) == 3

    def test_ragged_rows_raise_like_an_insert_loop(self):
        with pytest.raises(SchemaError, match=r"t\(3\) has arity 1, relation 't' expects 2"):
            load_table("t", ["a", "b"], [["1", "2"], ["3"]])
        with pytest.raises(SchemaError, match="has arity 3"):
            load_table("t", ["a", "b"], [["1", "2"], ["3", "4", "5"]])


class TestNoiseDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path):
        rows = clean_rows(40)
        noise = standard_noise(seed=11, fd_columns=(1, 2))
        assert table_to_csv_bytes(HEADER, noise.apply(rows)) == table_to_csv_bytes(
            HEADER, noise.apply(rows)
        )

    def test_make_noisy_csv_is_reproducible(self, tmp_path):
        write_csv(tmp_path / "clean.csv", HEADER, clean_rows(40))
        noise = standard_noise(seed=3, fd_columns=(1,))
        make_noisy_csv(tmp_path / "clean.csv", tmp_path / "a.csv", noise)
        make_noisy_csv(tmp_path / "clean.csv", tmp_path / "b.csv", noise)
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        make_noisy_csv(
            tmp_path / "clean.csv",
            tmp_path / "c.csv",
            standard_noise(seed=4, fd_columns=(1,)),
        )
        assert a != (tmp_path / "c.csv").read_bytes()

    def test_models_do_not_mutate_input(self):
        rows = clean_rows(20)
        snapshot = [list(r) for r in rows]
        NoisePipeline(
            (TypePollution(rate=0.5), DuplicateRows(rate=0.5)), seed=1
        ).apply(rows)
        assert rows == snapshot

    def test_each_model_actually_dirties(self):
        rows = clean_rows(50)
        for model in (
            TypePollution(rate=0.2),
            MixedFormats(rate=0.5),
            Outliers(rate=0.2),
            DuplicateRows(rate=0.1, perturb_columns=(1,)),
        ):
            dirty = NoisePipeline((model,), seed=5).apply(rows)
            assert dirty != rows, model.name


FDS = ["t: day -> team, score"]

MODEL_BUILDERS = [
    lambda: TypePollution(rate=0.15),
    lambda: MixedFormats(rate=0.3),
    lambda: Outliers(rate=0.15),
    lambda: DuplicateRows(rate=0.2, perturb_columns=(1, 2)),
]


class TestRepairRoundTrip:
    """clean → noise → load → repair(PerfectOracle over clean) → consistent."""

    @pytest.mark.parametrize("build", MODEL_BUILDERS)
    def test_each_model_round_trips(self, build):
        rows = clean_rows(30)
        truth, _ = load_table("t", HEADER, rows)
        assert satisfies(truth, FDS)
        dirty_rows = NoisePipeline((build(),), seed=13).apply(rows)
        dirty, _ = load_table("t", HEADER, dirty_rows)
        report = repair(dirty, FDS, PerfectOracle(truth))
        assert report.consistent
        assert find_violations(dirty, FDS) == []

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31),
        picks=st.lists(
            st.integers(min_value=0, max_value=len(MODEL_BUILDERS) - 1),
            min_size=1,
            max_size=4,
        ),
    )
    def test_any_noise_stack_round_trips(self, n, seed, picks):
        rows = clean_rows(n)
        truth, _ = load_table("t", HEADER, rows)
        pipeline = NoisePipeline(
            tuple(MODEL_BUILDERS[i]() for i in picks), seed=seed
        )
        dirty_rows = pipeline.apply(rows)
        # determinism rides along: the pipeline re-applies identically
        assert table_to_csv_bytes(HEADER, dirty_rows) == table_to_csv_bytes(
            HEADER, pipeline.apply(rows)
        )
        dirty, _ = load_table("t", HEADER, dirty_rows)
        report = repair(dirty, FDS, PerfectOracle(truth))
        assert report.consistent
        assert satisfies(dirty, FDS)
